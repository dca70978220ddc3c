//! Shared-read-path stress: one opened representation, many threads.
//!
//! The wg-serve refactor promises that an opened [`GraphRep`] is a shared
//! read handle — decoded state immutable, per-call mutability (cached
//! graphs, page frames, scratch buffers) behind locks that never change answers.
//! These tests pin the promise without loom: N threads hammer Q1–6 over
//! the *same* handle (with a hostile evictor thrashing the caches the
//! whole time) and every thread must reproduce the single-threaded
//! fingerprints; a property test then checks that *any* interleaving of
//! cache eviction into a query sequence is answer-invisible.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use wg_corpus::{Corpus, CorpusConfig};
use wg_query::obsrun::fingerprint_rows;
use wg_query::queries::{query1, query2, query3, query4, query5, query6, QueryEnv, Workload};
use wg_query::reps::{Scheme, SchemeSet};
use wg_query::{DomainTable, GraphRep, PageRankIndex, TextIndex};
use wg_snode::SNodeConfig;

struct Fx {
    root: std::path::PathBuf,
    set: SchemeSet,
    text: TextIndex,
    pagerank: PageRankIndex,
    domains: DomainTable,
    workload: Workload,
}

impl Drop for Fx {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn setup(pages: u32, seed: u64, name: &str) -> Fx {
    let corpus = Corpus::generate(CorpusConfig::scaled(pages, seed));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let doms: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let mut root = std::env::temp_dir();
    root.push(format!("wg_stress_{name}_{}", std::process::id()));
    let set = SchemeSet::build(
        &root,
        &urls,
        &doms,
        &corpus.graph,
        &SNodeConfig::default(),
        1 << 20,
    )
    .unwrap();
    let text = TextIndex::build(&corpus, &set.renumbering);
    let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
    let domains = DomainTable::build(&corpus, &set.renumbering);
    let workload = Workload::discover(&text, &domains);
    Fx {
        root,
        set,
        text,
        pagerank,
        domains,
        workload,
    }
}

impl Fx {
    fn env(&self) -> QueryEnv<'_> {
        QueryEnv {
            text: &self.text,
            pagerank: &self.pagerank,
            domains: &self.domains,
        }
    }

    /// Runs query `n` over shared handles and fingerprints the rows.
    fn fp(&self, n: u8, fwd: &dyn GraphRep, back: &dyn GraphRep) -> u64 {
        let env = self.env();
        let w = &self.workload;
        let out = match n {
            1 => query1(env, fwd, &w.q1),
            2 => query2(env, fwd, &w.q2),
            3 => query3(env, fwd, back, &w.q3),
            4 => query4(env, back, &w.q4),
            5 => query5(env, fwd, &w.q5),
            6 => query6(env, fwd, &w.q6),
            _ => unreachable!(),
        }
        .unwrap();
        fingerprint_rows(&out.rows)
    }
}

/// N threads × Q1–6 × three schemes over *one* shared handle per scheme,
/// while an evictor thread clears every cache in a tight loop. Every
/// thread must see the single-threaded fingerprints — the caches and
/// scratch pools may race for performance, never for answers.
#[test]
fn concurrent_queries_match_single_threaded_fingerprints() {
    let f = setup(1_500, 17, "conc");
    let schemes = [Scheme::SNode, Scheme::Relational, Scheme::Link3];
    let handles: Vec<(Box<dyn GraphRep>, Box<dyn GraphRep>)> = schemes
        .iter()
        .map(|&s| (f.set.open(s).unwrap(), f.set.open_transpose(s).unwrap()))
        .collect();

    // Single-threaded reference, per scheme.
    let reference: Vec<[u64; 6]> = handles
        .iter()
        .map(|(fwd, back)| {
            let mut fps = [0u64; 6];
            for (i, fp) in fps.iter_mut().enumerate() {
                *fp = f.fp(i as u8 + 1, fwd.as_ref(), back.as_ref());
            }
            fps
        })
        .collect();

    let threads = 8usize;
    let rounds = 2;
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Hostile evictor: keeps dropping cached graphs and page frames mid-query
        // until every worker has finished.
        s.spawn(|| {
            while done.load(Ordering::Relaxed) < threads {
                for (fwd, back) in &handles {
                    fwd.reset().unwrap();
                    back.reset().unwrap();
                }
                std::thread::yield_now();
            }
        });
        for t in 0..threads {
            let f = &f;
            let handles = &handles;
            let reference = &reference;
            let done = &done;
            s.spawn(move || {
                for r in 0..rounds {
                    for (si, (fwd, back)) in handles.iter().enumerate() {
                        for n in 1..=6u8 {
                            let got = f.fp(n, fwd.as_ref(), back.as_ref());
                            assert_eq!(
                                got,
                                reference[si][usize::from(n) - 1],
                                "thread {t} round {r} scheme {} q{n} drifted under concurrency",
                                schemes[si].name()
                            );
                        }
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleaved cache eviction is answer-invisible: for an arbitrary
    /// sequence mixing Q1–6 with `reset()` calls on either handle, every
    /// query returns the same fingerprint as a fresh single-threaded run.
    #[test]
    fn interleaved_eviction_never_changes_answers(
        ops in prop::collection::vec(0u8..9, 4..24),
    ) {
        let f = setup(800, 23, "prop");
        let fwd = f.set.open(Scheme::SNode).unwrap();
        let back = f.set.open_transpose(Scheme::SNode).unwrap();
        let mut reference = [0u64; 6];
        for (i, fp) in reference.iter_mut().enumerate() {
            *fp = f.fp(i as u8 + 1, fwd.as_ref(), back.as_ref());
        }
        for op in ops {
            match op {
                0..=5 => {
                    let n = op + 1;
                    let got = f.fp(n, fwd.as_ref(), back.as_ref());
                    prop_assert_eq!(
                        got,
                        reference[usize::from(op)],
                        "q{} drifted after interleaved eviction",
                        n
                    );
                }
                6 => fwd.reset().unwrap(),
                7 => back.reset().unwrap(),
                // Evict both mid-sequence back to back.
                _ => {
                    fwd.reset().unwrap();
                    back.reset().unwrap();
                }
            }
        }
    }
}
