//! The six queries pinned to constants: over the corpus `golden_build.rs`
//! pins the build of (20 000 pages, seed 42, a 1 MiB cache), every scheme
//! answers Q1–6 with the same rows — the six fingerprints below, taken in
//! corpus ids, so a partition that numbers the pages otherwise moves none
//! of them — twice in a row with the same cost counters, and S-Node does
//! it inside the decode and lookup counts it was last committed with. A
//! change that moves a fingerprint changed an answer; one that raises a
//! ceiling made a probe do more work, and says why where it edits the
//! table.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use wg_corpus::{Corpus, CorpusConfig};
use wg_query::obsrun::{fingerprint_rows, run_observed};
use wg_query::queries::{query1, query2, query3, query4, query5, query6, QueryEnv, Workload};
use wg_query::reps::{Scheme, SchemeSet};
use wg_query::{DomainTable, PageRankIndex, TextIndex};
use wg_snode::SNodeConfig;

/// `fingerprint_rows` of Q1–6 in corpus ids (`corpus_rows`), identical
/// across `Scheme::ALL`.
const ROW_FINGERPRINTS: [u64; 6] = [
    1_793_073_308_979_269_945,
    11_522_018_514_478_724_620,
    16_991_847_575_229_230_691,
    12_116_291_250_195_738_411,
    6_697_979_280_576_879_812,
    9_750_987_405_055_240_059,
];

/// What S-Node may spend on each query, cold: `intra_lists_decoded`,
/// `super_lists_decoded` and graph-cache lookups (`cache_hits +
/// cache_misses`). More intranode or superedge list decodes means the
/// frontier-batched fast path regressed. More lookups means a probe is
/// asking for graphs its fanout does not name: one lookup per
/// out-superedge made 12 103 over the six queries where the fanout makes
/// these 5 810. Q3's decodes fell from 381 to 312 and its lookups from 414
/// to 342, Q4's from 277 to 181 and from 296 to 189, when WGᵀ came to be
/// stored over WG's partition: a backlink probe then reads the lists of
/// 258 supernodes' graphs where it read 402's. Lookups fell from
/// 203/241/342/189/4 443/213 (5 631 over the six) to these (2 441), and
/// superedge list decodes from 197/235/282/173/3 947/205, when the fanout
/// came to answer single-target dictionaries of one entry itself: such a
/// graph's answer is one number the fanout holds, so it is neither looked
/// up nor counted as a list decoded. The rows did not move. Q4 rose from
/// 136/152 to 139/155 and Q5 from 248/1 248/1 744 to 249/1 257/1 755
/// (lookups 2 441 → 2 454 over the six; Q3 fell by one in both) when every
/// element above `MAX_ELEMENT_PAGES` came to be cut into runs: this
/// corpus's largest supernode became two, and a link between its halves,
/// an intranode list's entry before, is now a superedge list's, read from
/// one more graph. The rows did not move.
const SNODE_CEILINGS: [[u64; 3]; 6] = [
    [3, 102, 108],
    [3, 115, 121],
    [30, 141, 201],
    [8, 139, 155],
    [249, 1257, 1755],
    [4, 106, 114],
];

/// Query `k`'s rows with every page in its key in corpus ids, in key
/// order: a tie in score is then ordered the same whatever ids the
/// partition gave the pages. Q1's keys are domains and Q2's comics; Q4's
/// are a university's index above its page.
fn corpus_rows(k: usize, rows: &[(u64, f64)], old_of_new: &[u32]) -> Vec<(u64, f64)> {
    let corpus_id = |page: u64| u64::from(old_of_new[page as usize]);
    let mut rows: Vec<(u64, f64)> = (rows.iter())
        .map(|&(key, score)| match k {
            0 | 1 => (key, score),
            3 => (key >> 32 << 32 | corpus_id(key & 0xffff_ffff), score),
            _ => (corpus_id(key), score),
        })
        .collect();
    rows.sort_by_key(|&(key, _)| key);
    rows
}

#[test]
fn six_queries_answer_and_cost_what_they_were_committed_to() {
    // Counters register when a representation opens: up before any does.
    wg_obs::set_metrics_enabled(true);
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let root = std::env::temp_dir().join(format!("wg_golden_queries_{}", std::process::id()));
    let set = SchemeSet::build(
        &root,
        &urls,
        &domains,
        &corpus.graph,
        &SNodeConfig::default(),
        1 << 20,
    )
    .unwrap();
    let text = TextIndex::build(&corpus, &set.renumbering);
    let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
    let domain_table = DomainTable::build(&corpus, &set.renumbering);
    let env = QueryEnv {
        text: &text,
        pagerank: &pagerank,
        domains: &domain_table,
    };
    let workload = Workload::discover(&text, &domain_table);

    let old_of_new = &set.renumbering.old_of_new;
    for scheme in Scheme::ALL {
        let (fwd, back) = (
            set.open(scheme).unwrap(),
            set.open_transpose(scheme).unwrap(),
        );
        let (fwd, back, w) = (fwd.as_ref(), back.as_ref(), &workload);
        let outputs = [
            query1(env, fwd, &w.q1),
            query2(env, fwd, &w.q2),
            query3(env, fwd, back, &w.q3),
            query4(env, back, &w.q4),
            query5(env, fwd, &w.q5),
            query6(env, fwd, &w.q6),
        ];
        for (k, out) in outputs.into_iter().enumerate() {
            let rows = corpus_rows(k, &out.unwrap().rows, old_of_new);
            let got = fingerprint_rows(&rows);
            assert_eq!(
                got,
                ROW_FINGERPRINTS[k],
                "{} q{}: rows moved, {got}",
                scheme.name(),
                k + 1
            );
        }

        let first = run_observed(env, &set, scheme, &workload).unwrap();
        let second = run_observed(env, &set, scheme, &workload).unwrap();
        assert_eq!(first.queries.len(), 6);
        for (k, (a, b)) in first.queries.iter().zip(&second.queries).enumerate() {
            let (name, q) = (scheme.name(), a.query);
            assert_eq!(
                a.deterministic_fields(),
                b.deterministic_fields(),
                "{name} {q}: two passes disagree"
            );
            if scheme == Scheme::SNode {
                let spent = [
                    a.intra_lists_decoded,
                    a.super_lists_decoded,
                    a.cache_hits + a.cache_misses,
                ];
                let what = ["intra lists", "super lists", "lookups"];
                for ((got, allowed), what) in spent.iter().zip(SNODE_CEILINGS[k]).zip(what) {
                    assert!(got <= &allowed, "{name} {q}: {got} {what} > {allowed}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
