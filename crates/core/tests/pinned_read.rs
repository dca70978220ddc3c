//! The pinned read against the cache it replaces, over the 20 k-page
//! directory of seed 42: a handle whose budget covers what every graph and
//! fanout could be charged reads them from slots of its own, and one whose
//! budget holds every graph but not that bound reads them through the
//! cache, which then evicts and refuses nothing. The two must give the
//! same answers, the same `to_graph`, the same cache counters for the same
//! probes, and — opened degraded over one flipped index byte — the same
//! degradation report.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};
use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

/// Covers the pinning bound of the 20 k directory (about 10 MB).
const PINNED: usize = 256 << 20;

/// Four shards of a mebibyte: the whole directory is charged about half
/// a mebibyte, so nothing is evicted, but the pinning bound is not met.
const CACHED: usize = 4 << 20;

/// A directory removed when dropped.
struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn build(name: &str) -> Dir {
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir = std::env::temp_dir().join(format!("wg_pinned_{name}_{}", std::process::id()));
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();
    Dir(dir)
}

/// A pinned and a cached handle on `dir`, strict or degraded.
fn open_both(dir: &Path, degraded: bool) -> [SNode; 2] {
    let open = |budget| match degraded {
        true => SNode::open_degraded(dir, budget).unwrap(),
        false => SNode::open_resident(dir, budget).unwrap(),
    };
    let [pinned, cached] = [open(PINNED), open(CACHED)];
    assert!(pinned.pins_graphs(), "a budget of {PINNED} pins");
    assert!(!cached.pins_graphs(), "a budget of {CACHED} does not");
    [pinned, cached]
}

/// Every answer of one sequence of probes: every page once in Knuth's
/// multiplicative scatter, 300 batches of up to six pages of one
/// supernode (ascending, reversed, with a page twice), then every page
/// again. Errors are answers too.
fn probe(snode: &SNode) -> Vec<Result<Vec<u32>, String>> {
    let n = u64::from(snode.num_pages());
    let mut answers = Vec::new();
    let mut out = Vec::new();
    let mut single = |p: u32, answers: &mut Vec<_>| {
        let got = snode.out_neighbors_into(p, &mut out);
        answers.push(got.map(|()| out.clone()).map_err(|e| e.to_string()));
    };
    for i in 0..n {
        single((i * 2_654_435_761 % n) as u32, &mut answers);
    }
    for i in 0..300u64 {
        let p = ((i * 40_503 + 17) * 2_654_435_761 % n) as u32;
        let range = snode.page_range(snode.supernode_of(p));
        let len = u64::from(range.end - range.start);
        let mut pages: Vec<u32> = (0..1 + i % 6)
            .map(|k| range.start + ((u64::from(p - range.start) + k * k * 7) % len) as u32)
            .collect();
        match i % 3 {
            0 => pages.sort_unstable(),
            1 => pages.reverse(),
            _ => pages.push(pages[0]),
        }
        let mut lists = Vec::new();
        let run = snode.out_neighbors_batch(&pages, &mut |page, list| {
            lists.push(page);
            lists.extend_from_slice(list);
        });
        answers.push(run.map(|()| lists).map_err(|e| e.to_string()));
    }
    for p in 0..n as u32 {
        single(p, &mut answers);
    }
    answers
}

#[test]
fn a_pinned_handle_answers_and_counts_as_the_cache_it_replaces() {
    let dir = build("clean");
    let [pinned, cached] = open_both(&dir.0, false);
    let answers = probe(&pinned);
    assert!(
        answers.iter().all(Result::is_ok),
        "a clean directory answers"
    );
    assert_eq!(answers, probe(&cached), "answers");
    let stats = pinned.cache_stats();
    assert_eq!(
        stats,
        cached.cache_stats(),
        "counters after the same probes"
    );
    assert_eq!((stats.evictions, stats.refused), (0, 0), "nothing was cold");
    assert!(stats.hits > stats.misses && stats.misses > 0, "{stats:?}");
    assert_eq!(pinned.disk_reads(), cached.disk_reads(), "graph reads");

    // Cold again: `to_graph` reads every graph once, on both paths alike.
    for snode in [&pinned, &cached] {
        snode.clear_cache();
        assert_eq!(snode.cache_stats().misses, 0, "cleared");
    }
    assert_eq!(pinned.to_graph().unwrap(), cached.to_graph().unwrap());
    let stats = pinned.cache_stats();
    assert_eq!(stats, cached.cache_stats(), "counters of to_graph");
    let graphs = u64::from(pinned.num_supernodes()) * 2 + pinned.index().num_superedges();
    assert!(
        stats.misses < graphs,
        "one-target graphs are never looked up"
    );
    assert!(stats.bytes_loaded > 0 && stats.evictions == 0, "{stats:?}");
}

#[test]
fn a_degraded_pinned_handle_quarantines_as_the_cache_does() {
    let dir = build("degraded");
    let path = dir.0.join("index_000.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let [pinned, cached] = open_both(&dir.0, true);
    let answers = probe(&pinned);
    assert_eq!(answers, probe(&cached), "answers");
    let report = pinned.degraded();
    assert_eq!(report, cached.degraded(), "degradation report");
    assert!(report.quarantined_supernodes > 0, "{report:?}");
    assert!(report.skipped_edges > 0, "{report:?}");
    assert_eq!(pinned.cache_stats(), cached.cache_stats(), "counters");
    assert_eq!(pinned.integrity_stats(), cached.integrity_stats());
}
