//! What a small cache decides, pinned to constants: two passes of probes
//! over the 20 k-page directory of seed 42 under a budget a fraction of
//! its working set, single pages and batches that draw several pages of
//! one supernode, repeats included. Each pass's hits, misses, evictions
//! and refusals are exact counters, and the answers are hashed: a change
//! to how the read path builds or admits graphs that is meant to leave
//! every decision alone must leave these numbers alone. What the cache
//! was charged (`bytes_loaded`) is held to a ceiling only, the first
//! reading of this test: a change may build less for the same decisions.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

/// A quarter of a mebibyte: one shard, which refuses and evicts all pass.
const BUDGET: usize = 256 << 10;

/// Per pass: hits, misses, evictions, refusals. These and `ANSWERS` moved
/// when supernodes above `MAX_ELEMENT_PAGES` came to be cut into runs: the
/// largest one became two, so its batches draw on other graphs. The
/// counts moved again (the answers did not) when a blob came to hold its
/// index file's buffer behind a thin `Arc`: every entry is charged 8 bytes
/// less (72 bytes a header, not 80), so more of them fit the budget.
const PASSES: [[u64; 4]; 2] = [[5_214, 2_620, 348, 1_677], [5_757, 2_077, 361, 1_727]];

/// Every answer of both passes, hashed.
const ANSWERS: u64 = 0x936f_f167_8105_1625;

/// What the two passes were charged, at most.
const BYTES_LOADED_CEILING: u64 = 927_205;

/// Folds `words` into the FNV-1a hash `h`.
fn fold(mut h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// One pass: 1 500 single probes in Knuth's multiplicative scatter, then
/// 300 batches of up to six pages of one supernode (ascending, shuffled
/// and with a page twice). Returns the pass's answers folded into `h`.
fn pass(snode: &SNode, mut h: u64) -> u64 {
    let n = u64::from(snode.num_pages());
    let mut out = Vec::new();
    for i in 0..1_500u64 {
        let p = (i * 2_654_435_761 % n) as u32;
        snode.out_neighbors_into(p, &mut out).unwrap();
        h = fold(h, std::iter::once(p).chain(out.iter().copied()));
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
        snode
            .out_neighbors_batch(&pages, &mut |page, list| {
                h = fold(h, std::iter::once(page).chain(list.iter().copied()));
            })
            .unwrap();
    }
    h
}

#[test]
fn two_passes_under_a_small_budget_decide_what_they_always_did() {
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir = std::env::temp_dir().join(format!("wg_cache_decisions_{}", std::process::id()));
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();
    let snode = SNode::open_resident(&dir, BUDGET).unwrap();

    // The second pass finds what the first left cached.
    let (mut h, mut passes, mut before) = (0xcbf2_9ce4_8422_2325_u64, Vec::new(), [0; 4]);
    for _ in 0..PASSES.len() {
        h = pass(&snode, h);
        let s = snode.cache_stats();
        let now = [s.hits, s.misses, s.evictions, s.refused];
        passes.push([0, 1, 2, 3].map(|i| now[i] - before[i]));
        before = now;
    }
    let loaded = snode.cache_stats().bytes_loaded;
    assert_eq!(passes, PASSES, "hits, misses, evictions, refusals per pass");
    assert_eq!(h, ANSWERS, "answers");
    assert!(
        loaded <= BYTES_LOADED_CEILING,
        "{loaded} bytes loaded, above {BYTES_LOADED_CEILING}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
