//! What a small cache keeps of what it read: under the 1 MiB budget every
//! CLI default and the ledger use, a cold probe is charged a small
//! multiple of the encoded bytes it read, and a working set the budget
//! has room for stays resident — the knee of the paper's Figure 12.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::snode::{build_snode, RepoInput, SNode, SNodeConfig};

const BUDGET: usize = 1 << 20;

/// The encoded bytes a cold probe into supernode `s` reads: its intranode
/// blob and every out-superedge blob.
fn encoded_bytes(snode: &SNode, s: u32) -> u64 {
    let meta = snode.meta();
    let supers = meta.superedge_loc[s as usize].iter();
    meta.intranode_loc[s as usize].byte_len + supers.map(|loc| loc.byte_len).sum::<u64>()
}

/// One test, one directory: the build is most of its time.
#[test]
fn a_one_mib_cache_charges_what_it_reads_and_keeps_what_fits() {
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir = std::env::temp_dir().join(format!("wg_cache_residency_{}", std::process::id()));
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();
    let snode = SNode::open_resident(&dir, BUDGET).unwrap();
    let n = snode.num_pages();
    let mut out = Vec::new();

    // One page in 41, a prime stride apart (no two neighbours in a row, as
    // the ledger probes): what the cache charged for what it admitted
    // against what those probes had to read — ROADMAP item 4's ratio. 258
    // supernodes hit each other's graphs far more often than 100 k pages'
    // do, so the ratio reads 0.56 here where theirs reads 2.6 (and 1.36
    // where theirs read 7.2): pinned a quarter above.
    let (mut read, mut probes) = (0u64, 0u64);
    for p in (0..n / 41).map(|i| (i * 41 * 7_919) % n) {
        snode.out_neighbors_into(p, &mut out).unwrap();
        read += encoded_bytes(&snode, snode.supernode_of(p));
        probes += 1;
    }
    let stats = snode.cache_stats();
    let by_kind = stats.bytes_loaded_intra + stats.bytes_loaded_super + stats.bytes_loaded_fanout;
    assert_eq!(stats.bytes_loaded, by_kind);
    assert!(
        stats.bytes_loaded * 100 <= read * 81,
        "{probes} probes: {} bytes charged for {read} encoded bytes read, {:.2} x",
        stats.bytes_loaded,
        stats.bytes_loaded as f64 / read as f64
    );

    // Pages a prime apart until three quarters of the budget is admitted:
    // nothing was evicted to make room, so a second pass misses nothing.
    snode.clear_cache();
    let mut probes = Vec::new();
    for p in (0..n).map(|i| (i * 7_919) % n) {
        if snode.cache_stats().bytes_loaded >= (BUDGET * 3 / 4) as u64 {
            break;
        }
        snode.out_neighbors_into(p, &mut out).unwrap();
        probes.push(p);
    }
    let first = snode.cache_stats();
    assert!(
        probes.len() >= 20,
        "{} probes fill the budget",
        probes.len()
    );
    assert!(first.bytes_loaded < BUDGET as u64, "{first:?}");
    for &p in &probes {
        snode.out_neighbors_into(p, &mut out).unwrap();
    }
    let second = snode.cache_stats();
    assert_eq!(
        (second.misses, second.evictions),
        (first.misses, 0),
        "{} probes, {} bytes admitted of {BUDGET}: all of it stays",
        probes.len(),
        first.bytes_loaded
    );
    std::fs::remove_dir_all(&dir).ok();
}
