//! What a small cache keeps of what it read: under the 1 MiB budget every
//! CLI default and the ledger use, a cold probe is charged a small
//! multiple of the encoded bytes it read, and a working set the budget
//! has room for stays resident — the knee of the paper's Figure 12.

// Test code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::snode::{build_snode, RepoInput, SNode, SNodeConfig};

const BUDGET: usize = 1 << 20;

/// What a full miss may be charged, in bytes a probe: a quarter above the
/// 5 232 it is charged when no supernode is above `MAX_ELEMENT_PAGES` and
/// an entry owns its header and its arena only, every section of that at
/// the width its bound needs, and the fanout answers single-target
/// dictionaries of one entry, which are then never admitted. It reads
/// 3 026 encoded bytes (4 450, charged 8 420, before the cut; 11 146 while
/// each entry also reserved its blob's length for a memo of decoded lists,
/// 11 448 while one-target graphs were admitted, 20 139 at four bytes a
/// value).
const FULL_MISS_CEILING: u64 = 6_540;

/// What the 487 probes one page in 41 apart may be charged, in all: their
/// reading before supernodes above `MAX_ELEMENT_PAGES` were cut.
const STRIDE_CHARGE_CEILING: u64 = 303_566;

/// The encoded bytes a cold probe into supernode `s` reads: its intranode
/// blob and every out-superedge blob.
fn encoded_bytes(snode: &SNode, s: u32) -> u64 {
    let row = snode.index().row(s).unwrap();
    let graphs = 0..=row.targets().len();
    graphs.map(|k| row.locator(k).unwrap().byte_len).sum()
}

/// The 20 k-page directory of seed 42 in a directory named for `test`,
/// opened under the 1 MiB budget.
fn open(test: &str) -> (SNode, std::path::PathBuf) {
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir = std::env::temp_dir().join(format!("wg_cache_{test}_{}", std::process::id()));
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();
    (SNode::open_resident(&dir, BUDGET).unwrap(), dir)
}

/// The build is most of each test's time.
#[test]
fn a_one_mib_cache_charges_what_it_reads_and_keeps_what_fits() {
    let (snode, dir) = open("residency");
    let n = snode.num_pages();
    let mut out = Vec::new();

    // One page in 41, a prime stride apart (no two neighbours in a row, as
    // the ledger probes): what the cache charged for what it admitted,
    // held to a ceiling, and against what those probes had to read —
    // ROADMAP item 4's ratio. The ceiling is the 303 566 bytes these 487
    // probes were charged before every supernode above `MAX_ELEMENT_PAGES`
    // was cut into runs; they are charged 298 211 since. The cut shrank
    // the ratio's denominator more than its numerator — a probe reads the
    // graphs of a smaller supernode, 1 473 111 encoded bytes where it read
    // 2 179 873 — so the ratio rose from 0.14 to 0.20 for less charged,
    // and it is pinned a quarter above that only beside the ceiling. 258
    // supernodes hit each other's graphs far more often than 100 k pages'
    // do (0.19 while each entry reserved a memo of decoded lists, 0.23
    // while one-target graphs were admitted, 0.42 at four bytes a value,
    // all before the cut).
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
        stats.bytes_loaded <= STRIDE_CHARGE_CEILING,
        "{probes} probes: {} bytes charged, above {STRIDE_CHARGE_CEILING}",
        stats.bytes_loaded
    );
    assert!(
        stats.bytes_loaded * 100 <= read * 25,
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

/// A full miss — the cache cleared before each probe — is charged what
/// the entries it admits own, each section of their arenas at the width
/// its bound needs: 1.73 × the encoded bytes it reads over these 400
/// pages (1.89 × before supernodes above `MAX_ELEMENT_PAGES` were cut,
/// 2.50 × while each entry reserved a memo of decoded lists, 2.57 × while
/// one-target graphs were admitted, 4.53 × at four bytes a value).
/// The counters are exact, so a section widened back to a word, or a field
/// added to every entry, fails this where no timing would.
#[test]
fn a_full_miss_is_charged_the_width_its_values_need() {
    let (snode, dir) = open("full_miss");
    let n = snode.num_pages();
    let mut out = Vec::new();
    let (mut charged, mut read, probes) = (0u64, 0u64, 400u32);
    for p in (0..probes).map(|i| (i * 7_919 * 13 + 17) % n) {
        snode.clear_cache();
        snode.out_neighbors_into(p, &mut out).unwrap();
        charged += snode.cache_stats().bytes_loaded;
        read += encoded_bytes(&snode, snode.supernode_of(p));
    }
    let per_probe = charged / u64::from(probes);
    assert!(
        per_probe <= FULL_MISS_CEILING,
        "{per_probe} bytes a full miss, {:.2} x the {} encoded bytes it read",
        charged as f64 / read as f64,
        read / u64::from(probes)
    );
    std::fs::remove_dir_all(&dir).ok();
}
