//! The zero-allocation contract (SN202), executed and counted by the
//! allocator itself: once one pass has filled the graph cache and grown the
//! handle's decode buffers, `out_neighbors_into` and a repeated
//! `out_neighbors_batch` answer without a single heap allocation,
//! backlinks through `open_transpose` too; encoding or parsing a list
//! stream allocates per call, never per list; a cache entry is admitted
//! with a fixed number of allocations, its arena among them; and a count
//! the bytes cannot back sizes nothing.

// Test code: unwrap on setup failure is the desired behaviour. The counting
// allocator is the one piece of `unsafe` this workspace has: `GlobalAlloc`
// cannot be implemented without it.
#![allow(clippy::unwrap_used)]
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use webgraph_repr::bitio::{codes, BitWriter};
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::query::reps::{Scheme, SchemeSet};
use webgraph_repr::snode::cache::{CachedGraph, Fanout};
use webgraph_repr::snode::refenc::{encode_lists, DecodeScratch, ListsIndex, RefMode, Universe};
use webgraph_repr::snode::subgraphs::{
    encode_superedge, Layout as Stored, SuperedgeIndex, SuperedgeKind, SuperedgePolicy,
};
use webgraph_repr::snode::{Blob, ListCodec, SNode, SNodeConfig};
use webgraph_repr::store::Region;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The most bytes one of them asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread: what the test harness does
/// on its own threads meanwhile is not the probe's doing.
struct Counting;

fn count_one(bytes: usize) {
    // Not during thread teardown, when the slots may be gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter is a `const`
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's obligations are `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The most bytes one allocation asked for while `work` ran, and what it
/// returned.
fn largest<T>(work: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|n| n.set(0));
    let done = work();
    (LARGEST.with(Cell::get), done)
}

/// What `work` returns, and how many allocations it made.
fn counted<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let done = work();
    (allocations() - before, done)
}

#[test]
fn a_warm_probe_allocates_nothing() {
    let corpus = Corpus::generate(CorpusConfig::scaled(5_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let root = std::env::temp_dir().join(format!("wg_zero_alloc_{}", std::process::id()));
    // The default format: `g+st`, every superedge layout in play; the
    // corpus graph and its transpose in the directories' page ids.
    let config = SNodeConfig::default();
    let set = SchemeSet::build(&root, &urls, &domains, &corpus.graph, &config, 1 << 20).unwrap();
    let n = corpus.num_pages();
    let batch: Vec<u32> = (0..64).map(|i| i * (n / 64) + i % 7).collect();

    let snode = SNode::open_resident(&root.join("snode"), 256 << 20).unwrap();
    let mut out = Vec::new();
    let mut wrong = 0usize;
    // The filling pass: every graph cached, every buffer grown.
    for p in 0..n {
        snode.out_neighbors_into(p, &mut out).unwrap();
    }
    let before = allocations();
    for p in 0..n {
        snode.out_neighbors_into(p, &mut out).unwrap();
        wrong += usize::from(out != set.graph.neighbors(p));
    }
    let scalar = allocations() - before;
    assert_eq!(wrong, 0, "answers differ from the corpus graph");
    assert_eq!(scalar, 0, "allocations over {n} warm probes");

    let mut check = |p: u32, list: &[u32]| wrong += usize::from(list != set.graph.neighbors(p));
    snode.out_neighbors_batch(&batch, &mut check).unwrap();
    let before = allocations();
    for _ in 0..3 {
        snode.out_neighbors_batch(&batch, &mut check).unwrap();
    }
    let batched = allocations() - before;
    assert_eq!(wrong, 0, "batched answers differ from the corpus");
    assert_eq!(batched, 0, "allocations over three warm batches");
    let stats = snode.cache_stats();
    assert_eq!((stats.evictions, stats.refused), (0, 0), "nothing was cold");

    // Backlinks take the same path: `snode_t` shares `snode`'s page ids, so
    // the handle `open_transpose` gives is an `SNode` with nothing between.
    let backlinks = set
        .open_with_budget(Scheme::SNode, 256 << 20, true)
        .unwrap();
    for p in 0..n {
        backlinks.out_neighbors_into(p, &mut out).unwrap();
    }
    let before = allocations();
    for p in 0..n {
        backlinks.out_neighbors_into(p, &mut out).unwrap();
        wrong += usize::from(out != set.transpose.neighbors(p));
    }
    let backward = allocations() - before;
    assert_eq!(wrong, 0, "backlinks differ from the transpose graph");
    assert_eq!(backward, 0, "allocations over {n} warm backlink probes");
    std::fs::remove_dir_all(&root).ok();
}

/// `n` lists over `0..n` in groups of eight that share twelve entries, so
/// reference selection finds a parent for most of them.
fn similar_lists(n: u32) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| {
            let group = i / 8;
            let mut list: Vec<u32> = (0..12).map(|k| (group * 37 + k * 13) % n).collect();
            list.push(i.wrapping_mul(7919) % n);
            list.sort_unstable();
            list.dedup();
            list
        })
        .collect()
}

/// Reference selection prices up to 32 candidates per list
/// (`ref_cost_within`) and diffs each list against the parent chosen into
/// the writer's scratch (`diff_into`); a cold `ListsIndex::parse` scans
/// every payload (`scan_payload`). What they allocate is their output and
/// scratch, so the count is the same at 1 024 lists as at 16 384: one `Vec`
/// per list or per candidate anywhere on those paths breaks the equality.
#[test]
fn encoding_and_parsing_a_list_stream_allocate_per_call_not_per_list() {
    let counts = |n: u32| {
        let lists = similar_lists(n);
        let mut counts = Vec::new();
        let mut bits = Vec::new();
        for mode in [RefMode::None, RefMode::Windowed(32)] {
            let before = allocations();
            let enc = encode_lists(&lists, u64::from(n), mode, ListCodec);
            counts.push(allocations() - before);
            let before = allocations();
            let parsed =
                ListsIndex::parse(&enc.bytes, enc.bit_len, Universe::SameAsCount, ListCodec);
            counts.push(allocations() - before);
            assert_eq!(parsed.unwrap().num_lists(), n);
            bits.push(enc.bit_len);
        }
        assert!(bits[1] < bits[0], "{n} lists: no list took a reference");
        counts
    };
    assert_eq!(
        counts(1_024),
        counts(16_384),
        "[None, parse, Windowed(32), parse]"
    );
}

/// A superedge graph of `sources` linking pages in the shape stored as
/// `shape` (or as a negative graph), as one list per page of `Ni`, and
/// `|Nj|`.
fn superedge_of(shape: Stored, negative: bool, sources: u32) -> (Vec<Vec<u32>>, u64) {
    let every_other = |list: &dyn Fn(u32) -> Vec<u32>| -> Vec<Vec<u32>> {
        (0..2 * sources)
            .map(|p| if p % 2 == 0 { list(p / 2) } else { Vec::new() })
            .collect()
    };
    if negative {
        // Every page links to all 200 targets but two, a pair of its own.
        let missing = |p: u32| [p % 200, (p % 200 + 1 + p / 200) % 200];
        let lists = (0..sources).map(|p| (0..200).filter(|t| !missing(p).contains(t)).collect());
        return (lists.collect(), 200);
    }
    match shape {
        // Three targets apart, a different three per source.
        Stored::Lists => (every_other(&|i| vec![i, i + 20_000, i + 40_000]), 60_000),
        Stored::SingleTargets => (every_other(&|i| vec![[1, 5, 9, 13][i as usize % 4]]), 16),
        Stored::ListDictionary => {
            let templates = [[2, 7, 30, 41], [3, 7, 33, 60], [0, 9, 30, 62]];
            (every_other(&|i| templates[i as usize % 3].to_vec()), 64)
        }
    }
}

/// What one cold admission allocates — the parse, the cache's header and
/// the `Arc` around it, and the first decode, into buffers grown on another
/// copy of the graph — per kind of entry, over a blob sliced (outside the
/// count, as the handle's open reads it) from a resident image, at 1 k, 4 k and 16 k lists and
/// with `sources` of 1 (four for a list dictionary, which one list never
/// takes) and 10 000 entries. The arena and the scan's list lengths are
/// allocated once each, at their size: a directory or body grown as it is
/// read, or built per list, breaks the equality and the counts.
///
/// The parent of the arena counted, over the same sizes: intranode graph 3
/// (offsets, the scan's lengths, `Arc`); list stream 4 (`sources`, `Arc`,
/// then at the first hit offsets and lengths); single-target dictionary 4
/// (`sources`, `Arc`, then targets and indexes); list dictionary 5
/// (`sources`, `Arc`, then offsets, lengths and indexes); negative graph 3
/// (offsets, lengths, `Arc`); fanout 5 to 10 (row starts, rows, a copy of
/// the starts, `Arc`, and `always` grown one doubling at a time).
#[test]
fn a_cold_admission_allocates_a_fixed_number_of_times_per_graph() {
    let (mut scratch, mut out) = (DecodeScratch::default(), Vec::new());
    // The bytes, as the cache's read hands them over, and the admission of
    // a graph over them; list `local` decoded once first.
    let image = |bytes: &[u8]| {
        Region::from_vec(bytes.to_vec())
            .slice(0, bytes.len())
            .unwrap()
    };
    let mut admit = |bytes: &[u8], admit: &dyn Fn(Blob) -> CachedGraph, local: u32| {
        let warm = admit(image(bytes));
        warm.decode_list_into(local, &mut scratch, &mut out)
            .unwrap();
        let read = image(bytes);
        let (n, decoded) = counted(|| {
            let graph = Arc::new(admit(read));
            graph.decode_list_into(local, &mut scratch, &mut out)
        });
        decoded.unwrap();
        n
    };
    for n in [1_000u32, 4_000, 16_000] {
        let lists = similar_lists(n);
        let enc = encode_lists(&lists, u64::from(n), RefMode::Windowed(32), ListCodec);
        let intra = |bytes: Blob| {
            let universe = Universe::SameAsCount;
            let index = ListsIndex::parse(&bytes, enc.bit_len, universe, ListCodec);
            CachedGraph::new_encoded_intra(bytes, enc.bit_len, index.unwrap())
        };
        assert_eq!(
            admit(&enc.bytes, &intra, 0),
            3,
            "intranode graph of {n} lists"
        );
    }
    let sizes: &[u32] = &[1, 1_000, 4_000, 10_000, 16_000];
    // (what, stored as, negative, allocations, sources)
    let shapes: [(&str, Stored, bool, u64, &[u32]); 4] = [
        ("list stream", Stored::Lists, false, 4, sizes),
        ("single targets", Stored::SingleTargets, false, 3, sizes),
        (
            "list dictionary",
            Stored::ListDictionary,
            false,
            4,
            &[4, 1_000, 4_000, 16_000],
        ),
        (
            "negative graph",
            Stored::Lists,
            true,
            3,
            &[1_000, 4_000, 16_000],
        ),
    ];
    for (name, layout, negative, want, sizes) in shapes {
        for &sources in sizes {
            let (dense, nj) = superedge_of(layout, negative, sources);
            let ni = dense.len() as u64;
            let policy = SuperedgePolicy::EncodedSize;
            let enc = encode_superedge(&dense, nj, RefMode::None, policy);
            let index = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, ni, nj, ListCodec).unwrap();
            assert_eq!(index.layout(), layout, "{name} of {sources} sources");
            assert_eq!(index.kind == SuperedgeKind::Negative, negative, "{name}");
            let graph = |bytes: Blob| {
                let index = SuperedgeIndex::parse(&bytes, enc.bit_len, ni, nj, ListCodec);
                CachedGraph::new_encoded_super(bytes, enc.bit_len, index.unwrap(), nj)
            };
            assert_eq!(
                admit(&enc.bytes, &graph, 0),
                want,
                "{name} of {sources} sources"
            );
        }
    }
    // A fanout: the page's rows, `always`, the row starts and one target
    // value per slot in one arena — every fourth positive graph has one
    // target, up to page 1 800 of its supernode.
    for (pages, negatives) in [(1_000u32, 1usize), (4_000, 10), (16_000, 100)] {
        let positive: Vec<Vec<u32>> = (0..40u32)
            .map(|k| (0..pages).filter(|p| (p + k) % 7 == 0).collect())
            .collect();
        let graphs: Vec<Option<&[u32]>> = (positive.iter().map(|s| Some(&s[..])))
            .chain(std::iter::repeat_n(None, negatives))
            .collect();
        let targets: Vec<Option<u32>> =
            (0..40u32).map(|k| (k % 4 == 0).then_some(k * 50)).collect();
        let (n, fanout) = counted(|| {
            let built = Fanout::build(pages, graphs.iter().copied(), &targets).unwrap();
            Arc::new(CachedGraph::from(built))
        });
        assert_eq!(
            n, 2,
            "fanout of {pages} pages, {negatives} graphs every page consults"
        );
        let fanout = fanout.as_fanout().unwrap();
        assert_eq!(fanout.always().len(), negatives);
        let answered = (0..40).filter(|&k| fanout.target(k).is_some());
        assert_eq!(answered.count(), 10, "one-target slots");
    }
}

/// A count the bytes cannot back — a positive graph's `sources`, a
/// dictionary's entries, a list stream's lists, a negative graph's or an
/// intranode graph's lists — is refused at parse before anything is sized
/// by it: an error, no panic, and no allocation above the blob's bound,
/// twelve bytes a bit (an arena word per source, per index and per entry
/// or offset, each backed by a bit at least). The forged counts would
/// have asked for 240 KB to 4 TB. (Through a handle, that parse is the
/// probe that first draws on the graph:
/// `forged_dictionary_count_without_a_manifest_fails_the_first_probe_that_draws_on_the_graph_and_none_that_does_not`.)
#[test]
fn forged_counts_are_refused_before_the_arena_is_sized() {
    let graph = |head: &dyn Fn(&mut BitWriter)| {
        let mut w = BitWriter::new();
        head(&mut w);
        w.write_bits(0, 64);
        w.finish()
    };
    let positive = |marker: &[bool], sources: &[u64]| {
        let marker = marker.to_vec();
        let sources = sources.to_vec();
        move |w: &mut BitWriter| {
            w.write_bit(false);
            marker.iter().for_each(|&bit| w.write_bit(bit));
            sources.iter().for_each(|&code| codes::write_gamma(w, code));
        }
    };
    // (what is forged, the bytes, |Ni|). The γ codes after a count of two
    // stand in for `sources` 2 and 5: a minimal-binary first entry over
    // nine reads `010` as 2, and a γ gap `011` is 2.
    let negative = |w: &mut BitWriter| {
        w.write_bit(true);
        codes::write_gamma(w, 1 << 30);
        w.write_bit(false);
    };
    let cases = [
        // 60 000 sources claimed, two-bit gaps at most behind them.
        (
            "sources",
            graph(&positive(&[false, false], &[60_000])),
            100_000,
        ),
        // Sources 2 and 5 of nine, then 2⁴⁰ dictionary entries.
        (
            "dictionary entries",
            graph(&positive(&[true], &[2, 1, 2, 1 << 40])),
            9,
        ),
        // Sources 2 and 5, then a stream of 2²⁰ lists for them.
        (
            "list stream lists",
            graph(&positive(&[false, false], &[2, 1, 2, 1 << 20])),
            9,
        ),
        // 2³⁰ lists, as many as the supernode has pages, in 64 bits.
        ("negative lists", graph(&negative), 1 << 30),
    ];
    let bound = |bit_len: u64| 12 * bit_len as usize + 16;
    for (forged, (bytes, bit_len), ni) in cases {
        let (most, parsed) = largest(|| SuperedgeIndex::parse(&bytes, bit_len, ni, 16, ListCodec));
        assert!(parsed.is_err(), "{forged}: {parsed:?}");
        assert!(most <= bound(bit_len), "{forged}: asked for {most} bytes");
    }
    // And an intranode graph's 2²⁴ lists.
    let (bytes, bit_len) = graph(&|w: &mut BitWriter| {
        codes::write_gamma(w, 1 << 24);
        w.write_bit(false);
    });
    let universe = Universe::SameAsCount;
    let (most, parsed) = largest(|| ListsIndex::parse(&bytes, bit_len, universe, ListCodec));
    assert!(parsed.is_err(), "intranode lists: {parsed:?}");
    assert!(
        most <= bound(bit_len),
        "intranode lists: asked for {most} bytes"
    );
}
