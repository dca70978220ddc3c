//! The zero-allocation contract (SN202), executed and counted by the
//! allocator itself: once one pass has filled the graph cache, grown the
//! handle's decode buffers and fed the list memos, `out_neighbors_into` and
//! a repeated `out_neighbors_batch` answer without a single heap
//! allocation; and encoding or parsing a list stream allocates per call,
//! never per list.

// Test code: unwrap on setup failure is the desired behaviour. The counting
// allocator is the one piece of `unsafe` this workspace has: `GlobalAlloc`
// cannot be implemented without it.
#![allow(clippy::unwrap_used)]
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::snode::refenc::{encode_lists, ListsIndex, RefMode, Universe};
use webgraph_repr::snode::{build_snode, ListCodec, Renumbering, RepoInput, SNode, SNodeConfig};

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread: what the test harness does
/// on its own threads meanwhile is not the probe's doing.
struct Counting;

fn count_one() {
    // Not during thread teardown, when the slot may be gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter is a `const`
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this wrapper, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_warm_probe_allocates_nothing() {
    let corpus = Corpus::generate(CorpusConfig::scaled(5_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir = std::env::temp_dir().join(format!("wg_zero_alloc_{}", std::process::id()));
    // The default format: `g+st`, every superedge layout in play.
    build_snode(input, &SNodeConfig::default(), &dir).unwrap();
    let renum = Renumbering::read(&dir).unwrap();
    let n = corpus.num_pages();
    // The corpus graph in the directory's page ids.
    let truth: Vec<Vec<u32>> = (0..n)
        .map(|new| {
            let old = renum.old_of_new[new as usize];
            let mut list: Vec<u32> = (corpus.graph.neighbors(old).iter())
                .map(|&t| renum.new_of_old[t as usize])
                .collect();
            list.sort_unstable();
            list
        })
        .collect();
    let batch: Vec<u32> = (0..64).map(|i| i * (n / 64) + i % 7).collect();

    let budget = 256 << 20;
    let handles = [
        ("open_resident", SNode::open_resident(&dir, budget).unwrap()),
        ("open", SNode::open(&dir, budget).unwrap()),
    ];
    for (how, snode) in &handles {
        let mut out = Vec::new();
        let mut wrong = 0usize;
        // The filling pass: every graph cached, every buffer grown.
        for p in 0..n {
            snode.out_neighbors_into(p, &mut out).unwrap();
        }
        let before = allocations();
        for p in 0..n {
            snode.out_neighbors_into(p, &mut out).unwrap();
            wrong += usize::from(out != truth[p as usize]);
        }
        let scalar = allocations() - before;
        assert_eq!(wrong, 0, "{how}: answers differ from the corpus graph");
        assert_eq!(scalar, 0, "{how}: allocations over {n} warm probes");

        let mut check = |p: u32, list: &[u32]| wrong += usize::from(list != truth[p as usize]);
        snode.out_neighbors_batch(&batch, &mut check).unwrap();
        let before = allocations();
        for _ in 0..3 {
            snode.out_neighbors_batch(&batch, &mut check).unwrap();
        }
        let batched = allocations() - before;
        assert_eq!(wrong, 0, "{how}: batched answers differ from the corpus");
        assert_eq!(batched, 0, "{how}: allocations over three warm batches");
        assert_eq!(snode.cache_stats().evictions, 0, "{how}: nothing was cold");
    }
    std::fs::remove_dir_all(&dir).ok();
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
            let enc = encode_lists(&lists, u64::from(n), mode, ListCodec::GAMMA);
            counts.push(allocations() - before);
            let before = allocations();
            let parsed = ListsIndex::parse(
                &enc.bytes,
                enc.bit_len,
                Universe::SameAsCount,
                ListCodec::GAMMA,
            );
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
