//! The zero-allocation contract of the warm read path, executed: once one
//! pass has filled the graph cache, grown the handle's decode buffers and
//! fed the list memos, `out_neighbors_into` and a repeated
//! `out_neighbors_batch` answer without a single heap allocation — counted
//! by the allocator itself, where SN202 only reads function bodies.

// Test code: unwrap on setup failure is the desired behaviour. The counting
// allocator is the one piece of `unsafe` this workspace has: `GlobalAlloc`
// cannot be implemented without it.
#![allow(clippy::unwrap_used)]
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::snode::{build_snode, Renumbering, RepoInput, SNode, SNodeConfig};

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

/// One test, so that nothing else in this process shares the handles.
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
