//! The queryable S-Node handle.
//!
//! [`SNode`] is the one reader of a directory: the supernode graph, PageID
//! index and domain index stay resident; intranode and superedge graphs
//! are read by locator from the index files (held resident, as the paper
//! holds the supernode graph, and charged to the simulated disk per read),
//! checksummed, parsed, and held in a byte-budgeted [`GraphCache`], beside
//! a per-supernode [`Fanout`] that tells a probe which of them to ask.
//! The §4.3 query experiments open it under their memory cap; Table 2 and
//! the global-access path (§1.2) open it with a budget the whole directory
//! fits, so after one pass no access pays a load. Under such a budget the
//! handle *pins* ([`pin_bound`]): each graph and fanout has a slot of its
//! own, filled once, and a warm read is one load of it — no lock, hash or
//! recency stamp, since nothing would ever be evicted.

use crate::cache::{
    intra_charge, CacheEvent, CachedGraph, Fanout, GraphCache, GraphCacheStats, GraphKey, Lookup,
    LEAST_CHARGE,
};
use crate::codec::ListCodec;
use crate::disk::{Blob, GraphLocator, IndexFileReader, ResidentIndex, Row};
use crate::integrity::{IntegrityCounters, IntegrityManifest};
use crate::refenc::{DecodeScratch, ListsIndex, Universe};
use crate::subgraphs::{scan_sources, scan_sources_of, Scanned, SuperedgeIndex};
use crate::{Result, SNodeError};
use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wg_graph::PageId;
use wg_obs::{record_span, Stopwatch};

/// What graceful degradation cost a representation so far.
///
/// Semantics: a **quarantined supernode** is one with at least one
/// checksum- or decode-damaged graph (its intranode graph or one of its
/// outgoing superedge graphs); a **skipped edge part** is one
/// adjacency-list contribution (one intranode or superedge list access)
/// omitted from an answer because its graph is quarantined. Parts are the
/// unit because a damaged blob cannot be decoded to count the exact edges
/// it held — nor, for a superedge graph, which pages it held lists for, so
/// every access to the supernode counts it (its slot sits in the
/// supernode's [`Fanout`] among those every page consults). `retries`
/// counts transient read errors absorbed by the I/O shim's bounded backoff
/// since the representation was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedReport {
    /// Distinct supernodes with at least one quarantined graph.
    pub quarantined_supernodes: u64,
    /// Adjacency-list parts omitted from answers due to quarantine.
    pub skipped_edges: u64,
    /// Transient read errors retried successfully since open.
    pub retries: u64,
}

impl DegradedReport {
    /// True when no answer was affected by quarantine.
    pub fn is_clean(&self) -> bool {
        self.quarantined_supernodes == 0 && self.skipped_edges == 0
    }
}

/// Which graph a quarantine event targets.
#[derive(Debug, Clone, Copy)]
enum Quarantine {
    Intra(u32),
    Super(u32, u32),
}

/// Registry counters for quarantine events, created only when metrics
/// were enabled at open time. Incremented on *new* events (first
/// quarantine of a supernode, each skipped part), so snapshot deltas give
/// accurate per-query degradation counts.
#[derive(Debug)]
struct DegradeCounters {
    quarantined_supernodes: wg_obs::Counter,
    skipped_edges: wg_obs::Counter,
}

/// Quarantine bookkeeping, present only in degraded-open mode.
#[derive(Debug)]
struct DegradeState {
    quarantined_intra: HashSet<u32>,
    quarantined_super: HashSet<(u32, u32)>,
    quarantined_sn: HashSet<u32>,
    skipped_parts: u64,
    global: Option<DegradeCounters>,
}

impl DegradeState {
    fn new() -> Self {
        let global = if wg_obs::metrics_enabled() {
            let reg = wg_obs::global();
            Some(DegradeCounters {
                quarantined_supernodes: reg.counter("integrity.quarantined_supernodes"),
                skipped_edges: reg.counter("integrity.skipped_edges"),
            })
        } else {
            None
        };
        Self {
            quarantined_intra: HashSet::new(),
            quarantined_super: HashSet::new(),
            quarantined_sn: HashSet::new(),
            skipped_parts: 0,
            global,
        }
    }

    fn mark_supernode(&mut self, s: u32) {
        if self.quarantined_sn.insert(s) {
            if let Some(g) = &self.global {
                g.quarantined_supernodes.inc();
            }
        }
    }

    fn skip(&mut self) {
        self.skipped_parts += 1;
        if let Some(g) = &self.global {
            g.skipped_edges.inc();
        }
    }
}

/// Registry counters for the navigation path, created only when metrics
/// were enabled at open time (the `core.nav.*` names of the paper's
/// per-query access quantities).
#[derive(Debug)]
struct NavCounters {
    calls: wg_obs::Counter,
    supernodes_visited: wg_obs::Counter,
    intra_lists_decoded: wg_obs::Counter,
    super_lists_decoded: wg_obs::Counter,
    batched_lookups: wg_obs::Counter,
}

impl NavCounters {
    fn auto() -> Option<Self> {
        if !wg_obs::metrics_enabled() {
            return None;
        }
        let reg = wg_obs::global();
        Some(Self {
            calls: reg.counter("core.nav.calls"),
            supernodes_visited: reg.counter("core.nav.supernodes_visited"),
            intra_lists_decoded: reg.counter("core.nav.intra_lists_decoded"),
            super_lists_decoded: reg.counter("core.nav.super_lists_decoded"),
            batched_lookups: reg.counter("core.nav.batched_lookups"),
        })
    }
}

/// One graph the current group's pages draw on.
#[derive(Debug)]
struct Part {
    /// First page id of the range the graph's local targets count from.
    start: u32,
    /// Out-superedge slot, or [`INTRA_SLOT`] for the intranode graph.
    slot: u32,
    /// Target supernode (the group's own for the intranode graph).
    j: u32,
    /// Consulted by every page of the group — the intranode graph, a
    /// quarantined superedge graph — rather than only by the pages
    /// whose fanout row names `slot`.
    always: bool,
    answer: Answer,
}

/// What a [`Part`] adds to the answer of a page that draws on it.
#[derive(Debug)]
enum Answer {
    /// The page's list in this graph.
    Graph(Arc<CachedGraph>),
    /// The page's list in the graph pinned in this slot of the batch's
    /// [`Pins`], read in place.
    Pinned(usize),
    /// The one local target of a single-target dictionary of one entry,
    /// the same for every page it lists: the fanout's, with no graph
    /// looked up.
    Target(u32),
    /// Nothing: the graph is quarantined, and each page that consults it
    /// counts a skip.
    Skipped,
}

/// [`Part::slot`] of the intranode graph; a supernode's row of the
/// supernode graph never has this many entries.
const INTRA_SLOT: u32 = u32::MAX;

/// An out-superedge graph as a fanout build read it: the checksummed
/// blob, scanned as far as its `sources` and not parsed.
type ParsedSuperedge = Blob;

/// Reusable buffers of the batched navigation path, kept on the handle so
/// steady-state BFS levels allocate nothing new.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Input positions sorted by page id (groups pages per supernode).
    order: Vec<u32>,
    /// Per input position of a batch, the assembled adjacency list.
    results: Vec<Vec<PageId>>,
    /// One decoded local list at a time, and what decoding it takes.
    tmp: Vec<u32>,
    decode: DecodeScratch,
    /// The out-superedge slots the current group's pages draw on.
    slots: Vec<u32>,
    /// The current group's graphs, in ascending order of `start`.
    parts: Vec<Part>,
    /// After a fanout miss: every out-superedge graph of the current
    /// group's supernode as the build read it, by slot (`None`:
    /// quarantined, or already moved into the cache). Empty otherwise.
    parsed: Vec<Option<ParsedSuperedge>>,
    /// What a fanout build works from: the `sources` of the supernode's
    /// positive out-superedge graphs end to end, and per slot where its
    /// graph's lie (`None`: a graph every page consults) and its one
    /// target (see [`Fanout::target`]).
    sources: Vec<u32>,
    ranges: Vec<Option<std::ops::Range<usize>>>,
    targets: Vec<Option<u32>>,
    /// After a fanout miss the cache declined: the current group's
    /// distinct local pages, ascending, whose ranks number the rows of
    /// the fanout built for them.
    group: Vec<u32>,
    /// The pinned slots this scratch was last handed out with (`None`
    /// unless the handle pins): kept across calls, so a call takes no
    /// reference count, and replaced when the handle's are.
    pins: Option<Arc<Pins>>,
}

/// What a miss does with the graph it built ([`SNode::keep`]).
#[derive(Clone, Copy)]
enum Keep<'p> {
    /// Offers it to the cache or, for a miss the cache declined (`true`),
    /// hands it only to the probe that built it.
    Offer(bool),
    /// Fills it into this pinned slot.
    Pin(&'p Pins, usize),
}

/// A graph or fanout as a probe holds it: out of the cache, or borrowed
/// from its pinned slot.
enum Held<'p> {
    Cached(Arc<CachedGraph>),
    Pinned(&'p CachedGraph),
}

impl Deref for Held<'_> {
    type Target = CachedGraph;

    fn deref(&self) -> &CachedGraph {
        match self {
            Held::Cached(graph) => graph,
            Held::Pinned(graph) => graph,
        }
    }
}

/// One slot per graph and fanout of a pinning handle — one per graph and
/// one per supernode, a supernode's together ([`SNode::pin_slot`]); each
/// is filled once, by the first probe that misses it, with what a cache
/// miss builds.
#[derive(Debug)]
struct Pins {
    slots: Box<[OnceLock<Arc<CachedGraph>>]>,
}

impl Pins {
    fn empty(slots: usize) -> Self {
        Self {
            slots: (0..slots).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The graph in `slot`, once it is filled.
    fn graph(&self, slot: usize) -> Option<&CachedGraph> {
        self.slots.get(slot)?.get().map(|graph| &**graph)
    }

    /// Fills `slot` with `graph`, unless a concurrent miss filled it
    /// first: both built the same graph from the same bytes.
    fn fill(&self, slot: usize, graph: CachedGraph) {
        if let Some(cell) = self.slots.get(slot) {
            let _ = cell.set(Arc::new(graph));
        }
    }

    /// These slots, sharing every graph but the one in `slot`.
    fn without(&self, slot: usize) -> Self {
        let copy = |(i, cell): (usize, &OnceLock<Arc<CachedGraph>>)| {
            let kept = cell.get().filter(|_| i != slot);
            kept.map_or_else(OnceLock::new, |graph| OnceLock::from(Arc::clone(graph)))
        };
        Self {
            slots: self.slots.iter().enumerate().map(copy).collect(),
        }
    }
}

/// The handle's scratch buffers not in use, and the pinned slots a call
/// reads (`None` unless the handle pins).
#[derive(Debug, Default)]
struct Pool {
    free: Vec<BatchScratch>,
    pins: Option<Arc<Pins>>,
}

/// Whether `a` and `b` are the same slots, or both none.
fn same_pins(a: &Option<Arc<Pins>>, b: &Option<Arc<Pins>>) -> bool {
    a.as_ref().map(Arc::as_ptr) == b.as_ref().map(Arc::as_ptr)
}

/// An upper bound on what every intranode graph, superedge graph and
/// fanout of a directory is charged together ([`CachedGraph::bytes`]),
/// from its totals alone — `supernodes`, `superedges`, `pages` and the
/// index files' `file_bytes` — so that a budget covering it holds all of
/// them at once and nothing need ever be evicted. It holds for every
/// directory an open accepts, whatever its graphs claim, because every
/// arena value is at most a word (4 bytes, [`crate::section::Width`]) and
/// all but a few per graph are backed by bits of the graph they came
/// from — bits the parse checks are there before it sizes anything:
///
/// * per graph and per fanout, the value itself and one word (an end
///   sentinel, a single target); per fanout besides, a row start per page
///   and per out-superedge an `always` slot and a target value;
/// * an intranode graph's offsets: a list takes two bits at least, so
///   half a word a bit;
/// * a superedge graph's sources, indexes, entries and offsets: a source
///   takes a bit at least, as do an index among two entries or more and
///   an entry of a single-target dictionary, and a stored list two — a
///   word a bit;
/// * a fanout's rows: one slot per source of its graphs, a word a bit.
///
/// A graph that does not read is never charged, and those that do lie in
/// disjoint ranges of the files: 8 bytes a bit bounds all of it, 64 a
/// file byte. The bound is loose — 48.7 MB at 100 000 pages (seed 42)
/// and 145 MB at 300 000, where every graph and fanout is charged 2.3 and
/// 6.9 MB — but it is a bound, and `nav-100k` and `build-300k`'s warm
/// 256 MiB handles and Table 2's 1 GiB one cover it.
fn pin_bound(supernodes: u64, superedges: u64, pages: u64, file_bytes: u64) -> u64 {
    const WORD: u64 = 4;
    let fixed = (2 * supernodes + superedges) * (LEAST_CHARGE as u64 + WORD);
    let fanout_rows = WORD * pages + 2 * WORD * superedges;
    fixed + fanout_rows + file_bytes.saturating_mul(2 * WORD * 8)
}

/// A directory as [`SNode`] opens it: `meta.bin` checked against
/// `sums.bin` and decoded into its flat resident index (which numbers the
/// blobs in the builder's linear order), and the index files resident. Its
/// one per-blob check: a blob is checksummed the first time it is read
/// whole in this open, since the resident image it is sliced from cannot
/// change after that.
#[derive(Debug)]
struct OpenDir {
    index: ResidentIndex,
    files: IndexFileReader,
    /// Per-blob CRCs and file sums from `sums.bin`; `None` only in a
    /// degraded open of a directory without a usable one (unverified).
    manifest: Option<IntegrityManifest>,
    /// One bit per blob, set once the blob has matched its CRC in this
    /// open; a blob that fails stays clear and is checked again.
    verified: Box<[AtomicU64]>,
    integrity: IntegrityCounters,
}

impl OpenDir {
    /// Strict: a manifest that is missing, does not read, or does not
    /// number the directory's blobs is an error — every build writes one.
    /// With `degrade`, the directory opens unverified instead (a manifest
    /// that is there but unusable counts a failure). `meta.bin` must
    /// verify either way: it is the index everything else hangs off.
    fn open(dir: &Path, degrade: bool) -> Result<Self> {
        let integrity = IntegrityCounters::new();
        let t = Stopwatch::start();
        let manifest = match IntegrityManifest::read(dir) {
            Ok(None) if !degrade => {
                return Err(SNodeError::Corrupt(
                    "no integrity manifest (sums.bin): rebuild the directory",
                ))
            }
            Ok(m) => m,
            Err(_) if degrade => {
                integrity.failure();
                None
            }
            Err(e) => return Err(e),
        };
        record_span("core.open.manifest", "core", &t);
        let t = Stopwatch::start();
        let meta_buf = crate::disk::read_whole_file(&dir.join("meta.bin"))?;
        if let Some(m) = &manifest {
            integrity.check();
            if let Err(e) = m.check_file_bytes("meta.bin", &meta_buf) {
                integrity.failure();
                return Err(e);
            }
        }
        record_span("core.open.meta", "core", &t);
        let t = Stopwatch::start();
        let index = ResidentIndex::parse(meta_buf)?;
        record_span("core.open.index", "core", &t);
        let blobs = index.num_blobs();
        let manifest = match manifest {
            Some(m) if m.blob_crc.len() as u64 != blobs => {
                integrity.failure();
                if degrade {
                    None
                } else {
                    return Err(SNodeError::Corrupt(
                        "integrity manifest blob count mismatch",
                    ));
                }
            }
            other => other,
        };
        let t = Stopwatch::start();
        let files = IndexFileReader::open_holding(dir, blobs)?;
        record_span("core.open.files", "core", &t);
        Ok(Self {
            files,
            index,
            manifest,
            verified: (0..blobs.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            integrity,
        })
    }

    /// Reads one blob and, the first time it is read in this open,
    /// verifies it against the manifest when present.
    fn load_blob(&self, loc: &GraphLocator, blob_idx: u64) -> Result<Blob> {
        let bytes = self.files.read_blob(loc)?;
        if let Some(m) = &self.manifest {
            if self.is_verified(blob_idx) {
                return Ok(bytes);
            }
            self.integrity.check();
            let expected = m
                .blob_crc
                .get(blob_idx as usize)
                .copied()
                .ok_or(SNodeError::Corrupt("blob index beyond manifest table"))?;
            if wg_fault::crc32c(&bytes) != expected {
                self.integrity.failure();
                return Err(SNodeError::Corrupt("graph blob checksum mismatch"));
            }
            self.mark_verified(blob_idx);
        }
        Ok(bytes)
    }

    /// Whether blob `blob_idx` has matched its CRC in this open.
    fn is_verified(&self, blob_idx: u64) -> bool {
        let word = self.verified.get((blob_idx / 64) as usize);
        word.is_some_and(|w| w.load(Ordering::Relaxed) & 1 << (blob_idx % 64) != 0)
    }

    fn mark_verified(&self, blob_idx: u64) {
        if let Some(w) = self.verified.get((blob_idx / 64) as usize) {
            w.fetch_or(1 << (blob_idx % 64), Ordering::Relaxed);
        }
    }
}

/// Disk-backed S-Node representation with a memory-budgeted graph cache.
///
/// The handle is `Sync`: everything read at open (the metadata, the
/// resident index files, the manifest) is immutable, and all query-time
/// mutation lives in the sharded [`GraphCache`] or the pinned slots, the
/// scratch-buffer pool and the lock-guarded quarantine state — so any
/// number of threads can navigate one shared handle through `&self`
/// (DESIGN.md §5f).
#[derive(Debug)]
pub struct SNode {
    dir: OpenDir,
    cache: GraphCache,
    /// Whether the budget covers [`pin_bound`], and graphs are read from
    /// pinned slots rather than through `cache` (whose counters and log
    /// they still feed).
    pinned: bool,
    nav: Option<NavCounters>,
    /// Pool of reusable batch buffers: a navigation call pops one (or
    /// starts fresh), runs, and returns it, so the steady state of N
    /// concurrent readers holds N warm scratches and allocates nothing.
    scratch: Mutex<Pool>,
    degrade: Option<RwLock<DegradeState>>,
    /// The shim's retry count before the open's first read.
    retries_at_open: u64,
}

impl SNode {
    /// Opens the representation under `dir` with a decoded-graph budget of
    /// `cache_budget_bytes` (the experiment's memory cap, §4.3). The index
    /// files are read whole at open and held resident: graph loads borrow
    /// slices of one shared immutable image per file (the `mmap` analogue
    /// under the workspace's `forbid(unsafe_code)` — see
    /// [`wg_store::Region`]), at the cost of [`SNode::resident_bytes`].
    ///
    /// A budget that covers what every graph and fanout of the directory
    /// could be charged together pins them instead ([`SNode::pins_graphs`]).
    ///
    /// Strict mode: a directory without `sums.bin` is `Corrupt` ("rebuild
    /// the directory"), and any checksum or decode failure is an error.
    pub fn open_resident(dir: &Path, cache_budget_bytes: usize) -> Result<Self> {
        Self::open_mode(dir, cache_budget_bytes, false)
    }

    /// Opens with graceful degradation: a damaged intranode or superedge
    /// graph is quarantined instead of failing the query, answers omit its
    /// contribution, and [`SNode::degraded`] reports what was skipped.
    /// The resident metadata (`meta.bin`) must still verify — it is the
    /// index everything else hangs off, so there is nothing to degrade to.
    pub fn open_degraded(dir: &Path, cache_budget_bytes: usize) -> Result<Self> {
        Self::open_mode(dir, cache_budget_bytes, true)
    }

    fn open_mode(dir: &Path, cache_budget_bytes: usize, degrade: bool) -> Result<Self> {
        let retries_at_open = wg_fault::retries_performed();
        let dir = OpenDir::open(dir, degrade)?;
        let t = Stopwatch::start();
        let index = &dir.index;
        let (supernodes, blobs) = (u64::from(index.num_supernodes()), index.num_blobs());
        let bound = pin_bound(
            supernodes,
            blobs - supernodes,
            u64::from(index.num_pages()),
            dir.files.resident_bytes(),
        );
        let pinned = cache_budget_bytes as u64 >= bound;
        let pins = pinned.then(|| Arc::new(Pins::empty((blobs + supernodes) as usize)));
        let snode = Self {
            dir,
            cache: GraphCache::new(cache_budget_bytes),
            pinned,
            nav: NavCounters::auto(),
            scratch: Mutex::new(Pool {
                free: Vec::new(),
                pins,
            }),
            degrade: degrade.then(|| RwLock::new(DegradeState::new())),
            retries_at_open,
        };
        record_span("core.open.handle", "core", &t);
        Ok(snode)
    }

    /// Groups of [`crate::disk::ResidentIndex`] decoded so far: none at
    /// open, one more each time a probe first touches a supernode of a
    /// group no probe has touched (`core.open.groups_decoded` counts them
    /// across handles).
    pub fn groups_decoded(&self) -> usize {
        self.dir.index.groups_decoded()
    }

    /// Whether the handle pins: its budget covers what every graph and
    /// fanout of the directory could be charged together, so each is read
    /// from a slot of its own, filled by its first miss and never
    /// evicted, with no cache lookup. Decided at open; the answers, and
    /// what [`SNode::cache_stats`] counts, are the cache's either way.
    pub fn pins_graphs(&self) -> bool {
        self.pinned
    }

    /// Degradation summary: quarantined supernodes, skipped adjacency
    /// parts, and transient-read retries since the open began (the open
    /// is where the handle reads through the shim). All zeros (except
    /// possibly retries) for a clean directory or a strict open.
    pub fn degraded(&self) -> DegradedReport {
        let retries = wg_fault::retries_performed().saturating_sub(self.retries_at_open);
        match &self.degrade {
            Some(d) => {
                let d = d.read();
                DegradedReport {
                    quarantined_supernodes: d.quarantined_sn.len() as u64,
                    skipped_edges: d.skipped_parts,
                    retries,
                }
            }
            None => DegradedReport {
                retries,
                ..DegradedReport::default()
            },
        }
    }

    /// Integrity verifications performed and failed by this handle:
    /// `meta.bin` at open, then each blob at its first read — a blob read
    /// again after an eviction is not checked again, one that failed is.
    pub fn integrity_stats(&self) -> (u64, u64) {
        (self.dir.integrity.checks(), self.dir.integrity.failures())
    }

    /// Whether blob reads are verified against an integrity manifest.
    pub fn verifies_checksums(&self) -> bool {
        self.dir.manifest.is_some()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> u32 {
        self.dir.index.num_pages()
    }

    /// Number of supernodes.
    pub fn num_supernodes(&self) -> u32 {
        self.dir.index.num_supernodes()
    }

    /// The resident index: the PageID index, the supernode graph, the
    /// graph locators and the domain index, as `meta.bin` holds them.
    pub fn index(&self) -> &ResidentIndex {
        &self.dir.index
    }

    /// Supernode owning page `p`.
    pub fn supernode_of(&self, p: PageId) -> u32 {
        self.dir.index.supernode_of(p)
    }

    /// Page-id range of supernode `s`.
    pub fn page_range(&self, s: u32) -> std::ops::Range<u32> {
        self.dir.index.page_range(s)
    }

    /// Supernodes holding pages of `domain` (from the resident domain
    /// index).
    pub fn supernodes_of_domain(&self, domain: u32) -> &[u32] {
        self.dir.index.supernodes_of_domain(domain)
    }

    /// All page ids of `domain` (union of its supernodes' ranges).
    pub fn pages_in_domain(&self, domain: u32) -> Vec<PageId> {
        let mut out = Vec::new();
        for &s in self.supernodes_of_domain(domain) {
            out.extend(self.page_range(s));
        }
        out.sort_unstable();
        out
    }

    /// The complete adjacency list of page `p`, assembled from the
    /// intranode graph of its supernode and the out-superedge graphs its
    /// supernode's [`Fanout`] names for it — exactly the paper's
    /// observation that "the adjacency list of a page is partitioned
    /// across an intranode graph and a set of one or more superedge
    /// graphs".
    pub fn out_neighbors(&self, p: PageId) -> Result<Vec<PageId>> {
        let mut out = Vec::new();
        self.out_neighbors_into(p, &mut out)?;
        Ok(out)
    }

    /// [`SNode::out_neighbors`] into the caller's buffer: clears `out` and
    /// fills it with the sorted adjacency list of `p`. Every list is
    /// decoded in buffers the handle keeps and offset straight into `out`:
    /// once those and `out` have grown to the lists they meet, a probe
    /// whose graphs are cached allocates nothing.
    pub fn out_neighbors_into(&self, p: PageId, out: &mut Vec<PageId>) -> Result<()> {
        self.with_scratch(|scratch, pins| {
            self.batch_run(&[p], std::slice::from_mut(out), false, scratch, pins)
        })
    }

    /// Batched navigation: answers `out_neighbors` for every page in
    /// `pages`, grouping pages of the same supernode so the intranode
    /// graph, the fanout and each superedge graph some page of the group
    /// draws on are looked up (and counted) once.
    /// `visit` is invoked exactly once per input page, **in input order**,
    /// so callers with order-sensitive accumulation (Q1's f64 weights)
    /// observe the same sequence as a scalar loop.
    pub fn out_neighbors_batch(
        &self,
        pages: &[PageId],
        visit: &mut dyn FnMut(PageId, &[PageId]),
    ) -> Result<()> {
        self.with_scratch(|scratch, pins| {
            let mut results = std::mem::take(&mut scratch.results);
            if results.len() < pages.len() {
                results.resize_with(pages.len(), Vec::new);
            }
            let run = self.batch_run(pages, &mut results[..pages.len()], true, scratch, pins);
            if run.is_ok() {
                for (&p, list) in pages.iter().zip(&results) {
                    visit(p, list);
                }
            }
            scratch.results = results;
            run
        })
    }

    /// Decodes the entire representation back into a CSR graph — the
    /// global-access path (§1.2): expand the compressed graph in memory and
    /// run whole-graph algorithms (SCC, PageRank, HITS) as plain
    /// main-memory computations. One batch per supernode, whose page
    /// ranges run from page 0 up: under a budget the directory fits, each
    /// graph is read once.
    pub fn to_graph(&self) -> Result<wg_graph::Graph> {
        let mut lists = Vec::with_capacity(self.num_pages() as usize);
        let mut pages = Vec::new();
        for s in 0..self.num_supernodes() {
            pages.clear();
            pages.extend(self.page_range(s));
            self.out_neighbors_batch(&pages, &mut |_, list| lists.push(list.to_vec()))?;
        }
        Ok(wg_graph::Graph::from_adjacency(lists))
    }

    /// Runs `f` with a scratch from the pool and the handle's pinned
    /// slots, if it pins, and returns the scratch to the pool.
    fn with_scratch<T>(&self, f: impl FnOnce(&mut BatchScratch, Option<&Pins>) -> T) -> T {
        let mut scratch = {
            let mut pool = self.scratch.lock();
            let mut scratch = pool.free.pop().unwrap_or_default();
            if !same_pins(&scratch.pins, &pool.pins) {
                scratch.pins = pool.pins.clone();
            }
            scratch
        };
        let pins = scratch.pins.take();
        let r = f(&mut scratch, pins.as_deref());
        // A pooled scratch must not keep graphs alive past their eviction,
        // nor slots past their replacement.
        scratch.parts.clear();
        scratch.parsed.clear();
        scratch.pins = pins;
        let mut pool = self.scratch.lock();
        if !same_pins(&scratch.pins, &pool.pins) {
            scratch.pins = None;
        }
        pool.free.push(scratch);
        r
    }

    /// Fills `results[i]` (cleared first) with the adjacency list of
    /// `pages[i]`.
    fn batch_run(
        &self,
        pages: &[PageId],
        results: &mut [Vec<PageId>],
        count_batched: bool,
        scratch: &mut BatchScratch,
        pins: Option<&Pins>,
    ) -> Result<()> {
        let n = pages.len();
        scratch.order.clear();
        scratch.order.extend(0..n as u32);
        scratch.order.sort_unstable_by_key(|&i| pages[i as usize]);
        if let Some(&last) = scratch.order.last() {
            check_page(&self.dir.index, pages[last as usize])?;
        }
        for r in results.iter_mut() {
            r.clear();
        }

        let mut g = 0usize;
        while g < n {
            let s = self
                .dir
                .index
                .supernode_of(pages[scratch.order[g] as usize]);
            let range = self.dir.index.page_range(s);
            let mut end = g + 1;
            while end < n && range.contains(&pages[scratch.order[end] as usize]) {
                end += 1;
            }

            // One lookup per graph per group (this is where batching beats
            // the scalar path), and only of the graphs the fanout names
            // for the group's pages.
            let last = pages[scratch.order[end - 1] as usize] - range.start;
            let row = self.dir.index.row(s)?;
            let intra = self.intranode(s, &row, last, pins)?;
            let (fanout, whole) =
                self.fanout(s, &row, (pages, g..end, range.start), scratch, pins)?;
            let fanout = fanout.as_fanout().ok_or(SNodeError::Corrupt(
                "graph cache holds a graph under a fanout key",
            ))?;
            // A fanout built for the group only has a row per page of it.
            let row_of = |group: &[u32], local: u32| match whole {
                true => local,
                false => group.partition_point(|&p| p < local) as u32,
            };
            scratch.slots.clear();
            scratch.slots.extend(fanout.always().iter());
            for gi in g..end {
                let local = pages[scratch.order[gi] as usize] - range.start;
                let own = fanout.slots_of(row_of(&scratch.group, local));
                scratch.slots.extend(own.iter());
            }
            scratch.slots.sort_unstable();
            scratch.slots.dedup();

            scratch.parts.clear();
            scratch.parts.push(Part {
                start: range.start,
                slot: INTRA_SLOT,
                j: s,
                always: true,
                answer: intra,
            });
            let mut looked_up = 0u64;
            for &k in &scratch.slots {
                let j = *row.targets().get(k as usize).ok_or(SNodeError::Corrupt(
                    "fanout slot beyond the supernode's row",
                ))?;
                // Template links are answered from the fanout.
                let answer = match fanout.target(k) {
                    Some(t) => Answer::Target(t),
                    None => {
                        looked_up += 1;
                        let parsed = scratch.parsed.get_mut(k as usize).and_then(Option::take);
                        self.superedge(s, &row, k, j, parsed, pins)?
                    }
                };
                scratch.parts.push(Part {
                    start: self.dir.index.page_range(j).start,
                    slot: k,
                    j,
                    always: matches!(answer, Answer::Skipped) || fanout.always().contains(k),
                    answer,
                });
            }
            // What the build read and no page of the group needs is
            // dropped here, never admitted.
            scratch.parsed.clear();
            // Ranges are disjoint and each local list is sorted, so
            // decoding parts in ascending range-start order yields a
            // globally sorted adjacency list with no final sort.
            scratch.parts.sort_unstable_by_key(|part| part.start);
            if let Some(nav) = &self.nav {
                nav.calls.add((end - g) as u64);
                nav.supernodes_visited.inc();
                nav.intra_lists_decoded.inc();
                nav.super_lists_decoded.add(looked_up);
                if count_batched {
                    // The intranode graph, the fanout, the graphs it named
                    // that it does not answer itself.
                    nav.batched_lookups.add(2 + looked_up);
                }
            }

            for gi in g..end {
                let oi = scratch.order[gi] as usize;
                let local = pages[oi] - range.start;
                let own = fanout.slots_of(row_of(&scratch.group, local));
                for pi in 0..scratch.parts.len() {
                    let part = &scratch.parts[pi];
                    if !part.always && !own.contains(part.slot) {
                        continue;
                    }
                    let graph = match &part.answer {
                        Answer::Graph(graph) => graph,
                        Answer::Pinned(slot) => pins
                            .and_then(|pins| pins.graph(*slot))
                            .ok_or(SNodeError::Corrupt("a probe's pinned graph left its slot"))?,
                        Answer::Target(t) => {
                            results[oi].push(part.start + t);
                            continue;
                        }
                        Answer::Skipped => {
                            self.note_skip();
                            continue;
                        }
                    };
                    match graph.decode_list_into(local, &mut scratch.decode, &mut scratch.tmp) {
                        Ok(()) => {
                            let start = part.start;
                            results[oi].extend(scratch.tmp.iter().map(|&t| start + t));
                        }
                        Err(e) => {
                            let damaged = if part.slot == INTRA_SLOT {
                                Quarantine::Intra(s)
                            } else {
                                Quarantine::Super(s, part.j)
                            };
                            self.quarantine(damaged, e)?;
                            // From here on every access to the supernode
                            // goes without this part, and counts it.
                            let part = &mut scratch.parts[pi];
                            part.answer = Answer::Skipped;
                            part.always = true;
                            self.note_skip();
                        }
                    }
                }
            }
            g = end;
        }
        Ok(())
    }

    /// Cache statistics: under a pinning handle, each slot read counts a
    /// hit and each fill a miss and its charge, as the cache counts them.
    pub fn cache_stats(&self) -> GraphCacheStats {
        self.cache.stats()
    }

    /// Physical graph reads from the index files.
    pub fn disk_reads(&self) -> u64 {
        self.dir.files.read_count()
    }

    /// Clears the decoded-graph cache, or every pinned slot (cold start),
    /// and resets statistics.
    pub fn clear_cache(&self) {
        let old = {
            let mut pool = self.scratch.lock();
            pool.free.iter_mut().for_each(|scratch| scratch.pins = None);
            let old = pool.pins.take();
            pool.pins = (old.as_ref()).map(|old| Arc::new(Pins::empty(old.slots.len())));
            old
        };
        if let Some(old) = old {
            self.log_unpinned(&old);
        }
        self.cache.clear();
        self.cache.reset_stats();
    }

    /// Enables cache event logging.
    pub fn enable_cache_log(&self) {
        self.cache.enable_log();
    }

    /// Drains the cache event log.
    pub fn take_cache_log(&self) -> Vec<CacheEvent> {
        self.cache.take_log()
    }

    /// Bytes pinned by the resident index-file images. Scale benchmarks
    /// subtract this from process RSS to check that *query* memory stays
    /// flat.
    pub fn resident_bytes(&self) -> u64 {
        self.dir.files.resident_bytes()
    }

    /// How many superedge graphs a probe answers from its fanout, never
    /// looking them up: single-target dictionaries of one entry, found by
    /// the scan a fanout build makes of every blob (`wgr stats`).
    pub fn one_target_superedges(&self) -> Result<u64> {
        let (index, mut pool, mut found) = (&self.dir.index, Vec::new(), 0u64);
        for s in 0..index.num_supernodes() {
            let ni = u64::from(index.supernode_size(s));
            let row = index.row(s)?;
            for (k, &j) in (1..).zip(row.targets()) {
                let loc = row.locator(k)?;
                let blob = self.dir.load_blob(&loc, row.intra_blob() + k as u64)?;
                let nj = u64::from(index.supernode_size(j));
                pool.clear();
                let scanned = scan_sources(&blob, loc.bit_len, ni, nj, &mut pool)?;
                found += u64::from(scanned.target.is_some());
            }
        }
        Ok(found)
    }

    /// In degraded mode records the quarantine and succeeds; in strict
    /// mode propagates the failure.
    fn quarantine(&self, q: Quarantine, e: SNodeError) -> Result<()> {
        let Some(d) = &self.degrade else {
            return Err(e);
        };
        let mut d = d.write();
        match q {
            Quarantine::Intra(s) => {
                d.quarantined_intra.insert(s);
                d.mark_supernode(s);
            }
            Quarantine::Super(s, j) => {
                d.quarantined_super.insert((s, j));
                d.mark_supernode(s);
                drop(d);
                // The next probe into `s` builds a fanout that sends
                // every page to this slot, to count what it goes without.
                self.cache.remove(GraphKey::Fanout(s));
                self.unpin_fanout(s);
            }
        }
        Ok(())
    }

    fn note_skip(&self) {
        if let Some(d) = &self.degrade {
            d.write().skip();
        }
    }

    /// The first of supernode `s`'s pinned slots: its intranode graph's,
    /// then its fanout's, then one per out-superedge in row order — so the
    /// slots a probe reads first share a cache line.
    fn pin_slot(s: u32, row: &Row<'_>) -> usize {
        (row.intra_blob() + u64::from(s)) as usize
    }

    /// Drops `s`'s fanout from a pinning handle, as a quarantine drops it
    /// from the cache: the slots are replaced by a copy without it, which
    /// every call after this one reads. Degraded opens only, and only for
    /// damage found after the fanout was built; a batch under way keeps the
    /// slots it began with, and what it fills there from now on is built
    /// again by the next miss.
    fn unpin_fanout(&self, s: u32) {
        if !self.pinned {
            return;
        }
        let Ok(row) = self.dir.index.row(s) else {
            return;
        };
        let slot = Self::pin_slot(s, &row) + 1;
        let mut pool = self.scratch.lock();
        let Some(pins) = pool.pins.as_ref().filter(|pins| pins.graph(slot).is_some()) else {
            return;
        };
        pool.pins = Some(Arc::new(pins.without(slot)));
        pool.free.iter_mut().for_each(|scratch| scratch.pins = None);
        drop(pool);
        self.cache.log_unload(GraphKey::Fanout(s));
    }

    /// Logs an unload for every graph filled in `pins`.
    fn log_unpinned(&self, pins: &Pins) {
        let index = &self.dir.index;
        for s in 0..index.num_supernodes() {
            // A slot is filled only for a supernode whose row was read.
            let Ok(row) = index.row(s) else {
                continue;
            };
            let graphs = [GraphKey::Intra(s), GraphKey::Fanout(s)].into_iter();
            let graphs = graphs.chain(row.targets().iter().map(|&j| GraphKey::Super(s, j)));
            for (slot, key) in (Self::pin_slot(s, &row)..).zip(graphs) {
                if pins.graph(slot).is_some() {
                    self.cache.log_unload(key);
                }
            }
        }
    }

    /// Whether pinned `slot` holds its graph, counted as a cache lookup.
    fn pinned_hit(&self, pins: &Pins, slot: usize) -> bool {
        let hit = pins.graph(slot).is_some();
        self.cache.count_lookup(hit);
        hit
    }

    /// `graph`, built for a miss of `key`, kept as `keep` says: offered to
    /// the cache (or, for a miss it declined, handed only to the probe
    /// that built it), or filled into its pinned slot and counted as the
    /// cache counts a load.
    fn keep(&self, key: GraphKey, graph: CachedGraph, keep: Keep<'_>) -> Answer {
        match keep {
            Keep::Offer(true) => Answer::Graph(Arc::new(graph)),
            Keep::Offer(false) => Answer::Graph(self.cache.insert(key, graph)),
            Keep::Pin(pins, slot) => {
                self.cache.count_load(key, graph.bytes());
                pins.fill(slot, graph);
                Answer::Pinned(slot)
            }
        }
    }

    /// The intranode graph of `s`, for a group of pages whose last local
    /// id is `last`: from its pinned slot, from the cache, or built by this
    /// probe. [`Answer::Skipped`] means the graph is quarantined (degraded
    /// mode only); the caller counts the skipped part per access.
    fn intranode(&self, s: u32, row: &Row<'_>, last: u32, pins: Option<&Pins>) -> Result<Answer> {
        if let Some(d) = &self.degrade {
            if d.read().quarantined_intra.contains(&s) {
                return Ok(Answer::Skipped);
            }
        }
        if let Some(pins) = pins {
            let slot = Self::pin_slot(s, row);
            return match self.pinned_hit(pins, slot) {
                true => Ok(Answer::Pinned(slot)),
                false => self.load_intranode(s, row, None, Keep::Pin(pins, slot)),
            };
        }
        let loc = row.locator(0)?;
        // Exact: the charge of the directory the miss would build.
        let floor = || intra_charge(self.dir.index.supernode_size(s), loc.bit_len);
        match self.cache.lookup(GraphKey::Intra(s), floor) {
            Lookup::Hit(g) => Ok(Answer::Graph(g)),
            Lookup::Miss => self.load_intranode(s, row, None, Keep::Offer(false)),
            Lookup::Declined => self.load_intranode(s, row, Some(last), Keep::Offer(true)),
        }
    }

    /// An intranode miss: parses the graph's directory and keeps it, or,
    /// when the cache declined the miss, scans its payloads through list
    /// `through` only — what the group's pages need. Out of line, like
    /// [`SNode::build_fanout`].
    #[inline(never)]
    fn load_intranode(
        &self,
        s: u32,
        row: &Row<'_>,
        through: Option<u32>,
        keep: Keep<'_>,
    ) -> Result<Answer> {
        let loc = row.locator(0)?;
        let parsed = self
            .dir
            .load_blob(&loc, row.intra_blob())
            .and_then(|bytes| {
                let last = through.unwrap_or(u32::MAX);
                let index =
                    ListsIndex::parse_through(&bytes, loc.bit_len, Universe::SameAsCount, last)?;
                Ok((bytes, index))
            });
        match parsed {
            Ok((bytes, index)) => {
                let graph = CachedGraph::new_encoded_intra(bytes, loc.bit_len, index);
                Ok(self.keep(GraphKey::Intra(s), graph, keep))
            }
            Err(e) => {
                self.quarantine(Quarantine::Intra(s), e)?;
                Ok(Answer::Skipped)
            }
        }
    }

    /// The fanout of supernode `s`, from its pinned slot, from the cache
    /// or built by this probe for `group` — the pages, the positions of
    /// the group's in their ascending order, and the supernode's first
    /// page — and whether its rows are the supernode's pages (`true`) or,
    /// built for a miss the cache declined, the ranks of the group's
    /// distinct pages.
    fn fanout<'p>(
        &self,
        s: u32,
        row: &Row<'_>,
        group: (&[PageId], std::ops::Range<usize>, PageId),
        scratch: &mut BatchScratch,
        pins: Option<&'p Pins>,
    ) -> Result<(Held<'p>, bool)> {
        if let Some(pins) = pins {
            let slot = Self::pin_slot(s, row) + 1;
            if !self.pinned_hit(pins, slot) {
                self.build_fanout(s, row, None, scratch, Keep::Pin(pins, slot))?;
            }
            let fanout =
                (pins.graph(slot)).ok_or(SNodeError::Corrupt("a pinned fanout left its slot"))?;
            return Ok((Held::Pinned(fanout), true));
        }
        // What the whole fanout is charged at least: a miss the cache would
        // refuse at that is declined before anything is built.
        let floor = || {
            let ni = self.dir.index.supernode_size(s);
            Fanout::least_charge(ni, row.targets().len(), self.degrade.is_none())
        };
        let (keep, group) = match self.cache.lookup(GraphKey::Fanout(s), floor) {
            Lookup::Hit(fanout) => return Ok((Held::Cached(fanout), true)),
            Lookup::Miss => (Keep::Offer(false), None),
            Lookup::Declined => (Keep::Offer(true), Some(group)),
        };
        let whole = group.is_none();
        match self.build_fanout(s, row, group, scratch, keep)? {
            Answer::Graph(fanout) => Ok((Held::Cached(fanout), whole)),
            _ => Err(SNodeError::Corrupt("a fanout miss kept no fanout")),
        }
    }

    /// A fanout miss: builds the fanout of `s` from what a cold probe reads
    /// of every out-superedge graph anyway — the checksummed blob, scanned
    /// as far as `sources`, and for a single-target dictionary its entry
    /// if it has one only — keeps it, and leaves the other blobs in
    /// `scratch.parsed` for the caller to parse and keep the ones its
    /// pages need. For a miss the cache declined, `group` names the pages
    /// of the probe's group: each `sources` is read until it passes the
    /// last of them, a dictionary's entry only if one of them is a source,
    /// and the fanout has a row for each of them only.
    /// Out of line, like [`SNode::load_superedge`]: with the two miss
    /// paths inlined into `batch_run` every *warm* probe read 12 % slower
    /// (ten ledger pairs, none won).
    #[inline(never)]
    fn build_fanout(
        &self,
        s: u32,
        row: &Row<'_>,
        group: Option<(&[PageId], std::ops::Range<usize>, PageId)>,
        scratch: &mut BatchScratch,
        keep: Keep<'_>,
    ) -> Result<Answer> {
        let BatchScratch {
            order,
            parsed,
            sources,
            ranges,
            targets,
            group: locals,
            ..
        } = scratch;
        parsed.clear();
        sources.clear();
        ranges.clear();
        targets.clear();
        locals.clear();
        if let Some((pages, at, start)) = &group {
            for &i in &order[at.clone()] {
                let local = pages[i as usize] - start;
                if locals.last() != Some(&local) {
                    locals.push(local);
                }
            }
        }
        let index = &self.dir.index;
        let ni = index.supernode_size(s);
        for (k, &j) in (1..).zip(row.targets()) {
            let scanned = match self.superedge_quarantined(s, j) {
                true => None,
                false => {
                    let loc = row.locator(k)?;
                    let blob = self.dir.load_blob(&loc, row.intra_blob() + k as u64);
                    let (ni, nj) = (u64::from(ni), u64::from(index.supernode_size(j)));
                    let scanned = blob.and_then(|blob| {
                        let scanned = match group {
                            None => scan_sources(&blob, loc.bit_len, ni, nj, sources),
                            Some(_) => scan_sources_of(&blob, loc.bit_len, ni, nj, locals, sources),
                        }?;
                        Ok((blob, scanned))
                    });
                    self.or_quarantine(s, j, scanned)?
                }
            };
            let (blob, scanned) = scanned.unzip();
            let (range, target) = match scanned {
                Some(Scanned { sources, target }) => (Some(sources), target),
                None => (None, None),
            };
            // A graph the fanout answers is never parsed: its blob goes.
            parsed.push(blob.filter(|_| target.is_none()));
            ranges.push(range);
            targets.push(target);
        }
        let graphs = (ranges.iter()).map(|range| sources.get(range.clone()?));
        let rows = match group {
            None => ni,
            // No more than the supernode's pages.
            Some(_) => locals.len() as u32,
        };
        let built = CachedGraph::from(Fanout::build(rows, graphs, targets)?);
        Ok(self.keep(GraphKey::Fanout(s), built, keep))
    }

    fn superedge_quarantined(&self, s: u32, j: u32) -> bool {
        self.degrade
            .as_ref()
            .is_some_and(|d| d.read().quarantined_super.contains(&(s, j)))
    }

    /// What `loaded` gave of superedge graph `s → j`, or `Ok(None)` once
    /// the graph is quarantined for failing (degraded mode only).
    fn or_quarantine<T>(&self, s: u32, j: u32, loaded: Result<T>) -> Result<Option<T>> {
        match loaded {
            Ok(loaded) => Ok(Some(loaded)),
            Err(e) => {
                self.quarantine(Quarantine::Super(s, j), e)?;
                Ok(None)
            }
        }
    }

    /// Superedge graph `edge_idx` of `s`, from its pinned slot, from the
    /// cache or loaded by this probe. [`Answer::Skipped`] means the graph
    /// is quarantined (degraded mode only).
    fn superedge(
        &self,
        s: u32,
        row: &Row<'_>,
        edge_idx: u32,
        j: u32,
        blob: Option<ParsedSuperedge>,
        pins: Option<&Pins>,
    ) -> Result<Answer> {
        if self.superedge_quarantined(s, j) {
            return Ok(Answer::Skipped);
        }
        if let Some(pins) = pins {
            let slot = Self::pin_slot(s, row) + 2 + edge_idx as usize;
            return match self.pinned_hit(pins, slot) {
                true => Ok(Answer::Pinned(slot)),
                false => self.load_superedge(s, row, edge_idx, j, blob, Keep::Pin(pins, slot)),
            };
        }
        match self.cache.lookup(GraphKey::Super(s, j), || LEAST_CHARGE) {
            Lookup::Hit(graph) => Ok(Answer::Graph(graph)),
            Lookup::Miss => self.load_superedge(s, row, edge_idx, j, blob, Keep::Offer(false)),
            Lookup::Declined => self.load_superedge(s, row, edge_idx, j, blob, Keep::Offer(true)),
        }
    }

    /// A superedge miss: parses the graph from `blob` (this probe's fanout
    /// build already read it), else from disk, and keeps it — whole,
    /// whether or not the cache declined the miss: a dictionary's layout
    /// has to be read whole either way.
    #[inline(never)]
    fn load_superedge(
        &self,
        s: u32,
        row: &Row<'_>,
        edge_idx: u32,
        j: u32,
        blob: Option<ParsedSuperedge>,
        keep: Keep<'_>,
    ) -> Result<Answer> {
        let blob_idx = row.intra_blob() + 1 + u64::from(edge_idx);
        let loc = row.locator(1 + edge_idx as usize)?;
        let ni = u64::from(self.dir.index.supernode_size(s));
        let nj = u64::from(self.dir.index.supernode_size(j));
        let blob = match blob {
            Some(blob) => Ok(blob),
            None => self.dir.load_blob(&loc, blob_idx),
        };
        let loaded = blob.and_then(|blob| {
            let index = SuperedgeIndex::parse(&blob, loc.bit_len, ni, nj, ListCodec)?;
            Ok((blob, index))
        });
        Ok(match self.or_quarantine(s, j, loaded)? {
            Some((blob, index)) => {
                let graph = CachedGraph::new_encoded_super(blob, loc.bit_len, index, nj);
                self.keep(GraphKey::Super(s, j), graph, keep)
            }
            None => Answer::Skipped,
        })
    }
}

/// Refuses a page id beyond the representation before anything is looked
/// up for it: `supernode_of` would name a supernode that does not exist.
fn check_page(index: &ResidentIndex, p: PageId) -> Result<()> {
    match p < index.num_pages() {
        true => Ok(()),
        false => Err(SNodeError::Corrupt("page id beyond the representation")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_snode, RepoInput, SNodeConfig};
    use crate::disk::SNodeMeta;
    use wg_graph::Graph;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_snode_repr_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    /// Builds a deterministic pseudo-random repository and its S-Node form.
    fn build_repo(
        name: &str,
        n: u32,
    ) -> (
        std::path::PathBuf,
        Graph,
        crate::disk::Renumbering,
        Vec<u32>,
    ) {
        let hosts = ["http://www.a.edu", "http://cs.a.edu", "http://www.b.com"];
        let urls: Vec<String> = (0..n)
            .map(|i| format!("{}/d{}/p{:04}.html", hosts[(i % 3) as usize], i % 5, i))
            .collect();
        let domains: Vec<u32> = (0..n).map(|i| if i % 3 == 2 { 1 } else { 0 }).collect();
        let mut edges = Vec::new();
        let mut s = 0xABCDEFu64;
        for u in 0..n {
            for _ in 0..6 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((s >> 33) % u64::from(n)) as u32;
                if v != u {
                    edges.push((u, v));
                }
            }
            // Local edge for structure.
            edges.push((u, (u + 3) % n));
        }
        let graph = Graph::from_edges(n, edges);
        let dir = temp_dir(name);
        let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let input = RepoInput {
            urls: &url_refs,
            domains: &domains,
            graph: &graph,
        };
        let (_stats, renum) = build_snode(input, &SNodeConfig::default(), &dir).unwrap();
        (dir, graph, renum, domains)
    }

    /// A generated crawl of 3 000 pages: dozens of supernodes, most with
    /// several out-superedges, dictionary layouts among their graphs.
    fn build_crawl(name: &str) -> (std::path::PathBuf, Graph, crate::disk::Renumbering) {
        let corpus = wg_corpus::Corpus::generate(wg_corpus::CorpusConfig::scaled(3000, 5));
        let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
        let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
        let dir = temp_dir(name);
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &corpus.graph,
        };
        let (_stats, renum) = build_snode(input, &SNodeConfig::default(), &dir).unwrap();
        (dir, corpus.graph, renum)
    }

    fn expected_neighbors(
        graph: &Graph,
        renum: &crate::disk::Renumbering,
        new_id: u32,
    ) -> Vec<u32> {
        let old = renum.old_of_new[new_id as usize];
        let mut v: Vec<u32> = graph
            .neighbors(old)
            .iter()
            .map(|&t| renum.new_of_old[t as usize])
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn disk_backed_adjacency_matches_source() {
        let (dir, graph, renum, _) = build_repo("disk", 120);
        let snode = SNode::open_resident(&dir, 1 << 20).unwrap();
        assert!(snode.resident_bytes() > 0);
        for new_id in 0..graph.num_nodes() {
            assert_eq!(
                snode.out_neighbors(new_id).unwrap(),
                expected_neighbors(&graph, &renum, new_id),
                "page {new_id}"
            );
        }
        // `meta.bin` and every blob were checksummed once, and held.
        let (checks, failures) = snode.integrity_stats();
        assert!(snode.disk_reads() > 0);
        assert_eq!(checks, 1 + blob_count(&snode));
        assert_eq!(failures, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Under a budget the directory fits, `to_graph` reads each graph
    /// once and evicts nothing.
    #[test]
    fn to_graph_matches_source() {
        let (dir, graph, renum, _) = build_repo("mem", 120);
        let snode = SNode::open_resident(&dir, 1 << 30).unwrap();
        let decoded = snode.to_graph().unwrap();
        assert_eq!(decoded.num_nodes(), graph.num_nodes());
        for new_id in 0..graph.num_nodes() {
            assert_eq!(
                decoded.neighbors(new_id),
                expected_neighbors(&graph, &renum, new_id),
                "page {new_id}"
            );
        }
        assert_eq!(snode.cache_stats().evictions, 0);
        assert_eq!(snode.disk_reads(), blob_count(&snode));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_cache_still_answers_correctly() {
        let (dir, graph, renum, _) = build_repo("tinycache", 90);
        // Half a kilobyte, about half of what its six graphs and fanouts
        // are charged, forces constant load/unload churn: every graph the
        // cache refused still answers the probe that decoded it.
        let snode = SNode::open_resident(&dir, 512).unwrap();
        for new_id in (0..graph.num_nodes()).rev() {
            assert_eq!(
                snode.out_neighbors(new_id).unwrap(),
                expected_neighbors(&graph, &renum, new_id)
            );
        }
        let stats = snode.cache_stats();
        assert!(
            stats.evictions + stats.refused > 0,
            "512 B budget must evict or refuse"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_hits_on_locality() {
        let (dir, graph, _renum, _) = build_repo("local", 100);
        let snode = SNode::open_resident(&dir, 8 << 20).unwrap();
        // Two passes over the same supernode's pages: second pass all hits.
        let r = snode.page_range(0);
        for p in r.clone() {
            snode.out_neighbors(p).unwrap();
        }
        let after_first = snode.cache_stats();
        for p in r {
            snode.out_neighbors(p).unwrap();
        }
        let after_second = snode.cache_stats();
        assert_eq!(
            after_first.misses, after_second.misses,
            "second pass must not miss"
        );
        assert!(after_second.hits > after_first.hits);
        let _ = graph;
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn domain_index_resolves_pages() {
        let (dir, _graph, renum, domains) = build_repo("domains", 80);
        let snode = SNode::open_resident(&dir, 1 << 20).unwrap();
        for d in 0..2u32 {
            let got = snode.pages_in_domain(d);
            let mut expect: Vec<u32> = (0..80u32)
                .filter(|&old| domains[old as usize] == d)
                .map(|old| renum.new_of_old[old as usize])
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "domain {d}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn flip_first_index_byte(dir: &std::path::Path) {
        let path = crate::disk::index_file_path(dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn clean_directory_verifies_with_zero_failures() {
        let (dir, graph, renum, _) = build_repo("cleancrc", 80);
        let snode = SNode::open_degraded(&dir, 1 << 20).unwrap();
        assert!(snode.verifies_checksums());
        for p in 0..graph.num_nodes() {
            assert_eq!(
                snode.out_neighbors(p).unwrap(),
                expected_neighbors(&graph, &renum, p)
            );
        }
        assert!(snode.degraded().is_clean());
        let (checks, failures) = snode.integrity_stats();
        assert!(checks > 0, "manifest present, blobs must be verified");
        assert_eq!(failures, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_open_surfaces_a_single_bit_flip() {
        let (dir, graph, _renum, _) = build_repo("strictcrc", 80);
        flip_first_index_byte(&dir);
        let snode = SNode::open_resident(&dir, 1 << 20).unwrap();
        let err = (0..graph.num_nodes()).find_map(|p| snode.out_neighbors(p).err());
        assert!(err.is_some(), "strict mode must surface the flip");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_open_quarantines_and_answers_partially() {
        let (dir, graph, renum, _) = build_repo("degrade", 80);
        flip_first_index_byte(&dir);
        let snode = SNode::open_degraded(&dir, 1 << 20).unwrap();
        for p in 0..graph.num_nodes() {
            let got = snode.out_neighbors(p).unwrap();
            let expect = expected_neighbors(&graph, &renum, p);
            // Partial answers only ever omit edges, never invent them.
            assert!(got.iter().all(|t| expect.contains(t)), "page {p}");
        }
        let report = snode.degraded();
        assert!(report.quarantined_supernodes >= 1);
        assert!(report.skipped_edges >= 1);
        let (_, failures) = snode.integrity_stats();
        assert!(failures >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites `dir/meta.bin` with the last entry of its domain index
    /// (the directory's last supernode) set to what `entry` makes of it
    /// and the supernode count, leaving `sums.bin` as it was; returns the
    /// bytes written.
    fn rewrite_last_domain_entry(dir: &Path, entry: impl Fn(u32, u32) -> u32) -> Vec<u8> {
        let mut meta = SNodeMeta::read(dir).unwrap();
        let n = meta.num_supernodes();
        let list = meta
            .domain_supernodes
            .iter_mut()
            .rev()
            .find(|l| !l.is_empty());
        let last = list.unwrap().last_mut().unwrap();
        *last = entry(*last, n);
        meta.write(dir).unwrap();
        std::fs::read(dir.join("meta.bin")).unwrap()
    }

    /// A `meta.bin` that still parses, naming another supernode in its
    /// domain index, no longer matches `sums.bin`: strict and degraded
    /// opens both refuse it.
    #[test]
    fn both_opens_refuse_a_meta_bin_that_does_not_match_its_checksum() {
        let (dir, _graph, _renum, _) = build_repo("memmeta", 60);
        let bytes = rewrite_last_domain_entry(&dir, |entry, n| (entry + 1) % n);
        assert!(SNodeMeta::parse(&bytes).is_ok(), "the damage parses");
        assert!(SNode::open_degraded(&dir, 1 << 20).is_err());
        assert!(SNode::open_resident(&dir, 1 << 20).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Re-manifested, so that no checksum catches it, a domain index
    /// entry beyond the supernode graph is refused when `meta.bin` parses,
    /// not met as an index past `range_start` by `pages_in_domain`.
    #[test]
    fn a_domain_index_entry_beyond_the_graph_is_corrupt() {
        let (dir, _graph, _renum, _) = build_repo("domainflip", 60);
        let bytes = rewrite_last_domain_entry(&dir, |_, n| n);
        let blobs = IntegrityManifest::read(&dir).unwrap().unwrap().blob_crc;
        IntegrityManifest::compute(&dir, blobs)
            .unwrap()
            .write(&dir)
            .unwrap();
        assert!(matches!(
            SNodeMeta::parse(&bytes),
            Err(SNodeError::Corrupt(_))
        ));
        assert!(SNode::open_resident(&dir, 1 << 20).is_err());
        assert!(SNode::open_degraded(&dir, 1 << 20).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A page id the representation does not have is an error from every
    /// navigation entry point, and costs no quarantine.
    #[test]
    fn a_page_beyond_the_representation_is_an_error() {
        let (dir, graph, _renum, _) = build_repo("beyond", 60);
        let n = graph.num_nodes();
        let snode = SNode::open_degraded(&dir, 1 << 20).unwrap();
        for p in [n, n + 1, u32::MAX] {
            assert!(snode.out_neighbors(p).is_err(), "{p}");
            let batch = snode.out_neighbors_batch(&[0, p, 1], &mut |_, _| {});
            assert!(batch.is_err(), "batch with {p}");
        }
        assert!(snode.degraded().is_clean());
        assert_eq!(snode.disk_reads(), 0, "nothing was looked up");
        assert!(snode.out_neighbors(n - 1).is_ok());
        let strict = SNode::open_resident(&dir, 1 << 20).unwrap();
        assert!(strict.out_neighbors(n).is_err());
        assert!(strict.out_neighbors(n - 1).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every build writes `sums.bin`: a directory without one is refused
    /// by a strict open, which says to rebuild it, and read, unverified,
    /// by a degraded one.
    #[test]
    fn manifestless_directory_is_refused_strict_and_opened_degraded() {
        let (dir, graph, renum, _) = build_repo("v1compat", 60);
        std::fs::remove_file(dir.join(crate::integrity::SUMS_FILE)).unwrap();
        let refused = SNode::open_resident(&dir, 1 << 20).map(drop);
        assert!(
            matches!(&refused, Err(SNodeError::Corrupt(why)) if why.contains("rebuild")),
            "{refused:?}"
        );
        let snode = SNode::open_degraded(&dir, 1 << 20).unwrap();
        assert!(!snode.verifies_checksums());
        for p in 0..graph.num_nodes() {
            assert_eq!(
                snode.out_neighbors(p).unwrap(),
                expected_neighbors(&graph, &renum, p)
            );
        }
        assert_eq!(snode.integrity_stats(), (0, 0));
        assert!(snode.degraded().is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Blobs in the directory `snode` opened.
    fn blob_count(snode: &SNode) -> u64 {
        snode.dir.index.num_blobs()
    }

    /// Blobs that have matched their CRC in this open.
    fn verified_count(snode: &SNode) -> u64 {
        (0..blob_count(snode))
            .filter(|&b| snode.dir.is_verified(b))
            .count() as u64
    }

    /// A cold probe into a supernode with `d` out-superedges is `1 + d`
    /// blob reads — the fanout build reads every out-superedge graph, and
    /// the graphs the probe then admits are parsed from the blobs it
    /// holds, not read again — and checksums those of them this open has
    /// not checked yet; a warm one is none of either.
    #[test]
    fn a_cold_probe_reads_and_checksums_each_blob_of_its_supernode_once() {
        let (dir, graph, _renum) = build_crawl("readonce");
        let snode = SNode::open_resident(&dir, 1 << 20).unwrap();
        let mut most = 0;
        for p in 0..graph.num_nodes() {
            let s = snode.supernode_of(p);
            let row = snode.index().row(s).unwrap();
            let d = row.targets().len() as u64;
            most = most.max(d);
            let base = row.intra_blob();
            let blobs = base..base + 1 + d;
            let unchecked = blobs.clone().filter(|&b| !snode.dir.is_verified(b)).count();
            snode.clear_cache();
            let before = (snode.disk_reads(), snode.integrity_stats().0);
            snode.out_neighbors(p).unwrap();
            let cold = (snode.disk_reads(), snode.integrity_stats().0);
            assert_eq!(cold.0 - before.0, 1 + d, "page {p}: reads");
            assert_eq!(cold.1 - before.1, unchecked as u64, "page {p}: checksums");
            assert!(blobs.clone().all(|b| snode.dir.is_verified(b)), "page {p}");
            snode.out_neighbors(p).unwrap();
            assert_eq!((snode.disk_reads(), snode.integrity_stats().0), cold);
        }
        assert!(most >= 2, "some supernode has several out-superedges");
        assert_eq!(verified_count(&snode), blob_count(&snode));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Under a budget that evicts and re-reads, each blob is checksummed
    /// at its first read in an open and at no later one; a second open
    /// checks them all again.
    #[test]
    fn a_blob_is_checksummed_once_per_open_however_often_it_is_read() {
        let (dir, graph, renum) = build_crawl("crconce");
        for open in 0..2 {
            let snode = SNode::open_resident(&dir, 4 << 10).unwrap();
            for round in 0..2 {
                for p in 0..graph.num_nodes() {
                    assert_eq!(
                        snode.out_neighbors(p).unwrap(),
                        expected_neighbors(&graph, &renum, p),
                        "open {open} round {round} page {p}"
                    );
                }
            }
            assert!(snode.cache_stats().evictions > 0, "the budget must evict");
            assert!(snode.disk_reads() > 2 * blob_count(&snode), "blobs re-read");
            assert_eq!(verified_count(&snode), blob_count(&snode));
            assert_eq!(
                snode.integrity_stats(),
                (1 + blob_count(&snode), 0),
                "open {open}: `meta.bin`, then each blob once"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A blob that fails its CRC is never marked checked: each read of it
    /// checks and fails again. Strict mode reads it on every probe into
    /// its supernode; degraded mode quarantines it at the first, and
    /// reads it no more.
    #[test]
    fn a_corrupt_blob_is_checked_and_fails_on_every_touch() {
        let (dir, graph, renum) = build_crawl("crcfail");
        let meta = SNodeMeta::read(&dir).unwrap();
        let (s, k, loc, _) = (superedges(&dir).into_iter())
            .find(|(s, ..)| meta.supergraph.adj[*s as usize].len() >= 2)
            .expect("a supernode with two out-superedges");
        let path = crate::disk::index_file_path(&dir, loc.file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[loc.offset as usize] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let range = meta.page_range(s);
        let lost = meta.page_range(meta.supergraph.adj[s as usize][k]);

        let strict = SNode::open_resident(&dir, 1 << 20).unwrap();
        let blob = strict.dir.index.row(s).unwrap().intra_blob() + 1 + k as u64;
        for (touch, p) in (1..).zip(range.clone()) {
            assert!(strict.out_neighbors(p).is_err(), "strict page {p}");
            assert_eq!(strict.integrity_stats().1, touch, "page {p}");
            assert!(!strict.dir.is_verified(blob));
        }
        let (checks, failures) = strict.integrity_stats();
        assert_eq!(checks, 1 + verified_count(&strict) + failures);

        let degraded = SNode::open_degraded(&dir, 1 << 20).unwrap();
        for round in 0..2 {
            for p in range.clone() {
                let mut want = expected_neighbors(&graph, &renum, p);
                want.retain(|t| !lost.contains(t));
                assert_eq!(
                    degraded.out_neighbors(p).unwrap(),
                    want,
                    "round {round} page {p}"
                );
            }
        }
        assert!(!degraded.dir.is_verified(blob));
        let (checks, failures) = degraded.integrity_stats();
        assert_eq!(failures, 1, "quarantined at the first touch");
        assert_eq!(checks, 1 + verified_count(&degraded) + failures);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every out-superedge graph of the directory: its supernode, its
    /// slot, where its blob lies and its parsed header.
    fn superedges(dir: &Path) -> Vec<(u32, usize, GraphLocator, SuperedgeIndex)> {
        let meta = SNodeMeta::read(dir).unwrap();
        let files = IndexFileReader::open_resident(dir).unwrap();
        let mut found = Vec::new();
        for s in 0..meta.num_supernodes() {
            let ni = u64::from(meta.supernode_size(s));
            for (k, &j) in meta.supergraph.adj[s as usize].iter().enumerate() {
                let loc = meta.superedge_loc[s as usize][k];
                let nj = u64::from(meta.supernode_size(j));
                let bytes = files.read_blob(&loc).unwrap();
                let index = SuperedgeIndex::parse(&bytes, loc.bit_len, ni, nj, ListCodec).unwrap();
                found.push((s, k, loc, index));
            }
        }
        found
    }

    /// Re-manifests `dir` as it sits on disk, so that damage made after
    /// the build passes every checksum and reaches the decoders.
    fn remanifest(dir: &Path) {
        let blobs = IntegrityManifest::blob_crcs(dir).unwrap();
        IntegrityManifest::compute(dir, blobs)
            .unwrap()
            .write(dir)
            .unwrap();
    }

    /// Clears the bits of the blob at `loc` from bit `from` to its end.
    fn zero_blob_tail(dir: &Path, loc: &GraphLocator, from: u64) {
        let path = crate::disk::index_file_path(dir, loc.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let blob = &mut bytes[loc.offset as usize..(loc.offset + loc.byte_len) as usize];
        for bit in from..loc.byte_len * 8 {
            blob[(bit / 8) as usize] &= !(0x80 >> (bit % 8));
        }
        std::fs::write(&path, &bytes).unwrap();
    }

    /// Re-manifested, so the blob reads clean; its header — the graph's
    /// `sources` — runs off its end. Through the fanout build's
    /// scan that is what a failed parse was: strict fails every probe into
    /// the supernode; degraded quarantines the graph, names its slot among
    /// those every page consults, and counts one skip per access.
    #[test]
    fn degraded_open_quarantines_a_superedge_graph_whose_header_does_not_scan() {
        let (dir, graph, renum) = build_crawl("noscan");
        let meta = SNodeMeta::read(&dir).unwrap();
        let (s, k, loc, _) = (superedges(&dir).into_iter())
            .find(|(s, ..)| meta.supergraph.adj[*s as usize].len() >= 2)
            .expect("a supernode with two out-superedges");
        zero_blob_tail(&dir, &loc, 0);
        remanifest(&dir);
        let range = meta.page_range(s);
        let lost = meta.page_range(meta.supergraph.adj[s as usize][k]);

        let strict = SNode::open_resident(&dir, 1 << 20).unwrap();
        for p in range.clone() {
            assert!(strict.out_neighbors(p).is_err(), "strict page {p}");
        }

        let degraded = SNode::open_degraded(&dir, 1 << 20).unwrap();
        let mut accesses = 0u64;
        for round in 0..2 {
            for p in range.clone() {
                let mut want = expected_neighbors(&graph, &renum, p);
                want.retain(|t| !lost.contains(t));
                assert_eq!(
                    degraded.out_neighbors(p).unwrap(),
                    want,
                    "round {round} page {p}"
                );
                accesses += 1;
                let report = degraded.degraded();
                assert_eq!(report.quarantined_supernodes, 1);
                assert_eq!(report.skipped_edges, accesses, "one skip per access");
            }
        }
        let fanout = degraded.cache.get(GraphKey::Fanout(s)).expect("cached");
        let always = fanout.as_fanout().expect("a fanout").always();
        assert!(always.contains(k as u32), "{always:?} names slot {k}");
        for p in (0..graph.num_nodes()).filter(|p| !range.contains(p)) {
            assert_eq!(
                degraded.out_neighbors(p).unwrap(),
                expected_neighbors(&graph, &renum, p)
            );
        }
        assert_eq!(degraded.degraded().skipped_edges, accesses);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A graph whose kind bit is set — the complement form earlier builds
    /// wrote — behind a re-computed checksum: every strict probe into its
    /// supernode is `Corrupt` and says to rebuild, and a degraded open
    /// sends every page of the supernode to its slot and goes without it.
    #[test]
    fn a_set_kind_bit_fails_every_strict_probe_into_its_supernode() {
        let (dir, graph, renum) = build_crawl("kindbit");
        let meta = SNodeMeta::read(&dir).unwrap();
        let (s, k, loc, _) = (superedges(&dir).into_iter())
            .find(|(s, ..)| meta.supergraph.adj[*s as usize].len() >= 2)
            .expect("a supernode with two out-superedges");
        let path = crate::disk::index_file_path(&dir, loc.file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[loc.offset as usize] |= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        remanifest(&dir);
        let range = meta.page_range(s);
        let lost = meta.page_range(meta.supergraph.adj[s as usize][k]);

        let strict = SNode::open_resident(&dir, 1 << 20).unwrap();
        for p in range.clone() {
            let got = strict.out_neighbors(p);
            let rebuild = "negative superedge graph: rebuild the directory";
            assert!(
                matches!(got, Err(SNodeError::Corrupt(e)) if e == rebuild),
                "page {p}"
            );
        }

        let degraded = SNode::open_degraded(&dir, 1 << 20).unwrap();
        for p in range.clone() {
            let mut want = expected_neighbors(&graph, &renum, p);
            want.retain(|t| !lost.contains(t));
            assert_eq!(degraded.out_neighbors(p).unwrap(), want, "page {p}");
        }
        let fanout = degraded.cache.get(GraphKey::Fanout(s)).expect("cached");
        let always = fanout.as_fanout().expect("a fanout").always();
        assert!(always.contains(k as u32), "{always:?} names slot {k}");
        let report = degraded.degraded();
        assert_eq!(report.quarantined_supernodes, 1);
        assert_eq!(
            report.skipped_edges,
            range.len() as u64,
            "one skip per access"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fanout miss reads a graph as far as its `sources`: what lies
    /// behind them is parsed by the first probe that draws on the graph.
    /// So with a checksum re-computed over it, a dictionary whose entry
    /// count was forged (here: runs off the blob) fails that probe, and
    /// not — as when the miss parsed every out-superedge graph — a probe
    /// of a page the graph holds nothing for.
    #[test]
    fn forged_dictionary_count_behind_a_matching_checksum_fails_the_first_probe_that_draws_on_the_graph_and_none_that_does_not(
    ) {
        let (dir, graph, renum) = build_crawl("forgedcount");
        let meta = SNodeMeta::read(&dir).unwrap();
        let (s, loc, index) = (superedges(&dir).into_iter())
            .find_map(|(s, _, loc, index)| {
                let dictionary = index.layout() != crate::subgraphs::Layout::Lists;
                let partial = (index.sources().len() as u32) < meta.supernode_size(s);
                (dictionary && partial && !index.sources().is_empty()).then_some((s, loc, index))
            })
            .expect("a dictionary graph that lists some pages of its supernode only");
        let bits = index.bit_breakdown();
        zero_blob_tail(&dir, &loc, bits.header + bits.sources);
        remanifest(&dir);

        let range = meta.page_range(s);
        let listed = range.start + index.sources().get(0).unwrap();
        let unlisted = (range.clone())
            .find(|p| !index.sources().contains(p - range.start))
            .unwrap();
        let snode = SNode::open_resident(&dir, 1 << 20).unwrap();
        assert_eq!(
            snode.out_neighbors(unlisted).unwrap(),
            expected_neighbors(&graph, &renum, unlisted)
        );
        let got = snode.out_neighbors(listed);
        assert!(got.is_err(), "{got:?}");
        assert_eq!(
            snode.out_neighbors(unlisted).unwrap(),
            expected_neighbors(&graph, &renum, unlisted)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A probe loads its supernode's intranode graph, its fanout, and
    /// exactly the superedge graphs that hold a list for its page — not
    /// one entry per out-superedge of the supernode — less those the
    /// fanout answers: a single-target dictionary of one entry is never
    /// looked up.
    #[test]
    fn cache_log_shows_loaded_graph_counts() {
        let (dir, graph, _renum) = build_crawl("log");
        let snode = SNode::open_resident(&dir, 8 << 20).unwrap();
        snode.enable_cache_log();
        let meta = SNodeMeta::read(&dir).unwrap();
        let files = IndexFileReader::open_resident(&dir).unwrap();
        let (mut spared, mut answered) = (0usize, 0usize);
        for p in (0..graph.num_nodes()).step_by(7) {
            let s = snode.supernode_of(p);
            let local = p - snode.page_range(s).start;
            let ni = u64::from(meta.supernode_size(s));
            let mut expected = vec![GraphKey::Intra(s), GraphKey::Fanout(s)];
            for (k, &j) in meta.supergraph.adj[s as usize].iter().enumerate() {
                let loc = meta.superedge_loc[s as usize][k];
                let nj = u64::from(meta.supernode_size(j));
                let bytes = files.read_blob(&loc).unwrap();
                let index = SuperedgeIndex::parse(&bytes, loc.bit_len, ni, nj, ListCodec).unwrap();
                if index.sources().contains(local) {
                    match index.one_target() {
                        Some(_) => answered += 1,
                        None => expected.push(GraphKey::Super(s, j)),
                    }
                } else {
                    spared += 1;
                }
            }
            snode.clear_cache();
            snode.take_cache_log();
            snode.out_neighbors(p).unwrap();
            let loads: Vec<GraphKey> = snode
                .take_cache_log()
                .into_iter()
                .filter_map(|ev| match ev {
                    CacheEvent::Load(key) => Some(key),
                    CacheEvent::Unload(_) => None,
                })
                .collect();
            assert_eq!(loads, expected, "page {p}");
        }
        assert!(spared > 0, "some graph must hold nothing for some page");
        assert!(answered > 0, "some page is answered without a graph loaded");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A one-target graph whose bits after `sources` are zeroed, behind a
    /// re-computed checksum: the fanout build cannot read its entry, so
    /// the slot stays an ordinary graph, and the damage surfaces where a
    /// probe draws on it — a page the graph does not list answers exactly,
    /// one it lists fails strict and, degraded, goes without that part and
    /// counts one skip.
    #[test]
    fn a_one_target_graph_that_does_not_read_is_left_to_the_probe_that_draws_on_it() {
        let (dir, graph, renum) = build_crawl("onetarget");
        let meta = SNodeMeta::read(&dir).unwrap();
        let (s, k, loc, index) = (superedges(&dir).into_iter())
            .find(|(s, _, _, index)| {
                let partial = (index.sources().len() as u32) < meta.supernode_size(*s);
                index.one_target().is_some() && partial
            })
            .expect("a one-target graph that lists some pages of its supernode only");
        let bits = index.bit_breakdown();
        zero_blob_tail(&dir, &loc, bits.header + bits.sources);
        remanifest(&dir);

        let range = meta.page_range(s);
        let listed = range.start + index.sources().get(0).unwrap();
        let unlisted = (range.clone())
            .find(|p| !index.sources().contains(p - range.start))
            .unwrap();
        let strict = SNode::open_resident(&dir, 1 << 20).unwrap();
        assert_eq!(
            strict.out_neighbors(unlisted).unwrap(),
            expected_neighbors(&graph, &renum, unlisted)
        );
        let fanout = strict.cache.get(GraphKey::Fanout(s)).expect("built");
        let target = fanout.as_fanout().expect("a fanout").target(k as u32);
        assert_eq!(target, None, "slot {k} answers from its graph");
        let got = strict.out_neighbors(listed);
        assert!(got.is_err(), "{got:?}");

        let degraded = SNode::open_degraded(&dir, 1 << 20).unwrap();
        let j = meta.supergraph.adj[s as usize][k];
        let mut want = expected_neighbors(&graph, &renum, listed);
        want.retain(|t| !meta.page_range(j).contains(t));
        assert_eq!(degraded.out_neighbors(listed).unwrap(), want);
        let report = degraded.degraded();
        assert_eq!(
            (report.quarantined_supernodes, report.skipped_edges),
            (1, 1)
        );

        // Found after its supernode's fanout was built, the damage drops
        // that fanout — from a pinning handle's slots as from the cache —
        // so the next probe into the supernode builds one that sends every
        // page to the quarantined slot: the two count alike.
        let handles = [256 << 20, 1 << 20].map(|budget| {
            let snode = SNode::open_degraded(&dir, budget).unwrap();
            let answers: Vec<Vec<u32>> = std::iter::once(listed)
                .chain(range.clone())
                .map(|p| snode.out_neighbors(p).unwrap())
                .collect();
            let mut batch = Vec::new();
            let pages: Vec<u32> = range.clone().collect();
            let mut collect = |_: u32, list: &[u32]| batch.push(list.to_vec());
            snode.out_neighbors_batch(&pages, &mut collect).unwrap();
            let stats = snode.cache_stats();
            assert_eq!((stats.evictions, stats.refused), (0, 0), "{budget}");
            (snode.pins_graphs(), answers, batch, stats, snode.degraded())
        });
        let [(pinned, answers, batch, stats, report), cached] = handles;
        assert!(pinned && !cached.0, "one handle pins, the other does not");
        assert_eq!(answers, cached.1);
        assert_eq!(batch, cached.2);
        assert_eq!(stats, cached.3);
        assert_eq!(report, cached.4);
        assert_eq!(report.quarantined_supernodes, 1);
        assert!(report.skipped_edges > range.len() as u64, "{report:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
