//! Memory-budgeted cache of decoded intranode / superedge graphs.
//!
//! The §4.3 experiments give each representation a fixed memory allowance;
//! for S-Node, whatever is left after the resident supernode graph and
//! indexes "was used to load and decode intranode and superedge graphs as
//! required by the queries". This cache is that space: decoded graphs enter
//! on first use, are evicted least-recently-used when the byte budget
//! overflows, and every load/unload is recorded — the paper instrumented
//! exactly these events to explain its Figure 11 numbers. A supernode's
//! [`Fanout`] — which of its superedge graphs hold a list for which page —
//! is derived from those graphs and lives in the same space, under the
//! same budget.

use crate::disk::Blob;
use crate::refenc::{DecodeScratch, ListsIndex};
use crate::section::{self, Section, Width};
use crate::subgraphs::SuperedgeIndex;
use crate::{Result, SNodeError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};
use wg_obs::Stopwatch;

/// Identity of a cached graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphKey {
    /// The intranode graph of supernode `s`.
    Intra(u32),
    /// The superedge graph of superedge `from → to`.
    Super(u32, u32),
    /// The [`Fanout`] of supernode `s`.
    Fanout(u32),
}

/// The kinds of [`GraphKey`] by name, in the order load traffic is split
/// by them.
const KEY_KINDS: [&str; 3] = ["intra", "super", "fanout"];

/// Where `key`'s kind stands in [`KEY_KINDS`].
fn key_kind(key: &GraphKey) -> usize {
    match key {
        GraphKey::Intra(_) => 0,
        GraphKey::Super(..) => 1,
        GraphKey::Fanout(_) => 2,
    }
}

/// Which out-superedge graphs of one supernode hold a list for each of its
/// pages — the paper's "set of one or more superedge graphs" a page's
/// adjacency list is partitioned across (§3). Derived from the `sources`
/// of the supernode's superedge graphs and never stored: a probe consults
/// the graphs its page's row names instead of every out-superedge.
///
/// A *slot* is a position in the supernode's row of the supernode graph
/// (`supergraph.adj[s]`), which is also the order of its superedge blobs.
///
/// One arena holds it all, a [`Section`] each: CSR row starts (page
/// `local` draws on rows `starts[local]..starts[local + 1]`) at the width
/// the row-entry total needs, then `always` and the rows end to end at the
/// width a slot needs, then one target value per slot. A slot indexes one
/// supernode's row of the supernode graph — hundreds of entries at most on
/// a crawl — so the rows, most of what a fanout weighs, take a byte each.
///
/// A slot's target value is 1 + `t` when its graph is a single-target
/// dictionary of one entry — every page it lists links to page `t` of the
/// target supernode, template links — and 0 otherwise. Three in four
/// superedge graphs of a crawl are such graphs: a probe answers them from
/// here, and never looks one up, parses it or decodes a list of it. The
/// values take the width the largest needs, none when it is 0.
#[derive(Debug)]
pub struct Fanout {
    arena: Box<[u8]>,
    /// `|Ni|`: the arena opens with `ni + 1` row starts.
    ni: u32,
    /// How many slots follow the row starts that every page consults:
    /// negative graphs, which store a list for every page, and graphs that
    /// could not be read, so that each access keeps counting the part it
    /// went without.
    always: u32,
    /// The supernode's out-degree: how many target values end the arena.
    degree: u32,
    /// The width of the row starts, by the row-entry total, of a slot, by
    /// the out-degree, and of a target value, by the largest.
    starts: Width,
    slots: Width,
    targets: Width,
}

impl Fanout {
    /// Builds the fanout of a supernode of `ni` pages from its
    /// out-superedge graphs in slot order: the ascending `sources` of a
    /// positive graph, `None` for one every page consults — a negative
    /// graph, or one that could not be read — and per slot the one target
    /// of a positive graph that has one (slots past the end of `targets`
    /// have none). One pass for the sizes, which allocates the arena at
    /// its size, then two counting passes over the `sources`,
    /// O(Σ|sources| + `ni`): the biggest supernodes have thousands of
    /// pages and hundreds of superedges, and are where a probe's tail
    /// latency comes from.
    pub fn build<'a>(
        ni: u32,
        graphs: impl DoubleEndedIterator<Item = Option<&'a [u32]>> + Clone,
        targets: &[Option<u32>],
    ) -> Result<Self> {
        let (mut slots, mut always, mut rows, mut top) = (0u32, 0usize, 0usize, 0u32);
        for (sources, value) in graphs.clone().zip(values_of(targets)) {
            slots += 1;
            match sources {
                Some(sources) => {
                    rows += sources.len();
                    top = top.max(value);
                }
                None => always += 1,
            }
        }
        let total = u32::try_from(rows).map_err(|_| SNodeError::Corrupt("fanout overflows u32"))?;
        let width = Width::below(u64::from(total) + 1);
        let slot = Width::below(u64::from(slots));
        let target = Width::below(u64::from(top) + 1);
        let starts = width.after(0, ni as usize + 1);
        let all = slot.after(starts.end, always + rows);
        let values = target.after(all.end, slots as usize);
        let mut arena = vec![0u8; values.end];
        let (head, values_at) = arena.split_at_mut(values.start);
        let (head, slots_at) = head.split_at_mut(all.start);
        let slots_at = slots_at.get_mut(..all.len()).unwrap_or_default();
        let counts = head.get_mut(starts).unwrap_or_default();
        let (always_at, rows_at) = slots_at.split_at_mut(always * slot.bytes());
        // A graph every page consults answers no page with one target.
        let positive = graphs.clone().map(|sources| sources.is_some());
        for (k, (value, positive)) in values_of(targets).zip(positive).enumerate() {
            section::put(values_at, target, k, if positive { value } else { 0 });
        }
        let every_page = (0u32..)
            .zip(graphs.clone())
            .filter(|(_, sources)| sources.is_none());
        for (i, (k, _)) in every_page.enumerate() {
            section::put(always_at, slot, i, k);
        }
        // The row starts' width is named once, not matched per source.
        let rows = (counts, rows_at, slot);
        match width {
            Width::Zero => fill_rows::<0>(ni, slots, graphs, rows),
            Width::One => fill_rows::<1>(ni, slots, graphs, rows),
            Width::Two => fill_rows::<2>(ni, slots, graphs, rows),
            Width::Four => fill_rows::<4>(ni, slots, graphs, rows),
        }?;
        Ok(Self {
            arena: arena.into_boxed_slice(),
            ni,
            always: always as u32,
            degree: slots,
            starts: width,
            slots: slot,
            targets: target,
        })
    }

    /// The row starts, and every slot: `always`, then the rows.
    fn sections(&self) -> (Section<&[u8]>, Section<&[u8]>) {
        let n = self.ni + 1;
        let at = self.starts.after(0, n as usize);
        let starts = Section::cut(&self.arena, at.clone(), n, self.starts);
        let slots = self.always + starts.last().unwrap_or_default();
        let all = self.slots.after(at.end, slots as usize);
        (starts, Section::cut(&self.arena, all, slots, self.slots))
    }

    /// The ascending slots of the positive graphs holding a list for page
    /// `local` (empty for a page outside the supernode).
    pub fn slots_of(&self, local: u32) -> Section<&[u8]> {
        let (starts, slots) = self.sections();
        let (local, always) = (local as usize, self.always as usize);
        match (starts.get(local), starts.get(local + 1)) {
            (Some(lo), Some(hi)) => slots.slice(always + lo as usize..always + hi as usize),
            _ => Section::default(),
        }
    }

    /// The ascending slots every page of the supernode consults.
    pub fn always(&self) -> Section<&[u8]> {
        self.sections().1.slice(0..self.always as usize)
    }

    /// The one local target of slot `k`'s graph, when it is a
    /// single-target dictionary of one entry: what every page the graph
    /// lists links to. Read from the last section of the arena.
    pub fn target(&self, k: u32) -> Option<u32> {
        let end = self.arena.len();
        let at = end.saturating_sub(self.degree as usize * self.targets.bytes());
        let values = Section::cut(&self.arena, at..end, self.degree, self.targets);
        values.get(k as usize)?.checked_sub(1)
    }

    /// What the fanout is charged: its arena.
    fn heap_bytes(&self) -> usize {
        self.arena.len()
    }
}

/// Every slot's target value: 1 + its one target, 0 without one (and past
/// the end of `targets`).
fn values_of(targets: &[Option<u32>]) -> impl Iterator<Item = u32> + '_ {
    let values = targets.iter().map(|t| t.map_or(0, |t| t.saturating_add(1)));
    values.chain(std::iter::repeat(0))
}

/// [`Fanout::build`]'s two counting passes, over row starts of `W` bytes
/// each, then rows of `slot`'s width.
fn fill_rows<'a, const W: usize>(
    ni: u32,
    slots: u32,
    graphs: impl DoubleEndedIterator<Item = Option<&'a [u32]>> + Clone,
    (counts, rows, slot): (&mut [u8], &mut [u8], Width),
) -> Result<()> {
    // Count each page's slots where its row will start...
    for sources in graphs.clone().flatten() {
        for &src in sources {
            if src >= ni {
                return Err(out_of_range());
            }
            let count = section::load_at::<W>(counts, src as usize).unwrap_or_default();
            section::put_at::<W>(counts, src as usize, count + 1);
        }
    }
    // ...turn each count into the end of its row (the sentinel's is the
    // total)...
    let mut end = 0u32;
    for local in 0..=ni as usize {
        end += section::load_at::<W>(counts, local).unwrap_or_default();
        section::put_at::<W>(counts, local, end);
    }
    // ...and fill every row from its end, last slot first: the rows come
    // out ascending without a sort, and each end has moved back to where
    // its row starts.
    for (k, sources) in (0..slots).rev().zip(graphs.rev()) {
        for &src in sources.unwrap_or_default() {
            let src = src as usize;
            // Never below zero: this pass meets each page as often as the
            // counting pass did (and a wrap would miss the rows).
            let at = section::load_at::<W>(counts, src).map_or(u32::MAX, |at| at.wrapping_sub(1));
            section::put_at::<W>(counts, src, at);
            if !section::put(rows, slot, at as usize, k) {
                return Err(out_of_range());
            }
        }
    }
    Ok(())
}

/// Built where it is returned: an `SNodeError` built and dropped per
/// source, as `ok_or` would, tripled the time of the counting loops.
fn out_of_range() -> SNodeError {
    SNodeError::Corrupt("superedge source outside its supernode")
}

/// What the cache holds under a [`GraphKey`]: a compact header and at
/// most one arena behind it — an encoded graph's directory (an intranode
/// graph's list offsets; a superedge graph's `sources`, dictionary and
/// offsets) or a [`Fanout`]'s rows — beside the encoded bytes themselves.
///
/// The header opens the value, so that in the `Arc` the cache hands out
/// it shares the allocation's first cache line with the reference counts
/// (checked below): what a decode reads first — what the graph is, where
/// its arena lies and how it is cut — arrives with the line the `Arc`
/// clone already brought in. A warm superedge decode then touches that
/// line, the arena and, unless a single-target dictionary answers it, the
/// bytes.
#[derive(Debug)]
#[repr(C)]
pub struct CachedGraph {
    shape: Shape,
    /// Exact bit length of `data`.
    bit_len: u64,
    /// The encoded graph, borrowed from its index file's resident image;
    /// empty, and allocation-free, for a fanout.
    data: Blob,
}

/// What a [`CachedGraph`] is, with its arena.
#[derive(Debug)]
enum Shape {
    /// An intranode graph kept *encoded*, with its directory; individual
    /// lists decode on demand. This is the query-time resident form: it
    /// keeps a supernode's working set close to its on-disk size instead
    /// of its decoded size, which is what lets the §4.3 memory caps hold
    /// "all the intranode and superedge graphs relevant to a query" at
    /// once.
    Intra(ListsIndex),
    /// A superedge graph kept encoded, with its directory.
    Super(SuperedgeIndex),
    /// Not a graph: a supernode's [`Fanout`], cached, charged and evicted
    /// beside the graphs it points into.
    Fanout(Fanout),
}

/// The header — shape with its arena pointer, and the bit length — in the
/// 48 bytes an `Arc`'s two counts leave of a 64-byte line.
const _: () = assert!(std::mem::offset_of!(CachedGraph, data) <= 48);

impl CachedGraph {
    /// Wraps an encoded intranode graph with its parsed directory. The
    /// blob is borrowed from the resident image, which is held and counted
    /// whether or not the graph is cached, so the cache charges what the
    /// entry adds to it (see [`CachedGraph::bytes`]).
    pub fn new_encoded_intra(data: Blob, bit_len: u64, index: ListsIndex) -> Self {
        Self {
            shape: Shape::Intra(index),
            bit_len,
            data,
        }
    }

    /// Wraps an encoded superedge graph with its parsed directory (charged
    /// as [`CachedGraph::new_encoded_intra`] charges). `nj` is the `|Nj|`
    /// the index was parsed with, which it keeps.
    pub fn new_encoded_super(data: Blob, bit_len: u64, index: SuperedgeIndex, nj: u64) -> Self {
        debug_assert_eq!(index.nj(), nj, "parsed for another |Nj|");
        Self {
            shape: Shape::Super(index),
            bit_len,
            data,
        }
    }

    /// The fanout, when this entry is one.
    pub fn as_fanout(&self) -> Option<&Fanout> {
        match &self.shape {
            Shape::Fanout(fanout) => Some(fanout),
            _ => None,
        }
    }

    /// The positive target list of local id `local` (empty when absent).
    pub fn decode_list_for(&self, local: u32) -> crate::Result<Vec<u32>> {
        let mut out = Vec::new();
        self.decode_list_into(local, &mut DecodeScratch::default(), &mut out)?;
        Ok(out)
    }

    /// Decodes the target list of `local` into `out` (cleared first).
    ///
    /// This is the fast navigation path: `out` and `scratch` are the
    /// caller's and reused across calls, so a BFS level costs no per-page
    /// list allocation, and an entry is only ever read: a decode takes no
    /// lock.
    pub fn decode_list_into(
        &self,
        local: u32,
        scratch: &mut DecodeScratch,
        out: &mut Vec<u32>,
    ) -> crate::Result<()> {
        out.clear();
        let (data, bit_len) = (&self.data, self.bit_len);
        match &self.shape {
            Shape::Intra(index) => index.decode_list_into(data, bit_len, local, scratch, out),
            Shape::Super(index) => {
                let s = u64::from(local);
                index.targets_of_into(data, bit_len, s, index.nj(), scratch, out)
            }
            Shape::Fanout(_) => Err(SNodeError::Corrupt("a fanout stores no lists")),
        }
    }

    /// What the entry owns, which drives eviction: the value itself and
    /// its arena. Not `data`: the resident image it borrows from is
    /// counted once, as the handle's `resident_bytes`.
    pub fn bytes(&self) -> usize {
        let arena = match &self.shape {
            Shape::Intra(index) => index.heap_bytes(),
            Shape::Super(index) => index.heap_bytes(),
            Shape::Fanout(fanout) => fanout.heap_bytes(),
        };
        std::mem::size_of::<Self>() + arena
    }
}

impl From<Fanout> for CachedGraph {
    /// A fanout as a cache entry, charged its arena and the fixed part.
    fn from(fanout: Fanout) -> Self {
        Self {
            shape: Shape::Fanout(fanout),
            bit_len: 0,
            data: Blob::default(),
        }
    }
}

/// One cache instrumentation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A graph was decoded into the cache.
    Load(GraphKey),
    /// A graph was evicted to make room.
    Unload(GraphKey),
}

/// Aggregate cache statistics: a point-in-time view over the cache's
/// [`wg_obs::CacheMetrics`] counters (the counters are the source of
/// truth; under `--metrics` they are shared with the global registry as
/// `core.cache.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphCacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups requiring a load.
    pub misses: u64,
    /// Graphs evicted.
    pub evictions: u64,
    /// Total bytes decoded over the lifetime (load traffic).
    pub bytes_loaded: u64,
    /// The part of `bytes_loaded` charged for intranode graphs.
    pub bytes_loaded_intra: u64,
    /// The part charged for superedge graphs.
    pub bytes_loaded_super: u64,
    /// The part charged for fanouts.
    pub bytes_loaded_fanout: u64,
}

/// The most shards [`GraphCache::new`] cuts a budget into. Power of two,
/// sized for the thread-per-core wg-serve front-end: enough shards that
/// concurrent readers rarely collide on one lock.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// The least budget [`GraphCache::new`] gives a shard. The largest
/// supernodes' fanout and intranode entries are 50–200 KB each: in a
/// smaller shard one of them evicts everything else and is itself gone
/// before the next probe into its supernode (measured in DESIGN.md §5f).
const MIN_SHARD_BUDGET: usize = 1 << 20;

/// Sharded LRU cache of decoded graphs under a byte budget.
///
/// The cache is the interior-mutability layer of the shared read path
/// (DESIGN.md §5f): the decoded representation itself is immutable after
/// open, and all query-time mutation — admissions, evictions, recency —
/// lives behind per-shard mutexes here, so every navigation API can take
/// `&self` and the whole [`crate::SNode`] becomes `Sync`.
///
/// Shard selection is FNV-1a over the [`GraphKey`] fields — deliberately
/// *not* `std`'s per-process-seeded hasher, so the shard a key lands in
/// (and therefore the hit/miss/eviction counters the bench gate compares)
/// is identical across processes and runs. Each shard owns an equal slice
/// of the byte budget and runs the same unique-tick LRU the unsharded
/// cache used. The tick is the shard's own, bumped under the lock every
/// touch already holds: eviction only ever compares ticks within one
/// shard, so a tick per shard orders its victims exactly as one
/// process-wide counter would. A hit is one lock, one lookup in the
/// shard's map and one bump of the `core.cache.hits` counter.
#[derive(Debug)]
pub struct GraphCache {
    budget: usize,
    shards: Vec<Mutex<Shard>>,
    metrics: wg_obs::CacheMetrics,
    /// `metrics.bytes_loaded` by kind of key, in [`KEY_KINDS`] order:
    /// `core.cache.bytes_loaded.{intra,super,fanout}` under `--metrics`.
    loaded_by_kind: [wg_obs::Counter; 3],
    /// Once set, every load/unload is appended here (the paper's log).
    /// Unset, recording an event costs one load and no lock.
    log: OnceLock<Mutex<Vec<CacheEvent>>>,
}

/// Folds a [`GraphKey`]'s discriminant and ids — all a shard's map ever
/// hashes — with a rotate, xor and multiply per word. Fixed, not seeded
/// per process like `std`'s default: the keys are supernode ids out of a
/// checksummed `meta.bin`, dense small integers, not input an adversary
/// picks to collide, and SipHash was a third of a hit.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    fn write_isize(&mut self, v: isize) {
        self.fold(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<GraphKey, Entry, BuildHasherDefault<KeyHasher>>,
    /// Eviction order as of the last scan of `map`: `(last_used, key)`,
    /// oldest last. See [`Shard::evict_lru`].
    victims: Vec<(u64, GraphKey)>,
    used: usize,
    budget: usize,
    /// The stamp of the shard's latest touch; see [`Shard::touch`].
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    graph: Arc<CachedGraph>,
    last_used: u64,
}

impl Shard {
    /// A fresh stamp, above every one this shard has handed out.
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts the exact least recently used graph; `None` when empty.
    ///
    /// A hit stamps its entry with a fresh tick and does nothing else, so
    /// finding the least tick takes a scan — but one scan serves many
    /// evictions. The scan sorts every `(tick, key)` into `victims`; an
    /// entry touched, replaced or stored after it carries a tick above
    /// all of those, so the oldest candidate whose tick still stands in
    /// the map *is* the shard's least recently used graph, and candidates
    /// that no longer match are skipped. The next scan happens when the
    /// candidates run out: amortised O(log n) per eviction where the scan
    /// per eviction it replaces was O(n), with nothing added to a hit.
    fn evict_lru(&mut self) -> Option<GraphKey> {
        loop {
            let Some((stamp, key)) = self.victims.pop() else {
                if self.map.is_empty() {
                    return None;
                }
                self.victims
                    .extend(self.map.iter().map(|(&k, e)| (e.last_used, k)));
                self.victims
                    .sort_unstable_by_key(|&(stamp, _)| std::cmp::Reverse(stamp));
                continue;
            };
            if self.map.get(&key).is_some_and(|e| e.last_used == stamp) {
                let evicted = self.map.remove(&key)?;
                self.used -= evicted.graph.bytes();
                return Some(key);
            }
        }
    }
}

/// Small-integer → static string for allocation-free trace args (shard
/// ids; counts beyond the table collapse to one label).
fn itoa(i: usize) -> &'static str {
    const NAMES: [&str; 16] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
    ];
    NAMES.get(i).copied().unwrap_or("16+")
}

/// FNV-1a over the key's discriminant and fields: the deterministic shard
/// hash (see the [`GraphCache`] docs for why `std`'s seeded hasher would
/// break the bench determinism gate).
fn shard_hash(key: &GraphKey) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    fn eat(mut h: u64, v: u32) -> u64 {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h
    }
    match *key {
        GraphKey::Intra(s) => eat(eat(OFFSET, 1), s),
        GraphKey::Super(i, j) => eat(eat(eat(OFFSET, 2), i), j),
        GraphKey::Fanout(s) => eat(eat(OFFSET, 3), s),
    }
}

impl GraphCache {
    /// Creates a cache bounded by `budget_bytes` of decoded graph data, in
    /// as many shards as leave each at least 1 MiB, from one — a budget
    /// that holds a few hundred graphs is one LRU — to
    /// [`DEFAULT_CACHE_SHARDS`].
    pub fn new(budget_bytes: usize) -> Self {
        let shards = (budget_bytes / MIN_SHARD_BUDGET).clamp(1, DEFAULT_CACHE_SHARDS);
        Self::with_shards(budget_bytes, shards)
    }

    /// Creates a cache with an explicit shard count (1 = the classic
    /// global-LRU behaviour; tests that reason about eviction order use
    /// this).
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let budget = budget_bytes.max(1);
        let per_shard = (budget / n).max(1);
        Self {
            budget,
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        budget: per_shard,
                        ..Shard::default()
                    })
                })
                .collect(),
            metrics: wg_obs::CacheMetrics::auto("core.cache"),
            loaded_by_kind: KEY_KINDS.map(|kind| match wg_obs::metrics_enabled() {
                true => wg_obs::global().counter(&format!("core.cache.bytes_loaded.{kind}")),
                false => wg_obs::Counter::default(),
            }),
            log: OnceLock::new(),
        }
    }

    fn shard_index(&self, key: &GraphKey) -> usize {
        (shard_hash(key) % self.shards.len() as u64) as usize
    }

    /// Enables event logging (disabled by default; the log grows unbounded
    /// while enabled).
    pub fn enable_log(&self) {
        self.log.get_or_init(Mutex::default);
    }

    /// Takes the accumulated event log, leaving logging enabled.
    pub fn take_log(&self) -> Vec<CacheEvent> {
        self.log
            .get()
            .map_or_else(Vec::new, |log| std::mem::take(&mut *log.lock()))
    }

    /// Total byte budget (split evenly across shards).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Bytes currently cached, summed over shards.
    pub fn used(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used).sum()
    }

    /// Number of graphs currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Statistics so far (a view over the obs counters).
    pub fn stats(&self) -> GraphCacheStats {
        let [intra, superedge, fanout] = &self.loaded_by_kind;
        GraphCacheStats {
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            evictions: self.metrics.evictions.get(),
            bytes_loaded: self.metrics.bytes_loaded.get(),
            bytes_loaded_intra: intra.get(),
            bytes_loaded_super: superedge.get(),
            bytes_loaded_fanout: fanout.get(),
        }
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&self) {
        self.metrics.reset();
        self.loaded_by_kind.iter().for_each(wg_obs::Counter::reset);
    }

    /// Looks up a graph, bumping its recency.
    pub fn get(&self, key: GraphKey) -> Option<Arc<CachedGraph>> {
        let mut shard = self.shards[self.shard_index(&key)].lock();
        let tick = shard.touch();
        match shard.map.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                self.metrics.hits.inc();
                Some(Arc::clone(&e.graph))
            }
            None => {
                self.metrics.misses.inc();
                None
            }
        }
    }

    /// Inserts a freshly decoded graph, evicting LRU entries from its
    /// shard as needed. A graph larger than the whole shard budget is
    /// still admitted (the query could not proceed otherwise) after
    /// evicting everything else in the shard.
    pub fn insert(&self, key: GraphKey, graph: CachedGraph) -> Arc<CachedGraph> {
        let bytes = graph.bytes();
        let kind = key_kind(&key);
        self.metrics.bytes_loaded.add(bytes as u64);
        self.loaded_by_kind[kind].add(bytes as u64);
        self.log_event(CacheEvent::Load(key));
        let i = self.shard_index(&key);
        if wg_obs::trace_enabled() {
            // One event per cache load — rare (miss-bounded), and the
            // shard id arg is what makes FNV routing skew visible on the
            // trace timeline.
            let sw = Stopwatch::start();
            wg_obs::record_span_args(
                "core.cache.load",
                "core",
                &sw,
                &[("shard", itoa(i)), ("kind", KEY_KINDS[kind])],
            );
        }
        let mut shard = self.shards[i].lock();
        let tick = shard.touch();
        // Evict until it fits (or nothing is left to evict).
        while shard.used + bytes > shard.budget {
            let Some(victim) = shard.evict_lru() else {
                break;
            };
            self.metrics.evictions.inc();
            self.log_event(CacheEvent::Unload(victim));
        }
        let arc = Arc::new(graph);
        let prev = shard.map.insert(
            key,
            Entry {
                graph: Arc::clone(&arc),
                last_used: tick,
            },
        );
        if let Some(p) = prev {
            shard.used -= p.graph.bytes();
        }
        shard.used += bytes;
        arc
    }

    /// Drops `key`'s entry, if cached (an unload in the event log, not
    /// an eviction in the statistics).
    pub fn remove(&self, key: GraphKey) {
        let mut shard = self.shards[self.shard_index(&key)].lock();
        if let Some(e) = shard.map.remove(&key) {
            shard.used -= e.graph.bytes();
            drop(shard);
            self.log_event(CacheEvent::Unload(key));
        }
    }

    /// Drops every cached graph (cold start between experiment runs).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock();
            let unloads: Vec<GraphKey> = shard.map.keys().copied().collect();
            shard.map.clear();
            shard.victims.clear();
            shard.used = 0;
            drop(shard);
            for k in unloads {
                self.log_event(CacheEvent::Unload(k));
            }
        }
    }

    fn log_event(&self, ev: CacheEvent) {
        if let Some(log) = self.log.get() {
            log.lock().push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraphs::Layout;

    /// `bytes` as the read path hands a graph over: a slice of a resident
    /// image.
    fn blob(bytes: Vec<u8>) -> Blob {
        let len = bytes.len();
        wg_store::Region::from_vec(bytes)
            .slice(0, len)
            .expect("the whole region")
    }

    /// `lists` as an encoded intranode graph, admitted as a probe admits one.
    fn encoded_intra(lists: &[Vec<u32>], mode: crate::refenc::RefMode) -> CachedGraph {
        let codec = crate::codec::ListCodec;
        let enc = crate::refenc::encode_lists(lists, lists.len() as u64, mode, codec);
        let universe = crate::refenc::Universe::SameAsCount;
        let index = ListsIndex::parse(&enc.bytes, enc.bit_len, universe, codec).expect("parse");
        CachedGraph::new_encoded_intra(blob(enc.bytes), enc.bit_len, index)
    }

    /// An encoded graph of empty lists charged within 3 % of `bytes_target`
    /// (and no less than an empty graph, a few bytes above the value's
    /// size): each list costs its offset — two bytes, for the graphs of a
    /// few hundred to 32 768 lists these tests size.
    fn graph_of(bytes_target: usize) -> CachedGraph {
        let empty = std::mem::size_of::<CachedGraph>() + 8;
        let lists = bytes_target.saturating_sub(empty) / 2;
        encoded_intra(&vec![Vec::new(); lists], crate::refenc::RefMode::None)
    }

    #[test]
    fn hit_after_insert() {
        let c = GraphCache::new(1 << 20);
        assert!(c.get(GraphKey::Intra(3)).is_none());
        c.insert(GraphKey::Intra(3), graph_of(500));
        assert!(c.get(GraphKey::Intra(3)).is_some());
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn lru_eviction_under_budget_pressure() {
        let c = GraphCache::with_shards(10_000, 1);
        for i in 0..10u32 {
            c.insert(GraphKey::Intra(i), graph_of(3_000));
        }
        assert!(c.used() <= 10_000);
        assert!(c.stats().evictions > 0);
        // The most recent keys survive.
        assert!(c.get(GraphKey::Intra(9)).is_some());
        assert!(c.get(GraphKey::Intra(0)).is_none());
    }

    #[test]
    fn recently_used_graphs_survive() {
        let c = GraphCache::with_shards(10_000, 1);
        c.insert(GraphKey::Intra(0), graph_of(3_000));
        c.insert(GraphKey::Intra(1), graph_of(3_000));
        c.insert(GraphKey::Intra(2), graph_of(3_000));
        // Touch 0 so 1 becomes LRU.
        assert!(c.get(GraphKey::Intra(0)).is_some());
        c.insert(GraphKey::Intra(3), graph_of(3_000));
        assert!(c.get(GraphKey::Intra(0)).is_some(), "0 was touched");
        assert!(c.get(GraphKey::Intra(1)).is_none(), "1 was LRU");
    }

    /// Reference model: the policy in its plainest form — one tick for the
    /// whole cache, stamped on every touch (how this cache kept it before
    /// each shard had its own), keys routed by [`shard_hash`], the victim
    /// found by scanning its shard for the least tick at every eviction.
    struct MinScanLru {
        /// Per shard, its `(key, bytes, last touch)`.
        shards: Vec<Vec<(GraphKey, usize, u64)>>,
        shard_budget: usize,
        tick: u64,
    }

    impl MinScanLru {
        fn new(budget: usize, shards: usize) -> Self {
            Self {
                shards: vec![Vec::new(); shards],
                shard_budget: budget / shards,
                tick: 0,
            }
        }

        fn shard_of(&mut self, key: GraphKey) -> &mut Vec<(GraphKey, usize, u64)> {
            let i = shard_hash(&key) % self.shards.len() as u64;
            &mut self.shards[i as usize]
        }

        fn get(&mut self, key: GraphKey) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let hit = self.shard_of(key).iter_mut().find(|e| e.0 == key);
            hit.map(|e| e.2 = tick).is_some()
        }

        /// Returns the victims, in eviction order.
        fn insert(&mut self, key: GraphKey, bytes: usize) -> Vec<GraphKey> {
            self.tick += 1;
            let (tick, budget) = (self.tick, self.shard_budget);
            let entries = self.shard_of(key);
            let mut victims = Vec::new();
            while entries.iter().map(|e| e.1).sum::<usize>() + bytes > budget {
                let Some(lru) = (0..entries.len()).min_by_key(|&i| entries[i].2) else {
                    break;
                };
                victims.push(entries.remove(lru).0);
            }
            entries.retain(|e| e.0 != key);
            entries.push((key, bytes, tick));
            victims
        }

        fn used(&self) -> usize {
            self.shards.iter().flatten().map(|e| e.1).sum()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Hits, misses, the victim sequence and the bytes in use all
        /// repeat the min-scan model's, touch for touch — in one shard,
        /// and in four, where a tick per shard has to evict the keys one
        /// tick for the whole cache would, in the same order.
        #[test]
        fn eviction_order_is_what_a_scan_per_eviction_would_give(
            ops in proptest::collection::vec(
                (proptest::any::<bool>(), 0u32..24, 1usize..8), 1..160),
        ) {
            for shards in [1usize, 4] {
                let cache = GraphCache::with_shards(10_000 * shards, shards);
                cache.enable_log();
                let mut model = MinScanLru::new(10_000 * shards, shards);
                for &(is_get, k, size) in &ops {
                    // Two key kinds, so that equal ids never alias.
                    let key = if k % 2 == 0 { GraphKey::Intra(k) } else { GraphKey::Super(k, k + 1) };
                    if is_get {
                        proptest::prop_assert_eq!(cache.get(key).is_some(), model.get(key));
                        continue;
                    }
                    let graph = graph_of(size * 900);
                    let want = model.insert(key, graph.bytes());
                    cache.insert(key, graph);
                    let got: Vec<GraphKey> = cache
                        .take_log()
                        .into_iter()
                        .filter_map(|ev| match ev {
                            CacheEvent::Unload(victim) => Some(victim),
                            CacheEvent::Load(_) => None,
                        })
                        .collect();
                    proptest::prop_assert_eq!(got, want, "{} shards", shards);
                    proptest::prop_assert_eq!(cache.used(), model.used());
                    proptest::prop_assert_eq!(cache.len(), model.shards.iter().flatten().count());
                }
            }
        }
    }

    #[test]
    fn oversized_graph_is_still_admitted() {
        let c = GraphCache::with_shards(1_000, 1);
        c.insert(GraphKey::Intra(0), graph_of(500));
        c.insert(GraphKey::Super(1, 2), graph_of(50_000));
        assert!(c.get(GraphKey::Super(1, 2)).is_some());
        assert!(c.get(GraphKey::Intra(0)).is_none(), "evicted for the giant");
    }

    #[test]
    fn reinsert_same_key_does_not_leak_bytes() {
        let c = GraphCache::new(1 << 20);
        c.insert(GraphKey::Intra(7), graph_of(2_000));
        let used_once = c.used();
        c.insert(GraphKey::Intra(7), graph_of(2_000));
        assert_eq!(c.used(), used_once);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shard_hash_is_process_independent() {
        // Pinned values: the shard a key lands in must never depend on a
        // per-process hasher seed, or the bench hit/miss counters drift
        // between the two CI passes. These constants are the FNV-1a
        // definition applied by hand.
        assert_eq!(shard_hash(&GraphKey::Intra(0)) % 8, 4);
        assert_eq!(shard_hash(&GraphKey::Super(0, 0)) % 8, 7);
        assert_eq!(
            shard_hash(&GraphKey::Intra(42)),
            shard_hash(&GraphKey::Intra(42))
        );
        assert_ne!(
            shard_hash(&GraphKey::Intra(1)),
            shard_hash(&GraphKey::Super(1, 1))
        );
    }

    #[test]
    fn sharded_cache_is_shared_across_threads() {
        let c = std::sync::Arc::new(GraphCache::new(1 << 20));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..64u32 {
                        let key = GraphKey::Intra(t * 64 + i);
                        c.insert(key, graph_of(500));
                        assert!(c.get(key).is_some());
                    }
                });
            }
        });
        assert_eq!(c.len(), 256);
    }

    #[test]
    fn shard_count_follows_the_budget() {
        for (mib, shards) in [(0usize, 1usize), (1, 1), (2, 2), (3, 3), (8, 8), (256, 8)] {
            let c = GraphCache::new(mib << 20);
            assert_eq!(c.num_shards(), shards, "{mib} MiB");
        }
        assert_eq!(GraphCache::new((2 << 20) - 1).num_shards(), 1);
    }

    #[test]
    fn bytes_loaded_splits_by_key_kind() {
        let c = GraphCache::new(1 << 20);
        let sizes = [
            (GraphKey::Intra(0), 1_000),
            (GraphKey::Super(0, 1), 2_000),
            (GraphKey::Fanout(0), 3_000),
            (GraphKey::Super(0, 2), 4_000),
        ];
        let mut charged = [0u64; 4];
        for (i, (key, size)) in sizes.into_iter().enumerate() {
            let graph = graph_of(size);
            charged[i] = graph.bytes() as u64;
            c.insert(key, graph);
        }
        let s = c.stats();
        assert_eq!(s.bytes_loaded_intra, charged[0]);
        assert_eq!(s.bytes_loaded_super, charged[1] + charged[3]);
        assert_eq!(s.bytes_loaded_fanout, charged[2]);
        assert_eq!(s.bytes_loaded, charged.iter().sum::<u64>());
        c.reset_stats();
        assert_eq!(c.stats(), GraphCacheStats::default());
    }

    /// A superedge graph `Ni → Nj` over `ni` source pages, `nj` = 8.
    fn superedge_index(ni: usize, links: &[(usize, Vec<u32>)]) -> SuperedgeIndex {
        let mut pos = vec![Vec::new(); ni];
        for (src, targets) in links {
            pos[*src] = targets.clone();
        }
        let enc = crate::subgraphs::encode_superedge(
            &pos,
            8,
            crate::refenc::RefMode::Windowed(4),
            crate::subgraphs::SuperedgePolicy::EncodedSize,
        );
        let codec = crate::codec::ListCodec;
        SuperedgeIndex::parse(&enc.bytes, enc.bit_len, ni as u64, 8, codec).expect("parse")
    }

    #[test]
    fn fanout_rows_name_the_graphs_that_list_a_page() {
        let everything: Vec<u32> = (0..8).collect();
        let graphs = [
            superedge_index(6, &[(1, vec![3]), (4, vec![0, 7])]),
            // Every page links to every target: stored negative.
            superedge_index(
                6,
                &(0..6).map(|s| (s, everything.clone())).collect::<Vec<_>>(),
            ),
            superedge_index(6, &[(4, vec![2])]),
            superedge_index(6, &[(0, vec![1]), (4, vec![5]), (5, vec![6])]),
        ];
        assert!(graphs[1].positive_sources().is_none(), "negative");
        // Slot 2 could not be read.
        let sources =
            |k: usize| -> Option<Vec<u32>> { Some(graphs[k].positive_sources()?.iter().collect()) };
        let slots = [sources(0), sources(1), None, sources(3)];
        // Slot 2's graph has one target, but no page is sent to it.
        let targets: Vec<Option<u32>> = graphs.iter().map(SuperedgeIndex::one_target).collect();
        assert_eq!(targets, [None, None, Some(2), None]);
        let fanout = Fanout::build(6, slots.iter().map(Option::as_deref), &targets).expect("build");
        assert_eq!(fanout.always().iter().collect::<Vec<_>>(), [1, 2]);
        assert!((0..5).all(|k| fanout.target(k).is_none()));
        let rows: Vec<Vec<u32>> = (0..7)
            .map(|local| fanout.slots_of(local).iter().collect())
            .collect();
        let expect: [&[u32]; 7] = [&[3], &[0], &[], &[], &[0, 3], &[3], &[]];
        assert_eq!(rows, expect, "page 6 is outside the supernode");
        assert!(fanout.slots_of(4).contains(3) && !fanout.slots_of(4).contains(1));
        let cached = CachedGraph::from(fanout);
        assert_eq!(
            cached.bytes(),
            7 + (2 + 5) + std::mem::size_of::<CachedGraph>(),
            "seven row starts up to 5, then `always` and five rows of four slots: a byte each"
        );
        assert!(
            cached.decode_list_for(0).is_err(),
            "a fanout stores no lists"
        );

        // A graph parsed for a larger supernode than the one it is filed
        // under is refused, not indexed out of range.
        let err = Fanout::build(4, [sources(0).as_deref()].into_iter(), &[]);
        assert!(matches!(err, Err(SNodeError::Corrupt(_))));
    }

    /// The fanout in the form it replaced, kept as the model: the same two
    /// counting passes into `u32` rows. `(offsets, rows, always)`.
    type ModelFanout = (Vec<u32>, Vec<u32>, Vec<u32>);

    fn model_fanout(ni: u32, graphs: &[Option<Vec<u32>>]) -> Option<ModelFanout> {
        let mut offsets = vec![0u32; ni as usize + 1];
        let mut always = Vec::new();
        for (k, sources) in (0u32..).zip(graphs) {
            let Some(sources) = sources else {
                always.push(k);
                continue;
            };
            for &src in sources {
                *offsets.get_mut(src as usize + 1)? += 1;
            }
        }
        let mut total = 0u32;
        for o in &mut offsets {
            total += *o;
            *o = total;
        }
        let mut rows = vec![0u32; total as usize];
        let mut next = offsets.clone();
        for (k, sources) in (0u32..).zip(graphs) {
            for &src in sources.iter().flatten() {
                rows[next[src as usize] as usize] = k;
                next[src as usize] += 1;
            }
        }
        Some((offsets, rows, always))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Rows and `always` are what the `u32` build gives for any mix of
        /// positive, negative and unreadable slots — at the width the
        /// out-degree needs, four bytes past 65 536 out-superedges, and
        /// row starts at the width their total needs — and a source
        /// outside the supernode is `Corrupt`, neither a panic nor a write
        /// out of bounds.
        #[test]
        fn fanout_answers_as_the_u32_rows_it_replaced(
            ni in 0u32..40,
            slots in proptest::collection::vec(
                (0u32..5, proptest::collection::btree_set(0u32..40, 0..12)),
                0..24,
            ),
            many_slots in proptest::any::<bool>(),
            stray in (0u32..5, 0usize..24, 0u32..3),
            targets in proptest::collection::vec((0u32..3, 0u32..70_000), 0..30),
        ) {
            // None, a byte's worth, or up to three bytes' worth.
            let targets: Vec<Option<u32>> = (targets.into_iter())
                .map(|(kind, v)| [None, Some(v % 255), Some(v)][kind as usize])
                .collect();
            // Sources inside the supernode, then at most one stray beyond it.
            let mut graphs: Vec<Option<Vec<u32>>> = slots
                .into_iter()
                .map(|(kind, sources)| {
                    // One slot in five is negative or unreadable.
                    (kind > 0).then(|| sources.into_iter().filter(|&src| src < ni).collect())
                })
                .collect();
            if many_slots {
                // Empty positive graphs ahead of the rest push every slot
                // that matters past what sixteen bits hold.
                graphs.splice(0..0, vec![Some(Vec::new()); 1 << 16]);
            }
            let mut strayed = false;
            if let (0, k, beyond) = stray {
                let at = graphs.len().saturating_sub(1 + k % graphs.len().max(1));
                if let Some(Some(sources)) = graphs.get_mut(at) {
                    sources.push(ni + beyond);
                    strayed = true;
                }
            }
            let built = Fanout::build(ni, graphs.iter().map(Option::as_deref), &targets);
            let model = model_fanout(ni, &graphs);
            proptest::prop_assert_eq!(model.is_none(), strayed);
            let Some((offsets, rows, always)) = model else {
                proptest::prop_assert!(matches!(built, Err(SNodeError::Corrupt(_))));
                return Ok(());
            };
            let built = built.expect("every source inside the supernode");
            let total = u64::from(offsets[ni as usize]);
            proptest::prop_assert_eq!(built.starts, Width::below(total + 1));
            proptest::prop_assert_eq!(
                built.slots == Width::Four,
                graphs.len() > 1 << 16,
                "{} slots", graphs.len()
            );
            // A slot every page consults has no target.
            let want: Vec<Option<u32>> = (0..graphs.len())
                .map(|k| graphs[k].as_ref().and(targets.get(k).copied().flatten()))
                .collect();
            let top = want.iter().flatten().map(|&t| t + 1).max().unwrap_or(0);
            proptest::prop_assert_eq!(built.targets, Width::below(u64::from(top) + 1));
            let got: Vec<Option<u32>> = (0..graphs.len() as u32).map(|k| built.target(k)).collect();
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(built.target(graphs.len() as u32), None);
            let starts = (ni as usize + 1) * built.starts.bytes();
            let slots = (always.len() + total as usize) * built.slots.bytes();
            let values = graphs.len() * built.targets.bytes();
            proptest::prop_assert!(built.heap_bytes() <= starts + 3 + slots + 3 + values);
            proptest::prop_assert_eq!(built.always().iter().collect::<Vec<_>>(), always);
            for local in 0..ni + 2 {
                let want = match offsets.get(local as usize..local as usize + 2) {
                    Some(&[lo, hi]) => &rows[lo as usize..hi as usize],
                    _ => &[],
                };
                let got: Vec<u32> = built.slots_of(local).iter().collect();
                proptest::prop_assert_eq!(&got[..], want, "page {}", local);
                for k in (0..graphs.len() as u32 + 1).rev().take(30) {
                    proptest::prop_assert_eq!(
                        built.slots_of(local).contains(k),
                        want.contains(&k)
                    );
                }
            }
        }
    }

    /// A fanout's sections at the edges of their widths answer as the
    /// `u32` model: one out-superedge (slots of no bytes), 256 and 257 of
    /// them (one byte, then two), and row-entry totals either side of 2⁸
    /// and 2¹⁶ (row starts of one, two and four bytes).
    #[test]
    fn fanout_sections_at_their_width_edges_answer_as_the_u32_model() {
        let mut seen = std::collections::BTreeSet::new();
        // (out-superedges, pages, sources per positive graph)
        let cases = [
            (1u32, 300u32, 255u32),
            (1, 300, 256),
            (2, 40, 20),
            (256, 4, 1),
            (257, 4, 1),
            (3, 30_000, 21_845),
            (3, 30_000, 21_846),
        ];
        for (slots, ni, per_graph) in cases {
            // The second of two graphs is negative.
            let graphs: Vec<Option<Vec<u32>>> = (0..slots)
                .map(|k| {
                    let mut sources: Vec<u32> = (k..k + per_graph).map(|p| p % ni).collect();
                    sources.sort_unstable();
                    (slots != 2 || k != 1).then_some(sources)
                })
                .collect();
            let built = Fanout::build(ni, graphs.iter().map(Option::as_deref), &[]).expect("build");
            let (offsets, rows, always) = model_fanout(ni, &graphs).expect("inside");
            let total = u64::from(offsets[ni as usize]);
            assert_eq!(built.starts, Width::below(total + 1), "{total} rows");
            assert_eq!(built.slots, Width::below(u64::from(slots)));
            seen.insert(built.starts);
            seen.insert(built.slots);
            assert!(built.always().iter().eq(always.iter().copied()));
            for local in 0..=ni {
                let want = match offsets.get(local as usize..local as usize + 2) {
                    Some(&[lo, hi]) => &rows[lo as usize..hi as usize],
                    _ => &[],
                };
                assert!(
                    built.slots_of(local).iter().eq(want.iter().copied()),
                    "page {local}"
                );
            }
        }
        let widths: Vec<Width> = seen.into_iter().collect();
        assert_eq!(widths, [Width::Zero, Width::One, Width::Two, Width::Four]);
    }

    /// Every kind of entry is charged its header and its arena — each
    /// section at its width, from a multiple of it, and nothing past the
    /// last — and not the blob it borrows from the resident image.
    #[test]
    fn every_entry_is_charged_its_header_and_arena() {
        // The header every entry is charged: a field that comes or goes in
        // a graph's directory must not move it, and with it every eviction.
        let header = std::mem::size_of::<CachedGraph>();
        assert_eq!(std::mem::size_of::<SuperedgeIndex>(), 32);
        assert_eq!(header, 80);
        let offsets = crate::refenc::offset_width;
        let codec = crate::codec::ListCodec;

        let lists: Vec<Vec<u32>> = (0..300u32).map(|i| vec![i % 7, 200 + i % 50]).collect();
        let mode = crate::refenc::RefMode::Windowed(8);
        let enc = crate::refenc::encode_lists(&lists, 300, mode, codec);
        let universe = crate::refenc::Universe::SameAsCount;
        let index = ListsIndex::parse(&enc.bytes, enc.bit_len, universe, codec).expect("parse");
        let arena = 301 * offsets(enc.bit_len).bytes();
        let g = CachedGraph::new_encoded_intra(blob(enc.bytes), enc.bit_len, index);
        assert_eq!(g.bytes(), header + arena, "intranode graph");

        // Every other page of `ni` a source, as `list` has it.
        let every_other = |ni: u32, list: &dyn Fn(u32) -> Vec<u32>| -> Vec<Vec<u32>> {
            (0..ni)
                .map(|p| if p % 2 == 0 { list(p / 2) } else { Vec::new() })
                .collect()
        };
        let templates = [[2, 7, 30, 41], [3, 7, 33, 60], [0, 9, 30, 62]];
        let missing = |p: u32| [p % 200, (p % 200 + 1 + p / 200) % 200];
        let shapes = [
            (
                every_other(40, &|i| vec![i, i + 20_000, i + 40_000]),
                60_000,
                Layout::Lists,
            ),
            (
                every_other(400, &|i| vec![[1, 5, 9, 13][i as usize % 4]]),
                16,
                Layout::SingleTargets,
            ),
            (
                every_other(40, &|i| templates[i as usize % 3].to_vec()),
                64,
                Layout::ListDictionary,
            ),
            (
                (0..30)
                    .map(|p| (0..200).filter(|t| !missing(p).contains(t)).collect())
                    .collect(),
                200,
                Layout::Lists,
            ),
        ];
        for (dense, nj, layout) in shapes {
            let ni = dense.len() as u64;
            let mode = crate::refenc::RefMode::None;
            let policy = crate::subgraphs::SuperedgePolicy::EncodedSize;
            let enc = crate::subgraphs::encode_superedge(&dense, nj, mode, policy);
            let index =
                SuperedgeIndex::parse(&enc.bytes, enc.bit_len, ni, nj, codec).expect("parse");
            assert_eq!(index.layout(), layout);
            let positive = index.positive_sources().is_some();
            let sources = dense.iter().filter(|l| positive && !l.is_empty()).count();
            let distinct = dense
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                - 1;
            let stored = if positive { sources } else { ni as usize };
            let sources_at = Width::below(ni).after(0, sources);
            let arena = match layout {
                Layout::Lists => offsets(enc.bit_len).after(sources_at.end, stored + 1).end,
                Layout::SingleTargets | Layout::ListDictionary => {
                    let indexes = Width::below(distinct as u64).after(sources_at.end, sources);
                    match layout {
                        Layout::SingleTargets => Width::below(nj).after(indexes.end, distinct).end,
                        _ => offsets(enc.bit_len).after(indexes.end, distinct + 1).end,
                    }
                }
            };
            assert_eq!(index.heap_bytes(), arena, "{layout:?}, positive {positive}");
            let g = CachedGraph::new_encoded_super(blob(enc.bytes), enc.bit_len, index, nj);
            assert!(!g.data.is_empty());
            assert_eq!(g.bytes(), header + arena, "{layout:?}, positive {positive}");
        }

        // A fanout of 40 pages over three positive graphs and a negative
        // one; the third has one target, page 300 of its supernode.
        let graphs = [
            Some(vec![1, 2, 3]),
            None,
            Some(vec![0, 39]),
            Some((0..40).collect()),
        ];
        let targets = [None, None, Some(300), None];
        let fanout = Fanout::build(40, graphs.iter().map(Option::as_deref), &targets);
        let starts = Width::One.after(0, 41);
        let slots = Width::One.after(starts.end, 1 + 45);
        let arena = Width::Two.after(slots.end, 4).end;
        let cached = CachedGraph::from(fanout.expect("build"));
        assert_eq!(cached.bytes(), header + arena, "fanout");
    }

    #[test]
    fn remove_frees_the_bytes_and_is_not_an_eviction() {
        let c = GraphCache::new(1 << 20);
        c.enable_log();
        c.insert(GraphKey::Fanout(3), graph_of(2_000));
        c.insert(GraphKey::Intra(3), graph_of(1_000));
        let both = c.used();
        c.remove(GraphKey::Fanout(3));
        c.remove(GraphKey::Fanout(9));
        assert!(c.get(GraphKey::Fanout(3)).is_none());
        assert!(c.get(GraphKey::Intra(3)).is_some());
        assert!(c.used() < both && c.used() > 0);
        assert_eq!(c.stats().evictions, 0);
        let unloads = c
            .take_log()
            .into_iter()
            .filter(|ev| matches!(ev, CacheEvent::Unload(_)));
        assert_eq!(
            unloads.collect::<Vec<_>>(),
            [CacheEvent::Unload(GraphKey::Fanout(3))]
        );
    }

    #[test]
    fn clear_empties_everything() {
        let c = GraphCache::new(1 << 20);
        c.insert(GraphKey::Intra(0), graph_of(1_000));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn event_log_records_loads_and_unloads() {
        let c = GraphCache::with_shards(7_000, 1);
        c.enable_log();
        c.insert(GraphKey::Intra(0), graph_of(3_000));
        c.insert(GraphKey::Intra(1), graph_of(3_000));
        c.insert(GraphKey::Intra(2), graph_of(3_000)); // evicts 0
        let log = c.take_log();
        assert!(log.contains(&CacheEvent::Load(GraphKey::Intra(0))));
        assert!(log.contains(&CacheEvent::Unload(GraphKey::Intra(0))));
        assert!(log.contains(&CacheEvent::Load(GraphKey::Intra(2))));
        // take_log drains.
        assert!(c.take_log().is_empty());
    }
}
