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
use crate::refenc::{DecodeMemo, DecodeScratch, ListsIndex};
use crate::subgraphs::{Layout, SuperedgeIndex};
use crate::{Result, SNodeError};
use parking_lot::{Mutex, MutexGuard};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};
use wg_obs::Stopwatch;

/// A cached graph's memo as the decoder sees it: locked by the first `get`
/// or `put`, until the decode that made it ends. A plain list, a
/// single-target hit and a miss on `sources` — nine decodes in ten on a
/// crawl — ask the memo nothing and so never take its mutex.
struct LockedOnUse<'a> {
    memo: &'a Mutex<ListMemo>,
    guard: OnceCell<MutexGuard<'a, ListMemo>>,
}

impl<'a> LockedOnUse<'a> {
    fn new(memo: &'a Mutex<ListMemo>) -> Self {
        let guard = OnceCell::new();
        Self { memo, guard }
    }

    fn locked(&self) -> &MutexGuard<'a, ListMemo> {
        self.guard.get_or_init(|| self.memo.lock())
    }
}

impl DecodeMemo for LockedOnUse<'_> {
    fn get(&self, i: u32) -> Option<&[u32]> {
        self.locked().get(i)
    }

    fn put(&mut self, i: u32, v: &[u32]) {
        self.locked();
        if let Some(memo) = self.guard.get_mut() {
            memo.put(i, v);
        }
    }
}

/// Bounded memo of decoded lists, attached to an encoded cached graph.
///
/// The memo is the fast-navigation layer of §4.3's byte budget story: the
/// shared reference-chain prefixes of an encoded graph — the lists other
/// lists decode *through*, which is exactly the hot minority — are kept in
/// decoded form so a chain walk that reaches one is an O(1) lookup instead
/// of a further O(chain) decode. Only those ancestors are ever offered
/// (see [`ListsIndex::decode_list_into`]), each copied out of the
/// decoder's buffers to the end of one pool; a list nothing references is
/// decoded into the caller's buffers and never comes here, and a plain
/// list asked for directly is decoded without the memo — or its mutex —
/// being touched even if it is in it. Its capacity is **reserved
/// statically**: the parent graph's accounted [`CachedGraph::bytes`]
/// includes the full memo cap at construction, so the memo's worst case is
/// charged against the cache budget up front and freed wholesale when the
/// parent graph is evicted — no dynamic re-accounting, no leak.
///
/// Overflow policy: an insertion that would exceed the cap clears the
/// whole memo first (a full restart, not per-entry eviction). This keeps
/// run-to-run behaviour deterministic — it never depends on `HashMap`
/// iteration order — which the bench drift check requires. A memo that
/// never overflows stops growing once every ancestor of its graph is in
/// it; one that does takes its reserved share whole at the first restart
/// and keeps it. Either way a warm probe through it allocates nothing.
#[derive(Debug, Default)]
pub struct ListMemo {
    /// The lists retained, once there has been one: most graphs have no
    /// reference chain, and this way a memo costs them three words.
    retained: Option<Box<Retained>>,
    cap: usize,
    hits: Option<wg_obs::Counter>,
}

#[derive(Debug, Default)]
struct Retained {
    /// Where each list lies in `pool`: start and length.
    map: HashMap<u32, (u32, u32)>,
    /// The lists, end to end in order of arrival.
    pool: Vec<u32>,
    /// What they are charged against the cap.
    used: usize,
}

impl ListMemo {
    /// What an entry is charged against the cap besides its four bytes
    /// per target: its share of the table.
    const ENTRY_BYTES: usize = 28;

    /// What one entry is charged against the cap.
    fn entry_bytes(v: &[u32]) -> usize {
        v.len() * 4 + Self::ENTRY_BYTES
    }

    /// A memo bounded by `cap` bytes of decoded lists. Registers the
    /// `core.nav.list_memo_hits` counter when metrics are enabled.
    pub fn with_cap(cap: usize) -> Self {
        let hits =
            wg_obs::metrics_enabled().then(|| wg_obs::global().counter("core.nav.list_memo_hits"));
        Self {
            retained: None,
            cap,
            hits,
        }
    }

    /// Bytes of decoded lists currently retained.
    pub fn used(&self) -> usize {
        self.retained.as_ref().map_or(0, |retained| retained.used)
    }

    /// The static byte reservation this memo was built with.
    pub fn cap(&self) -> usize {
        self.cap
    }
}

impl DecodeMemo for ListMemo {
    fn get(&self, i: u32) -> Option<&[u32]> {
        let retained = self.retained.as_deref()?;
        let &(start, len) = retained.map.get(&i)?;
        if let Some(h) = &self.hits {
            h.inc();
        }
        (retained.pool).get(start as usize..start as usize + len as usize)
    }

    fn put(&mut self, i: u32, v: &[u32]) {
        let cost = Self::entry_bytes(v);
        if cost > self.cap {
            return; // one oversized list can never fit
        }
        let retained = self.retained.get_or_insert_with(Box::default);
        if retained.used + cost > self.cap {
            retained.map.clear();
            retained.pool.clear();
            retained.used = 0;
            // A memo that has overflowed will again: it takes all its cap
            // admits now and never grows after (both calls find that done
            // the next time).
            let _ = retained.pool.try_reserve_exact(self.cap / 4);
            let _ = retained.map.try_reserve(self.cap / Self::ENTRY_BYTES);
        }
        // Under the cap the pool stays far below 2³² entries.
        let (start, len) = (retained.pool.len(), v.len());
        let (Ok(start), Ok(len)) = (u32::try_from(start), u32::try_from(len)) else {
            return;
        };
        // The decoder offers a list only after `get` missed it; a second
        // offer finds the first, equal by the trait's contract, in place.
        if let std::collections::hash_map::Entry::Vacant(slot) = retained.map.entry(i) {
            slot.insert((start, len));
            retained.pool.extend_from_slice(v);
            retained.used += cost;
        }
    }
}

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
/// One arena holds it all: CSR row starts (page `local` draws on rows
/// `starts[local]..starts[local + 1]`), then `always`, then the rows end
/// to end. A slot indexes one supernode's row of the supernode graph —
/// hundreds of entries at most on a crawl — and the rows are most of what
/// a fanout weighs, so they are packed two slots to a word, the first in
/// the low half, wherever every slot fits 16 bits.
#[derive(Debug)]
pub struct Fanout {
    arena: Box<[u32]>,
    /// `|Ni|`: the arena opens with `ni + 1` row starts.
    ni: u32,
    /// How many slots follow the row starts that every page consults:
    /// negative graphs, which store a list for every page, and graphs that
    /// could not be read, so that each access keeps counting the part it
    /// went without.
    always: u32,
    /// Whether the rows are 16-bit; they are 32-bit only for a supernode
    /// with more than 65 536 out-superedges.
    narrow: bool,
}

/// One page's row of a [`Fanout`]: ascending slots.
#[derive(Debug, Clone, Copy)]
pub struct Slots<'a> {
    /// Every row of the fanout, as it packs them.
    rows: &'a [u32],
    narrow: bool,
    /// This row's entries of `rows`.
    lo: usize,
    hi: usize,
}

impl<'a> Slots<'a> {
    /// Entry `i` of the rows.
    fn get(self, i: usize) -> u32 {
        match self.narrow {
            true => (self.rows.get(i / 2)).map_or(0, |&w| w >> (16 * (i % 2)) & 0xFFFF),
            false => self.rows.get(i).copied().unwrap_or_default(),
        }
    }

    /// The slots, ascending.
    pub fn iter(self) -> impl Iterator<Item = u32> + 'a {
        (self.lo..self.hi).map(move |i| self.get(i))
    }

    /// Whether the row names `slot`.
    pub fn contains(self, slot: u32) -> bool {
        let (mut lo, mut hi) = (self.lo, self.hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(&slot) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        false
    }
}

impl Fanout {
    /// Builds the fanout of a supernode of `ni` pages from its
    /// out-superedge graphs in slot order: the ascending `sources` of a
    /// positive graph, `None` for one every page consults — a negative
    /// graph, or one that could not be read. One pass for the sizes, which
    /// allocates the arena at its size, then two counting passes over the
    /// `sources`, O(Σ|sources| + `ni`): the biggest supernodes have
    /// thousands of pages and hundreds of superedges, and are where a
    /// probe's tail latency comes from.
    pub fn build<'a>(
        ni: u32,
        graphs: impl DoubleEndedIterator<Item = Option<&'a [u32]>> + Clone,
    ) -> Result<Self> {
        let (mut slots, mut always, mut rows) = (0u32, 0usize, 0usize);
        for sources in graphs.clone() {
            slots += 1;
            match sources {
                Some(sources) => rows += sources.len(),
                None => always += 1,
            }
        }
        let total = u32::try_from(rows).map_err(|_| SNodeError::Corrupt("fanout overflows u32"))?;
        let narrow = slots <= u32::from(u16::MAX) + 1;
        let words = if narrow { rows.div_ceil(2) } else { rows };
        let mut arena = vec![0u32; ni as usize + 1 + always + words];
        let (starts, rest) = arena.split_at_mut(ni as usize + 1);
        let (always_slots, packed) = rest.split_at_mut(always);
        let (counts, sentinel) = starts.split_at_mut(ni as usize);
        // Count each page's slots where its row will start...
        let mut next_always = always_slots.iter_mut();
        for (k, sources) in (0u32..).zip(graphs.clone()) {
            let Some(sources) = sources else {
                if let Some(at) = next_always.next() {
                    *at = k;
                }
                continue;
            };
            for &src in sources {
                *counts.get_mut(src as usize).ok_or_else(out_of_range)? += 1;
            }
        }
        // ...turn each count into the end of its row...
        let mut end = 0u32;
        for count in counts.iter_mut() {
            end += *count;
            *count = end;
        }
        sentinel.fill(total);
        // ...and fill every row from its end, last slot first: the rows
        // come out ascending without a sort, and each end has moved back
        // to where its row starts. A narrow slot is below 2¹⁶, and every
        // word starts at zero.
        let (width, per_word) = if narrow { (16, 2) } else { (0, 1) };
        for (k, sources) in (0..slots).rev().zip(graphs.rev()) {
            for &src in sources.unwrap_or_default() {
                let at = counts.get_mut(src as usize).ok_or_else(out_of_range)?;
                // Never below zero: this pass meets each page as often as
                // the counting pass did (and a wrap would miss `packed`).
                *at = at.wrapping_sub(1);
                let at = *at as usize;
                let word = packed.get_mut(at / per_word).ok_or_else(out_of_range)?;
                *word |= k << (width * (at % per_word));
            }
        }
        Ok(Self {
            arena: arena.into_boxed_slice(),
            ni,
            always: always as u32,
            narrow,
        })
    }

    /// The row starts, and the rest of the arena.
    fn split(&self) -> (&[u32], &[u32]) {
        (self.arena)
            .split_at_checked(self.ni as usize + 1)
            .unwrap_or_default()
    }

    /// The ascending slots of the positive graphs holding a list for page
    /// `local` (empty for a page outside the supernode).
    pub fn slots_of(&self, local: u32) -> Slots<'_> {
        let (starts, rest) = self.split();
        let row = |i: usize| starts.get(i).map(|&o| o as usize);
        let (lo, hi) = match (row(local as usize), row(local as usize + 1)) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => (0, 0),
        };
        Slots {
            rows: rest.get(self.always as usize..).unwrap_or_default(),
            narrow: self.narrow,
            lo,
            hi,
        }
    }

    /// The ascending slots every page of the supernode consults.
    pub fn always(&self) -> &[u32] {
        let rest = self.split().1;
        rest.get(..self.always as usize).unwrap_or_default()
    }

    /// What the fanout is charged: four bytes a row start and an `always`
    /// slot, two or four a row entry.
    fn heap_bytes(&self) -> usize {
        let rows = self.split().0.last().map_or(0, |&total| total as usize);
        let width = if self.narrow { 2 } else { 4 };
        (self.ni as usize + 1 + self.always as usize) * 4 + rows * width
    }
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
    /// Decoded-list memo (shared reference-chain prefixes) of an encoded
    /// graph, keyed as its decoder keys lists — see
    /// [`SuperedgeIndex::targets_of_into`]. Its cap is part of `bytes`.
    memo: Mutex<ListMemo>,
    /// What the entry owns, which drives eviction: the value itself, its
    /// arena and its memo cap. Not `data`: the resident image it borrows
    /// from is counted once, as the handle's `resident_bytes`.
    bytes: usize,
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
    /// One header over `shape`, whose arena is charged `heap` bytes: the
    /// value itself (so no `heap_bytes` counts any of it), the arena and
    /// the memo cap.
    fn with(shape: Shape, heap: usize, data: Blob, bit_len: u64, memo: ListMemo) -> Self {
        let bytes = std::mem::size_of::<Self>() + heap + memo.cap();
        Self {
            shape,
            bit_len,
            data,
            memo: Mutex::new(memo),
            bytes,
        }
    }

    /// The decoded-list memo cap for a graph of `encoded` bytes: as many
    /// again. Policy: a graph's hot decoded lists may occupy at most as
    /// much budget as the encoded graph they derive from — the bytes read,
    /// not the directory parsed from them, which for an intranode graph is
    /// the larger of the two and holds no list a memo could stand in for —
    /// and the §4.3 accounting stays a single constructor-time number.
    fn memo_cap(encoded: usize) -> usize {
        encoded
    }

    /// Wraps an encoded intranode graph with its parsed directory. The
    /// blob is borrowed from the resident image, which is held and counted
    /// whether or not the graph is cached, so the cache charges what the
    /// entry adds to it: the directory and a memo cap sized by the blob.
    pub fn new_encoded_intra(data: Blob, bit_len: u64, index: ListsIndex) -> Self {
        let heap = index.heap_bytes();
        let memo = ListMemo::with_cap(Self::memo_cap(data.len()));
        Self::with(Shape::Intra(index), heap, data, bit_len, memo)
    }

    /// Wraps an encoded superedge graph with its parsed directory (charged
    /// as [`CachedGraph::new_encoded_intra`] charges). `nj` is the `|Nj|`
    /// the index was parsed with, which it keeps.
    pub fn new_encoded_super(data: Blob, bit_len: u64, index: SuperedgeIndex, nj: u64) -> Self {
        debug_assert_eq!(index.nj(), nj, "parsed for another |Nj|");
        let heap = index.heap_bytes();
        // A single-target dictionary answers from two arrays: there is no
        // decoded list to keep, so no memo to reserve budget for.
        let cap = match index.layout() {
            Layout::SingleTargets => 0,
            Layout::Lists | Layout::ListDictionary => Self::memo_cap(data.len()),
        };
        Self::with(
            Shape::Super(index),
            heap,
            data,
            bit_len,
            ListMemo::with_cap(cap),
        )
    }

    /// The fanout, when this entry is one.
    pub fn as_fanout(&self) -> Option<&Fanout> {
        match &self.shape {
            Shape::Fanout(fanout) => Some(fanout),
            _ => None,
        }
    }

    /// Bytes of the encoded graph (0 for a fanout).
    pub(crate) fn encoded_len(&self) -> usize {
        self.data.len()
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
    /// list allocation; an encoded graph decodes through its decoded-list
    /// memo, whose mutex is taken only by a decode that reaches a
    /// reference-encoded list — the only kind a memo can shorten.
    pub fn decode_list_into(
        &self,
        local: u32,
        scratch: &mut DecodeScratch,
        out: &mut Vec<u32>,
    ) -> crate::Result<()> {
        let mut memo = LockedOnUse::new(&self.memo);
        self.decode_list_with(local, &mut memo, scratch, out)
    }

    /// [`CachedGraph::decode_list_into`] through `memo` instead of the
    /// graph's own.
    pub(crate) fn decode_list_with(
        &self,
        local: u32,
        memo: &mut dyn DecodeMemo,
        scratch: &mut DecodeScratch,
        out: &mut Vec<u32>,
    ) -> crate::Result<()> {
        out.clear();
        let (data, bit_len) = (&self.data, self.bit_len);
        match &self.shape {
            Shape::Intra(index) => index.decode_list_into(data, bit_len, local, memo, scratch, out),
            Shape::Super(index) => {
                let s = u64::from(local);
                index.targets_of_into(data, bit_len, s, index.nj(), memo, scratch, out)
            }
            Shape::Fanout(_) => Err(SNodeError::Corrupt("a fanout stores no lists")),
        }
    }

    /// Bytes of decoded lists currently retained by this graph's memo
    /// (0 for a fanout, which has none).
    pub fn memo_used(&self) -> usize {
        self.memo.lock().used()
    }

    /// The memo's static byte reservation (0 without a memo).
    pub fn memo_cap_bytes(&self) -> usize {
        self.memo.lock().cap()
    }

    /// Approximate resident footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl From<Fanout> for CachedGraph {
    /// A fanout as a cache entry, charged its arena and the fixed part.
    fn from(fanout: Fanout) -> Self {
        let heap = fanout.heap_bytes();
        Self::with(
            Shape::Fanout(fanout),
            heap,
            Blob::default(),
            0,
            ListMemo::default(),
        )
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
    /// size): each list costs its four-byte offset and two bits of
    /// encoding, charged once, as memo cap.
    fn graph_of(bytes_target: usize) -> CachedGraph {
        let empty = std::mem::size_of::<CachedGraph>() + 8;
        let lists = bytes_target.saturating_sub(empty) * 4 / 17;
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

    /// An encoded intranode graph whose lists are similar enough that the
    /// windowed selector builds reference chains (so decodes populate the
    /// memo), and short beside the graph's encoded bytes (so the memo, a
    /// reservation of that many bytes, holds several).
    fn chained_encoded_intra() -> CachedGraph {
        // Intranode universes equal the list count: targets stay < 240.
        // A dozen shared targets less one, plus one of the list's own.
        let lists: Vec<Vec<u32>> = (0..240u32)
            .map(|i| {
                let mut l: Vec<u32> = (0..12).filter(|x| x % 7 != i % 7).map(|x| x * 20).collect();
                l.push(i / 20 * 20 + 1 + i % 19);
                l.sort_unstable();
                l
            })
            .collect();
        encoded_intra(&lists, crate::refenc::RefMode::Windowed(8))
    }

    #[test]
    fn memo_cap_is_charged_at_construction() {
        let g = chained_encoded_intra();
        let Shape::Intra(index) = &g.shape else {
            panic!("expected an intranode graph");
        };
        assert!(index.heap_bytes() > 0);
        assert_eq!(
            g.memo_cap_bytes(),
            g.encoded_len(),
            "cap = the encoded bytes, the directory apart"
        );
        assert_eq!(
            g.bytes(),
            std::mem::size_of::<CachedGraph>() + index.heap_bytes() + g.memo_cap_bytes(),
            "accounted bytes include the full memo cap up front"
        );
        assert_eq!(g.memo_used(), 0, "memo starts empty");
    }

    /// A superedge graph reserves its encoded bytes too — not those plus
    /// `sources` and offsets, which made a 250-byte graph reserve 2.4 KB —
    /// and a single-target dictionary, which keeps no list, nothing.
    #[test]
    fn memo_cap_of_a_superedge_graph_is_its_encoded_bytes() {
        let codec = crate::codec::ListCodec;
        let encode = |pos: &[Vec<u32>]| {
            let mode = crate::refenc::RefMode::Windowed(4);
            let policy = crate::subgraphs::SuperedgePolicy::EncodedSize;
            crate::subgraphs::encode_superedge(pos, 8, mode, policy)
        };
        let lists: Vec<Vec<u32>> = (0..40u32).map(|s| vec![s % 3, 3 + s % 5]).collect();
        let enc = encode(&lists);
        let index = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, 40, 8, codec).expect("parse");
        let (encoded, directory) = (enc.bytes.len(), index.heap_bytes());
        assert!(
            directory > encoded,
            "forty sources and offsets: 4 bytes each"
        );
        let g = CachedGraph::new_encoded_super(blob(enc.bytes), enc.bit_len, index, 8);
        assert_eq!(g.memo_cap_bytes(), encoded);
        assert_eq!(
            g.bytes(),
            encoded + directory + std::mem::size_of::<CachedGraph>()
        );

        let singles: Vec<Vec<u32>> = (0..40u32).map(|s| vec![s % 3]).collect();
        let enc = encode(&singles);
        let index = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, 40, 8, codec).expect("parse");
        assert_eq!(index.layout(), Layout::SingleTargets);
        let directory = index.heap_bytes();
        let g = CachedGraph::new_encoded_super(blob(enc.bytes), enc.bit_len, index, 8);
        assert_eq!(g.memo_cap_bytes(), 0);
        assert!(g.encoded_len() > 0);
        assert_eq!(
            g.bytes(),
            directory + std::mem::size_of::<CachedGraph>(),
            "the blob borrowed from the resident image is not charged again"
        );
        // The header every entry is charged: a field that comes or goes in
        // a graph's directory must not move it, and with it every eviction.
        assert_eq!(std::mem::size_of::<SuperedgeIndex>(), 32);
        assert_eq!(std::mem::size_of::<CachedGraph>(), 120);
    }

    #[test]
    fn memo_growth_is_pre_budgeted_and_freed_by_clear() {
        let c = GraphCache::new(1 << 20);
        let g = c.insert(GraphKey::Intra(0), chained_encoded_intra());
        let used_after_insert = c.used();
        // Deep-end-first decodes walk every reference chain and retain
        // ancestors in the memo.
        let Shape::Intra(index) = &g.shape else {
            unreachable!()
        };
        let n = index.num_lists();
        for i in (0..n).rev() {
            g.decode_list_for(i).expect("decode");
        }
        assert!(g.memo_used() > 0, "chained decodes must populate the memo");
        assert!(g.memo_used() <= g.memo_cap_bytes(), "memo bounded by cap");
        assert_eq!(
            c.used(),
            used_after_insert,
            "memo growth is statically reserved, never re-accounted"
        );
        // Clearing the cache drops the graph and its memo wholesale.
        c.clear();
        assert_eq!(c.used(), 0, "no bytes leak across a cache clear");
        drop(g);
        // A fresh admission of the same graph charges the same bytes: the
        // memo of the evicted instance left nothing behind.
        c.insert(GraphKey::Intra(0), chained_encoded_intra());
        assert_eq!(c.used(), used_after_insert);
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
        let slots = [
            graphs[0].positive_sources(),
            graphs[1].positive_sources(),
            None,
            graphs[3].positive_sources(),
        ];
        let fanout = Fanout::build(6, slots.into_iter()).expect("build");
        assert_eq!(fanout.always(), [1, 2]);
        let rows: Vec<Vec<u32>> = (0..7)
            .map(|local| fanout.slots_of(local).iter().collect())
            .collect();
        let expect: [&[u32]; 7] = [&[3], &[0], &[], &[], &[0, 3], &[3], &[]];
        assert_eq!(rows, expect, "page 6 is outside the supernode");
        assert!(fanout.slots_of(4).contains(3) && !fanout.slots_of(4).contains(1));
        let cached = CachedGraph::from(fanout);
        assert_eq!(
            cached.bytes(),
            (7 + 2) * 4 + 5 * 2 + std::mem::size_of::<CachedGraph>(),
            "offsets and `always` at four bytes, rows at two"
        );
        assert!(
            cached.decode_list_for(0).is_err(),
            "a fanout stores no lists"
        );

        // A graph parsed for a larger supernode than the one it is filed
        // under is refused, not indexed out of range.
        let err = Fanout::build(4, [graphs[0].positive_sources()].into_iter());
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
        /// positive, negative and unreadable slots — in 16-bit rows, and
        /// in the 32-bit ones a supernode with more than 65 536
        /// out-superedges falls back to — and a source outside the
        /// supernode is `Corrupt`, neither a panic nor a write out of
        /// bounds.
        #[test]
        fn fanout_answers_as_the_u32_rows_it_replaced(
            ni in 0u32..40,
            slots in proptest::collection::vec(
                (0u32..5, proptest::collection::btree_set(0u32..40, 0..12)),
                0..24,
            ),
            many_slots in proptest::any::<bool>(),
            stray in (0u32..5, 0usize..24, 0u32..3),
        ) {
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
            let built = Fanout::build(ni, graphs.iter().map(Option::as_deref));
            let model = model_fanout(ni, &graphs);
            proptest::prop_assert_eq!(model.is_none(), strayed);
            let Some((offsets, rows, always)) = model else {
                proptest::prop_assert!(matches!(built, Err(SNodeError::Corrupt(_))));
                return Ok(());
            };
            let built = built.expect("every source inside the supernode");
            proptest::prop_assert_eq!(
                !built.narrow,
                graphs.len() > 1 << 16,
                "{} slots", graphs.len()
            );
            proptest::prop_assert_eq!(built.always(), &always[..]);
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
