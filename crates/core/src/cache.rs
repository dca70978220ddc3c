//! Memory-budgeted cache of decoded intranode / superedge graphs.
//!
//! The §4.3 experiments give each representation a fixed memory allowance;
//! for S-Node, whatever is left after the resident supernode graph and
//! indexes "was used to load and decode intranode and superedge graphs as
//! required by the queries". This cache is that space: a graph decoded at
//! first use enters it while the byte budget has room, and otherwise only
//! if it is read more often than the least-recently-used graphs it would
//! evict (TinyLFU); every load/unload is recorded — the paper instrumented
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
    /// graphs a degraded open could not read, so that each access keeps
    /// counting the part it went without.
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
    /// graph, `None` for one every page consults — one that could not be
    /// read — and per slot the one target of a graph that has one (slots
    /// past the end of `targets` have none). One pass for the sizes, which
    /// allocates the arena at its size, then two counting passes over the
    /// `sources`, O(Σ|sources| + `ni`): the biggest supernodes have
    /// thousands of pages and hundreds of superedges, and are where a
    /// probe's tail latency comes from.
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
        let read = graphs.clone().map(|sources| sources.is_some());
        for (k, (value, read)) in values_of(targets).zip(read).enumerate() {
            section::put(values_at, target, k, if read { value } else { 0 });
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

    /// A floor on what [`CachedGraph::from`] charges the fanout
    /// [`Fanout::build`] makes of a supernode of `ni` pages whole, from its
    /// `degree` out-superedge graphs: each of them is consulted by every
    /// page or lists a source at least (a graph that lists none is
    /// `Corrupt` to the scan that reads them), so each puts an entry in
    /// the slots, at the width `degree` asks; and when `all_read` (a
    /// strict open, where a graph that cannot be read fails the build
    /// instead), some graph lists a source, so every row start takes a
    /// byte at least.
    pub(crate) fn least_charge(ni: u32, degree: usize, all_read: bool) -> usize {
        let slots = Width::below(degree as u64).bytes() * degree;
        let starts = match all_read && degree > 0 {
            true => ni as usize + 1,
            false => 0,
        };
        LEAST_CHARGE + starts + slots
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

    /// The ascending slots of the graphs holding a list for page `local`
    /// (empty for a page outside the supernode).
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

    /// The target list of local id `local` (empty when absent).
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
                index.targets_of_into(data, bit_len, s, scratch, out)
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

/// What a cache entry of an intranode graph of `lists` lists and
/// `bit_len` bits is charged ([`CachedGraph::bytes`]): the value and one
/// offset per list and the end sentinel, at the width the bit length
/// needs. Exact for every graph a build writes, whose list count is its
/// supernode's size.
pub(crate) fn intra_charge(lists: u32, bit_len: u64) -> usize {
    let offsets = crate::refenc::offset_width(bit_len).bytes();
    std::mem::size_of::<CachedGraph>() + (lists as usize + 1) * offsets
}

/// The least any cache entry is charged: the value without an arena. A
/// floor on the charge of a fanout or a superedge graph before it is
/// built.
pub(crate) const LEAST_CHARGE: usize = std::mem::size_of::<CachedGraph>();

/// One cache instrumentation event. A miss the cache declines
/// ([`Lookup::Declined`]) logs neither: nothing is loaded into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A graph was built for the cache and offered to it.
    Load(GraphKey),
    /// A graph left the cache: evicted to make room, removed, replaced,
    /// cleared, or refused right after its load.
    Unload(GraphKey),
}

/// What [`GraphCache::lookup`] found.
#[derive(Debug)]
pub enum Lookup {
    /// The graph, cached.
    Hit(Arc<CachedGraph>),
    /// Not cached: the caller builds the graph and offers it with
    /// [`GraphCache::insert`].
    Miss,
    /// Not cached, and a graph charged the lookup's floor would be
    /// refused: the caller builds what its probe needs of the graph, and
    /// offers nothing. Counted as a miss and a refusal.
    Declined,
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
    /// Graphs not admitted: read less often than what they would have
    /// evicted, or larger than their shard. Most are declined at their
    /// lookup, before they are built ([`Lookup::Declined`]); the rest are
    /// refused when offered.
    pub refused: u64,
    /// Total bytes charged to graphs built for the cache and offered to
    /// it (load traffic), those refused when offered included. A declined
    /// miss is not built for the cache, and not counted.
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

/// Sharded cache of decoded graphs under a byte budget, which admits a
/// graph that would overflow its shard only if it is read more often than
/// the least-recently-used graphs it would evict.
///
/// The cache is the interior-mutability layer of the shared read path
/// (DESIGN.md §5f): the decoded representation itself is immutable after
/// open, and all query-time mutation — admissions, evictions, recency,
/// frequency — lives behind per-shard mutexes here, so every navigation
/// API can take `&self` and the whole [`crate::SNode`] becomes `Sync`.
///
/// Shard selection is FNV-1a over the [`GraphKey`] fields — deliberately
/// *not* `std`'s per-process-seeded hasher, so the shard a key lands in
/// (and therefore the hit/miss/eviction/refusal counters the bench gate
/// compares) is identical across processes and runs. Each shard owns an
/// equal slice of the byte budget, a recency order and a frequency sketch:
///
/// * **Recency.** A unique tick per shard, bumped under the lock every
///   touch already holds, stamps each entry; the least stamp is the least
///   recently used graph. Eviction only ever compares stamps within one
///   shard, so a tick per shard orders its victims exactly as one
///   process-wide counter would.
/// * **Frequency.** How often each graph is read lately, after TinyLFU
///   (Einziger, Friedman and Manes, ACM ToS 2017), counted where the
///   lookup already is: a cached graph's reads in its entry, which a hit
///   stamps anyway, and the misses in a count-min sketch of the shard —
///   four rows of 4-bit saturating counters, a key's four in one 64-byte
///   line, hashed from the same fixed FNV-1a, so the counts repeat across
///   runs. The sketch takes 2 KiB per MiB of the shard's budget (one line
///   per 32 KiB), up to 4 KiB a shard. Every count is halved after ten
///   lookups per entry the shard holds, so old popularity fades.
/// * **Admission.** A graph that fits beside what the shard holds is
///   admitted. One that does not is weighed against the least recently
///   used graphs it would evict, oldest first: if any of them is
///   estimated to be read at least as often as it, it is refused;
///   otherwise they are evicted and it is admitted. A graph larger than
///   its shard is refused, so [`Self::used`] never exceeds
///   [`Self::budget`]. The rule is applied first at the lookup, to a
///   floor on the missing graph's charge ([`Self::lookup`]): a miss it
///   refuses is declined before anything is built, and the probe builds
///   only what it needs of the graph. [`Self::insert`] applies it again
///   to what was built; a graph refused there still answers the probe
///   that built it, through the `Arc` it returns, and is dropped after.
///   A probe lands on a supernode in proportion to its size, and the
///   graphs of a large one cost the most to rebuild, so under pressure
///   the cache keeps them and one-shot graphs no longer flush them.
///
/// A hit is one lock, one lookup in the shard's map, one count in the
/// entry it found and one bump of the `core.cache.hits` counter. Counting
/// hits in the sketch instead, four counters in a line of their own, made
/// a warm probe 5–12 % slower (DESIGN.md §5f).
#[derive(Debug)]
pub struct GraphCache {
    budget: usize,
    shards: Vec<Mutex<Shard>>,
    metrics: wg_obs::CacheMetrics,
    /// `metrics.bytes_loaded` by kind of key, in [`KEY_KINDS`] order:
    /// `core.cache.bytes_loaded.{intra,super,fanout}` under `--metrics`.
    loaded_by_kind: [wg_obs::Counter; 3],
    /// Graphs refused admission: `core.cache.refused` under `--metrics`.
    refused: wg_obs::Counter,
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

/// Budget bytes per 64-byte line of a shard's [`Sketch`]: 2 KiB of
/// sketch, 4 096 counters, per MiB. Sketches of 1, 4 and 16 KiB per MiB,
/// counting every lookup then, hit within three points of each other
/// (65–68 % of lookups at 100 k pages, 16 % at 300 k, under 1 MiB): the
/// size is not what limits it.
const BUDGET_PER_SKETCH_LINE: usize = 32 << 10;

/// The most lines a shard's sketch has: 4 KiB, 8 192 counters, what a
/// 2 MiB shard gets. A sketch of up to 64 KiB a shard, counting every
/// lookup then, crowded a warm probe's graphs out of the CPU's caches.
const MAX_SKETCH_LINES: usize = 1 << 6;

/// Lookups per entry the shard holds between two halvings of its counts.
const LOOKUPS_PER_ENTRY: usize = 10;

/// One line of a [`Sketch`]: eight words of sixteen 4-bit counters, row
/// `r` in words `2r` and `2r + 1`.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct Line([u64; 8]);

/// The most a read count holds: a sketch counter's four bits.
const MAX_READS: u8 = 15;

/// A shard's count-min sketch of how often each key it does not hold is
/// looked up: four rows of 4-bit saturating counters, all four of a key's
/// in one [`Line`]. A key's estimate is the least of its four counters.
#[derive(Debug)]
struct Sketch {
    lines: Box<[Line]>,
}

impl Sketch {
    /// A sketch for a shard of `budget` bytes: one line per
    /// [`BUDGET_PER_SKETCH_LINE`], a power of two of them from one to
    /// [`MAX_SKETCH_LINES`].
    fn new(budget: usize) -> Self {
        let lines = (budget / BUDGET_PER_SKETCH_LINE).clamp(1, MAX_SKETCH_LINES);
        let lines = lines.next_power_of_two();
        Self {
            lines: vec![Line::default(); lines].into_boxed_slice(),
        }
    }

    /// The line of a key whose [`shard_hash`] is `hash`, and in each row
    /// its counter's word and shift. The shard hash is mixed (the
    /// SplitMix64 finaliser) first: a shard's keys share its low bits.
    fn cells(&self, hash: u64) -> (usize, [(usize, u32); 4]) {
        let mut h = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let line = (h >> 32) as usize & (self.lines.len() - 1);
        let cells = [0usize, 1, 2, 3].map(|row| {
            let counter = (h >> (5 * row)) as u32 & 31;
            (2 * row + (counter >> 4) as usize, (counter & 15) * 4)
        });
        (line, cells)
    }

    /// Counts one lookup of the key.
    fn record(&mut self, hash: u64) {
        let (line, cells) = self.cells(hash);
        let words = &mut self.lines[line].0;
        for (word, shift) in cells {
            if (words[word] >> shift) & 15 < u64::from(MAX_READS) {
                words[word] += 1 << shift;
            }
        }
    }

    /// How often the key was looked up lately, at least.
    fn estimate(&self, hash: u64) -> u8 {
        let (line, cells) = self.cells(hash);
        let words = &self.lines[line].0;
        let counts = cells.map(|(word, shift)| (words[word] >> shift) as u8 & 15);
        counts.into_iter().min().unwrap_or_default()
    }

    /// Halves every counter.
    fn halve(&mut self) {
        for word in self.lines.iter_mut().flat_map(|line| &mut line.0) {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
    }

    /// Forgets every count.
    fn clear(&mut self) {
        self.lines.fill(Line::default());
    }
}

#[derive(Debug)]
struct Shard {
    map: HashMap<GraphKey, Entry, BuildHasherDefault<KeyHasher>>,
    /// Eviction order as of the last scan of `map`: `(last_used, key)`,
    /// oldest last. See [`Shard::walk`].
    victims: Vec<(u64, GraphKey)>,
    sketch: Sketch,
    /// Lookups since every count was last halved.
    lookups: usize,
    /// How often every count was halved: the sketch's at once, an
    /// entry's when it is next read (see [`Entry::reads_at`]).
    halvings: u32,
    used: usize,
    budget: usize,
    /// The stamp of the shard's latest touch; see [`Shard::touch`].
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    graph: Arc<CachedGraph>,
    last_used: u64,
    /// How often the graph was read lately: the sketch's estimate when it
    /// was admitted, then one more per hit, up to [`MAX_READS`] — as of
    /// the shard's `halvings` then, in `halvings` here.
    reads: u8,
    halvings: u32,
}

impl Entry {
    /// `reads` when the shard has halved its counts `halvings` times:
    /// halved once per halving since it was written. What halving every
    /// entry at once gives, without a walk over the shard's map on the
    /// lookup that triggers it (about 3 000 entries a shard at 100 k
    /// pages under 256 MiB: 2.6 us on average, up to 86 us, on a warm
    /// probe of 1–2 us). The difference wraps after 2³² halvings, when a
    /// graph untouched that long reads its old count again.
    fn reads_at(&self, halvings: u32) -> u8 {
        let age = halvings.wrapping_sub(self.halvings);
        self.reads.checked_shr(age).unwrap_or(0)
    }
}

impl Shard {
    fn new(budget: usize) -> Self {
        Self {
            map: HashMap::default(),
            victims: Vec::new(),
            sketch: Sketch::new(budget),
            lookups: 0,
            halvings: 0,
            used: 0,
            budget,
            tick: 0,
        }
    }

    /// A fresh stamp, above every one this shard has handed out.
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks `key` up and counts the lookup: a hit in its entry, which
    /// the hit stamps anyway, a miss in the sketch. Every count is halved
    /// once the lookups reach ten per entry the shard holds, so old
    /// popularity fades.
    fn look_up(&mut self, key: &GraphKey, hash: u64) -> Option<Arc<CachedGraph>> {
        let tick = self.touch();
        let halvings = self.halvings;
        let found = match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                e.reads = (e.reads_at(halvings) + 1).min(MAX_READS);
                e.halvings = halvings;
                Some(Arc::clone(&e.graph))
            }
            None => {
                self.sketch.record(hash);
                None
            }
        };
        self.lookups += 1;
        if self.lookups >= LOOKUPS_PER_ENTRY * self.map.len().max(1) {
            self.sketch.halve();
            self.halvings = self.halvings.wrapping_add(1);
            self.lookups = 0;
        }
        found
    }

    /// How often the cached graph `key` is estimated to be read: its own
    /// count, or the sketch's if that is higher. A candidate is weighed by
    /// the sketch alone, whose estimates collisions only ever raise, so a
    /// victim is weighed on the same scale. By its own count alone, more
    /// candidates got in, and 1 100 cold probes at 100 k pages summed
    /// 8.7–8.8 ms of best-of latency against 5.5 (DESIGN.md §5f).
    fn reads(&self, key: &GraphKey, entry: &Entry) -> u8 {
        (entry.reads_at(self.halvings)).max(self.sketch.estimate(shard_hash(key)))
    }

    /// How many of the least recently used graphs a graph of `bytes`
    /// whose key's [`shard_hash`] is `hash` would evict to enter — the
    /// last entries of `victims` — or `None` when it would be refused:
    /// when it is larger than the shard or one of them is estimated to be
    /// read at least as often as it. A smaller `bytes` walks a prefix of
    /// the same victims, so a graph refused at a floor on its charge is
    /// refused at its charge.
    fn room(&mut self, bytes: usize, hash: u64) -> Option<usize> {
        if bytes > self.budget {
            return None;
        }
        match (self.used + bytes).saturating_sub(self.budget) {
            0 => Some(0),
            need => self.walk(need, self.sketch.estimate(hash)),
        }
    }

    /// Makes room for a graph of `bytes` whose key's [`shard_hash`] is
    /// `hash`, evicting the least recently used graphs oldest first and
    /// handing each to `evicted`; or refuses it (`false`, nothing
    /// evicted; see [`Shard::room`]).
    fn admit(&mut self, bytes: usize, hash: u64, mut evicted: impl FnMut(GraphKey)) -> bool {
        let Some(victims) = self.room(bytes, hash) else {
            return false;
        };
        for _ in 0..victims {
            if let Some((_, key)) = self.victims.pop() {
                if let Some(gone) = self.map.remove(&key) {
                    self.used -= gone.graph.bytes();
                }
                evicted(key);
            }
        }
        true
    }

    /// Walks the least recently used graphs, oldest first, until they
    /// hold `need` bytes, and returns how many that takes — they are then
    /// the last entries of `victims`, the oldest last — or `None` as soon
    /// as one is estimated to be read at least `freq` times.
    ///
    /// A hit stamps its entry with a fresh tick and moves nothing, so the
    /// recency order takes a scan — but one scan serves many walks.
    /// The scan sorts every `(tick, key)` into `victims`; an entry
    /// touched, replaced or stored after it carries a tick above all of
    /// those, so the candidates whose tick still stands in the map, oldest
    /// first, *are* the shard's least recently used graphs. A walk drops
    /// the candidates it passes that no longer match, so it meets each at
    /// most once, and a refusal leaves the queue as it found it otherwise.
    /// The next scan happens when the candidates run out before `need` is
    /// met: amortised O(log n) per eviction where a scan per eviction was
    /// O(n), with no recency bookkeeping added to a hit.
    fn walk(&mut self, need: usize, freq: u8) -> Option<usize> {
        let mut scanned = false;
        loop {
            let len = self.victims.len();
            // `victims[live..len]` are the live candidates walked so far,
            // moved down over the stale ones between `at` and `live`.
            let (mut at, mut live, mut freed, mut refused) = (len, len, 0usize, false);
            while freed < need && at > 0 {
                at -= 1;
                let (stamp, key) = self.victims[at];
                let Some(entry) = self.map.get(&key).filter(|e| e.last_used == stamp) else {
                    continue;
                };
                live -= 1;
                self.victims[live] = (stamp, key);
                freed += entry.graph.bytes();
                if self.reads(&key, entry) >= freq {
                    refused = true;
                    break;
                }
            }
            self.victims.drain(at..live);
            if refused {
                return None;
            }
            if freed >= need {
                return Some(len - live);
            }
            if scanned || self.map.is_empty() {
                // Every entry was walked and they do not hold `need`:
                // only a graph larger than the shard gets here, and
                // `admit` refuses those before walking.
                return None;
            }
            self.victims.clear();
            (self.victims).extend(self.map.iter().map(|(&k, e)| (e.last_used, k)));
            (self.victims).sort_unstable_by_key(|&(stamp, _)| std::cmp::Reverse(stamp));
            scanned = true;
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
/// break the bench determinism gate), from which the sketch's is mixed.
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
    /// that holds a few hundred graphs is one shard — to
    /// [`DEFAULT_CACHE_SHARDS`].
    pub fn new(budget_bytes: usize) -> Self {
        let shards = (budget_bytes / MIN_SHARD_BUDGET).clamp(1, DEFAULT_CACHE_SHARDS);
        Self::with_shards(budget_bytes, shards)
    }

    /// Creates a cache with an explicit shard count (1 = one recency
    /// order and one sketch for the whole cache; tests that reason about
    /// eviction order use this).
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let budget = budget_bytes.max(1);
        let per_shard = (budget / n).max(1);
        let counter = |name: &str| match wg_obs::metrics_enabled() {
            true => wg_obs::global().counter(&format!("core.cache.{name}")),
            false => wg_obs::Counter::default(),
        };
        Self {
            budget,
            shards: (0..n).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            metrics: wg_obs::CacheMetrics::auto("core.cache"),
            loaded_by_kind: KEY_KINDS.map(|kind| counter(&format!("bytes_loaded.{kind}"))),
            refused: counter("refused"),
            log: OnceLock::new(),
        }
    }

    fn shard_of(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
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
            refused: self.refused.get(),
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
        self.refused.reset();
    }

    /// Looks up a graph, counting the lookup and bumping its recency: the
    /// lookup of [`Self::lookup`] with no floor, which never declines.
    pub fn get(&self, key: GraphKey) -> Option<Arc<CachedGraph>> {
        match self.lookup(key, || 0) {
            Lookup::Hit(graph) => Some(graph),
            Lookup::Miss | Lookup::Declined => None,
        }
    }

    /// Looks up a graph, counting the lookup and bumping its recency, and
    /// on a miss decides before anything is built whether the graph would
    /// be admitted. `floor`, called on a miss only, is a floor on what
    /// the missing graph would be charged: the shard walks its least
    /// recently used graphs for a graph of that charge, as
    /// [`Self::insert`] walks them for the graph's own, and a graph it
    /// would refuse is [`Lookup::Declined`] — one miss and one refusal,
    /// no load. A floor never above the charge declines only what
    /// `insert` would refuse now; with several threads the shard may
    /// change before the graph is offered, and `insert` decides again.
    pub fn lookup(&self, key: GraphKey, floor: impl FnOnce() -> usize) -> Lookup {
        let hash = shard_hash(&key);
        let mut shard = self.shards[self.shard_of(hash)].lock();
        if let Some(graph) = shard.look_up(&key, hash) {
            drop(shard);
            self.metrics.hits.inc();
            return Lookup::Hit(graph);
        }
        let declined = shard.room(floor(), hash).is_none();
        drop(shard);
        self.metrics.misses.inc();
        if !declined {
            return Lookup::Miss;
        }
        self.refused.inc();
        Lookup::Declined
    }

    /// Offers a freshly decoded graph to its shard, which admits it,
    /// evicting least-recently-used graphs as needed, or refuses it (see
    /// the [`GraphCache`] docs). Either way the load is counted and the
    /// graph returned, so it answers the probe that decoded it; a refused
    /// graph is dropped with the last `Arc`, and logs its `Unload` right
    /// after its `Load`. A graph cached under `key` already is replaced.
    pub fn insert(&self, key: GraphKey, graph: CachedGraph) -> Arc<CachedGraph> {
        let bytes = graph.bytes();
        let kind = key_kind(&key);
        self.count_load(key, bytes);
        let hash = shard_hash(&key);
        let i = self.shard_of(hash);
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
        let arc = Arc::new(graph);
        let mut shard = self.shards[i].lock();
        let tick = shard.touch();
        if let Some(replaced) = shard.map.remove(&key) {
            shard.used -= replaced.graph.bytes();
            self.log_event(CacheEvent::Unload(key));
        }
        let admitted = shard.admit(bytes, hash, |victim| {
            self.metrics.evictions.inc();
            self.log_event(CacheEvent::Unload(victim));
        });
        if !admitted {
            drop(shard);
            self.refused.inc();
            self.log_event(CacheEvent::Unload(key));
            return arc;
        }
        let entry = Entry {
            graph: Arc::clone(&arc),
            last_used: tick,
            reads: shard.sketch.estimate(hash),
            halvings: shard.halvings,
        };
        shard.map.insert(key, entry);
        shard.used += bytes;
        arc
    }

    /// Drops `key`'s entry, if cached (an unload in the event log, not
    /// an eviction in the statistics).
    pub fn remove(&self, key: GraphKey) {
        let mut shard = self.shards[self.shard_of(shard_hash(&key))].lock();
        if let Some(e) = shard.map.remove(&key) {
            shard.used -= e.graph.bytes();
            drop(shard);
            self.log_event(CacheEvent::Unload(key));
        }
    }

    /// Drops every cached graph and every count of the sketches (cold
    /// start between experiment runs).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock();
            let unloads: Vec<GraphKey> = shard.map.keys().copied().collect();
            shard.map.clear();
            shard.victims.clear();
            shard.sketch.clear();
            shard.lookups = 0;
            shard.halvings = 0;
            shard.used = 0;
            drop(shard);
            for k in unloads {
                self.log_event(CacheEvent::Unload(k));
            }
        }
    }

    /// Whether `key` is cached, touching nothing a lookup would.
    #[cfg(test)]
    fn holds(&self, key: GraphKey) -> bool {
        let shard = self.shards[self.shard_of(shard_hash(&key))].lock();
        shard.map.contains_key(&key)
    }

    /// Counts a lookup made outside the shards — a pinned read
    /// ([`crate::SNode`] under a budget that holds its whole directory) —
    /// as [`Self::lookup`] counts one: a hit, or a miss.
    pub(crate) fn count_lookup(&self, hit: bool) {
        match hit {
            true => self.metrics.hits.inc(),
            false => self.metrics.misses.inc(),
        }
    }

    /// Counts and logs the load of a graph charged `bytes`, as
    /// [`Self::insert`] does for every graph offered to it (a pinned fill
    /// is one that is never offered).
    pub(crate) fn count_load(&self, key: GraphKey, bytes: usize) {
        self.metrics.bytes_loaded.add(bytes as u64);
        self.loaded_by_kind[key_kind(&key)].add(bytes as u64);
        self.log_event(CacheEvent::Load(key));
    }

    /// Logs that a pinned graph left its handle.
    pub(crate) fn log_unload(&self, key: GraphKey) {
        self.log_event(CacheEvent::Unload(key));
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

    /// A second entry of the encoded intranode graph `graph`.
    fn copy_of(graph: &CachedGraph) -> CachedGraph {
        let Shape::Intra(index) = &graph.shape else {
            unreachable!("an intranode graph")
        };
        CachedGraph::new_encoded_intra(graph.data.clone(), graph.bit_len, index.clone())
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

    /// What a probe does with a graph it needs: looks it up `reads`
    /// times, then inserts it.
    fn read_then_insert(c: &GraphCache, key: GraphKey, reads: u32, bytes: usize) {
        for _ in 0..reads {
            c.get(key);
        }
        c.insert(key, graph_of(bytes));
    }

    #[test]
    fn a_graph_read_more_often_evicts_the_least_recently_used() {
        let c = GraphCache::with_shards(10_000, 1);
        for i in 0..3u32 {
            read_then_insert(&c, GraphKey::Intra(i), 1, 3_000);
        }
        // Read twice against the once of every graph cached: 0, the least
        // recently used, goes; one graph is room enough.
        read_then_insert(&c, GraphKey::Intra(3), 2, 3_000);
        assert!(c.used() <= 10_000);
        assert!(!c.holds(GraphKey::Intra(0)));
        assert!((1..4).all(|i| c.holds(GraphKey::Intra(i))));
        let s = c.stats();
        assert_eq!((s.evictions, s.refused), (1, 0));
    }

    #[test]
    fn a_graph_read_no_more_often_than_its_victims_is_refused() {
        let c = GraphCache::with_shards(10_000, 1);
        for i in 0..3u32 {
            read_then_insert(&c, GraphKey::Intra(i), 1, 3_000);
        }
        // Read once, as often as 0, which it would evict.
        read_then_insert(&c, GraphKey::Intra(3), 1, 3_000);
        // Read twice, more than 1 and 2, but its room takes all three,
        // and 0, read again, is read as often.
        assert!(c.get(GraphKey::Intra(0)).is_some());
        read_then_insert(&c, GraphKey::Intra(4), 2, 9_000);
        assert!((0..3).all(|i| c.holds(GraphKey::Intra(i))));
        assert!(!c.holds(GraphKey::Intra(3)) && !c.holds(GraphKey::Intra(4)));
        let s = c.stats();
        assert_eq!((s.evictions, s.refused), (0, 2));
    }

    #[test]
    fn recently_used_graphs_survive() {
        let c = GraphCache::with_shards(10_000, 1);
        for i in 0..3u32 {
            read_then_insert(&c, GraphKey::Intra(i), 1, 3_000);
        }
        // Touch 0 so 1 becomes the least recently used: a graph read
        // three times evicts 1, not 0.
        assert!(c.get(GraphKey::Intra(0)).is_some());
        read_then_insert(&c, GraphKey::Intra(3), 3, 3_000);
        assert!(c.holds(GraphKey::Intra(0)), "0 was touched");
        assert!(!c.holds(GraphKey::Intra(1)), "1 was least recently used");
    }

    /// The sketch counts a key's lookups up to 15 in four counters of one
    /// line, halves them, and forgets them when cleared.
    #[test]
    fn the_sketch_counts_saturates_halves_and_clears() {
        let mut sketch = Sketch::new(1 << 20);
        assert_eq!(sketch.lines.len(), (1 << 20) / BUDGET_PER_SKETCH_LINE);
        assert_eq!(Sketch::new(1 << 40).lines.len(), MAX_SKETCH_LINES);
        assert_eq!(Sketch::new(0).lines.len(), 1);
        let (hot, warm) = (
            shard_hash(&GraphKey::Intra(1)),
            shard_hash(&GraphKey::Fanout(9)),
        );
        let (_, cells) = sketch.cells(hot);
        for (row, (word, shift)) in cells.into_iter().enumerate() {
            assert!(word / 2 == row && shift % 4 == 0 && shift < 64, "row {row}");
        }
        for _ in 0..20 {
            sketch.record(hot);
        }
        for _ in 0..3 {
            sketch.record(warm);
        }
        assert_eq!(sketch.estimate(hot), MAX_READS, "saturated");
        assert_eq!(sketch.estimate(warm), 3);
        sketch.halve();
        assert_eq!((sketch.estimate(hot), sketch.estimate(warm)), (7, 1));
        sketch.clear();
        assert_eq!((sketch.estimate(hot), sketch.estimate(warm)), (0, 0));
    }

    /// A hit counts in its entry, a miss in the sketch, and ten lookups
    /// per entry held halve both.
    #[test]
    fn a_hit_counts_in_its_entry_and_a_miss_in_the_sketch() {
        let c = GraphCache::with_shards(1 << 20, 1);
        let (cached, absent) = (GraphKey::Intra(0), GraphKey::Intra(1));
        let counts = |c: &GraphCache| {
            let shard = c.shards[0].lock();
            let reads = shard.map.get(&cached).map(|e| e.reads_at(shard.halvings));
            let hash = |key| shard_hash(&key);
            let sketch = (
                shard.sketch.estimate(hash(cached)),
                shard.sketch.estimate(hash(absent)),
            );
            (reads, sketch, shard.lookups)
        };
        read_then_insert(&c, cached, 2, 1_000);
        assert_eq!(counts(&c), (Some(2), (2, 0), 2), "admitted with its misses");
        for _ in 0..3 {
            assert!(c.get(cached).is_some());
            assert!(c.get(absent).is_none());
        }
        assert_eq!(counts(&c), (Some(5), (2, 3), 8), "hits in the entry");
        // One entry held: the tenth lookup halves every count.
        c.get(absent);
        c.get(absent);
        assert_eq!(counts(&c), (Some(2), (1, 2), 0));
    }

    /// Reference model: the admission rule in its plainest form — keys
    /// routed by [`shard_hash`], each shard's recency one tick for the
    /// whole cache (how this cache kept it before each shard had its
    /// own), its victims found by sorting its graphs by their last touch
    /// at every admission, its misses counted in a [`Sketch`] of its own
    /// and its graphs' reads beside them.
    struct ModelCache {
        /// Per shard, its `(key, bytes, last touch, reads)`, its sketch
        /// and its lookups since the last halving.
        shards: Vec<(Vec<ModelEntry>, Sketch, usize)>,
        shard_budget: usize,
        tick: u64,
        evictions: u64,
        refused: u64,
    }

    type ModelEntry = (GraphKey, usize, u64, u8);

    impl ModelCache {
        fn new(budget: usize, shards: usize) -> Self {
            let shard_budget = budget / shards;
            Self {
                shards: (0..shards)
                    .map(|_| (Vec::new(), Sketch::new(shard_budget), 0))
                    .collect(),
                shard_budget,
                tick: 0,
                evictions: 0,
                refused: 0,
            }
        }

        fn shard_of(&mut self, key: GraphKey) -> &mut (Vec<ModelEntry>, Sketch, usize) {
            let i = shard_hash(&key) % self.shards.len() as u64;
            &mut self.shards[i as usize]
        }

        fn get(&mut self, key: GraphKey) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let (entries, sketch, lookups) = self.shard_of(key);
            let hit = entries.iter_mut().find(|e| e.0 == key);
            let found = hit.is_some();
            match hit {
                Some(e) => (e.2, e.3) = (tick, (e.3 + 1).min(MAX_READS)),
                None => sketch.record(shard_hash(&key)),
            }
            *lookups += 1;
            if *lookups >= 10 * entries.len().max(1) {
                sketch.halve();
                entries.iter_mut().for_each(|e| e.3 /= 2);
                *lookups = 0;
            }
            found
        }

        /// Returns the unloads, in order: the graph replaced, then the
        /// victims, or the candidate itself when refused.
        fn insert(&mut self, key: GraphKey, bytes: usize) -> Vec<GraphKey> {
            self.tick += 1;
            let (tick, budget) = (self.tick, self.shard_budget);
            let (entries, sketch, _) = self.shard_of(key);
            let mut unloads = Vec::new();
            if let Some(at) = entries.iter().position(|e| e.0 == key) {
                entries.remove(at);
                unloads.push(key);
            }
            let used: usize = entries.iter().map(|e| e.1).sum();
            let freq = sketch.estimate(shard_hash(&key));
            let mut oldest_first = entries.clone();
            oldest_first.sort_by_key(|e| e.2);
            let (mut freed, mut victims) = (0usize, Vec::new());
            let mut admit = bytes <= budget;
            for &(victim, size, _, reads) in &oldest_first {
                if !admit || used - freed + bytes <= budget {
                    break;
                }
                freed += size;
                victims.push(victim);
                admit = reads.max(sketch.estimate(shard_hash(&victim))) < freq;
            }
            if !admit {
                unloads.push(key);
                self.refused += 1;
                return unloads;
            }
            entries.retain(|e| !victims.contains(&e.0));
            entries.push((key, bytes, tick, freq));
            self.evictions += victims.len() as u64;
            unloads.extend(victims);
            unloads
        }

        fn used(&self) -> usize {
            self.shards.iter().flat_map(|s| &s.0).map(|e| e.1).sum()
        }

        fn len(&self) -> usize {
            self.shards.iter().map(|s| s.0.len()).sum()
        }
    }

    /// The unloads the log holds since it was last taken.
    fn unloads(cache: &GraphCache) -> Vec<GraphKey> {
        (cache.take_log().into_iter())
            .filter_map(|ev| match ev {
                CacheEvent::Unload(key) => Some(key),
                CacheEvent::Load(_) => None,
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Hits, misses, every victim, every refusal and the bytes in use
        /// all repeat the model's, operation for operation — in one shard,
        /// and in four, where a tick per shard has to evict the keys one
        /// tick for the whole cache would, in the same order. The budget
        /// holds after every operation, graphs larger than a shard
        /// included, and a cleared cache given the same operations counts
        /// the same again.
        ///
        /// Beside plain lookups and inserts run probe reads: a lookup
        /// with a floor at or below the charge of the graph the probe
        /// would build — at it exactly, one time in five — then, unless
        /// declined, the insert. A declined miss is one the model
        /// refuses, and at the exact charge it is declined exactly when
        /// the model refuses; it logs nothing and is charged nothing. A
        /// second cache that never declines — a lookup, then an insert on
        /// every miss — ends each run holding and counting what the
        /// declining one does, bytes loaded apart.
        #[test]
        fn admission_and_eviction_are_what_the_model_gives(
            ops in proptest::collection::vec(
                ((0u32..4, 0u32..24), (1usize..13, 0usize..5)), 1..200),
        ) {
            // Up to 10 800 bytes: some larger than a shard.
            let made: Vec<CachedGraph> = (0..13).map(|size| graph_of(size * 900)).collect();
            for shards in [1usize, 4] {
                let cache = GraphCache::with_shards(10_000 * shards, shards);
                let building = GraphCache::with_shards(10_000 * shards, shards);
                cache.enable_log();
                building.enable_log();
                let mut counted = Vec::new();
                for round in 0..2 {
                    let mut model = ModelCache::new(10_000 * shards, shards);
                    for &((op, k), (size, floor)) in &ops {
                        // Two key kinds, so that equal ids never alias.
                        let key = if k % 2 == 0 { GraphKey::Intra(k) } else { GraphKey::Super(k, k + 1) };
                        let graph = || copy_of(&made[size]);
                        let bytes = made[size].bytes();
                        match op {
                            0 => {
                                let want = model.insert(key, bytes);
                                cache.insert(key, graph());
                                building.insert(key, graph());
                                proptest::prop_assert_eq!(unloads(&cache), want.clone(), "{} shards", shards);
                                proptest::prop_assert_eq!(unloads(&building), want);
                            }
                            1 => {
                                let hit = model.get(key);
                                proptest::prop_assert_eq!(cache.get(key).is_some(), hit);
                                proptest::prop_assert_eq!(building.get(key).is_some(), hit);
                            }
                            _ => {
                                let hit = model.get(key);
                                let floor = bytes * floor / 4;
                                let found = cache.lookup(key, || floor);
                                proptest::prop_assert_eq!(building.get(key).is_some(), hit);
                                proptest::prop_assert_eq!(matches!(found, Lookup::Hit(_)), hit);
                                let want = if hit { Vec::new() } else { model.insert(key, bytes) };
                                let refused = want == [key];
                                if !hit {
                                    building.insert(key, graph());
                                }
                                proptest::prop_assert_eq!(unloads(&building), want.clone());
                                match found {
                                    Lookup::Hit(_) => {}
                                    Lookup::Miss => {
                                        proptest::prop_assert!(floor < bytes || !refused, "not declined at the charge");
                                        cache.insert(key, graph());
                                        proptest::prop_assert_eq!(unloads(&cache), want);
                                    }
                                    Lookup::Declined => {
                                        proptest::prop_assert!(refused, "declined, and the model admits");
                                        proptest::prop_assert_eq!(unloads(&cache), Vec::<GraphKey>::new());
                                    }
                                }
                            }
                        }
                        for c in [&cache, &building] {
                            proptest::prop_assert!(c.used() <= c.budget());
                            proptest::prop_assert_eq!(c.used(), model.used());
                            proptest::prop_assert_eq!(c.len(), model.len());
                            let s = c.stats();
                            proptest::prop_assert_eq!((s.evictions, s.refused), (model.evictions, model.refused));
                        }
                    }
                    let (declining, built) = (cache.stats(), building.stats());
                    proptest::prop_assert!(declining.bytes_loaded <= built.bytes_loaded);
                    let decisions = |s: GraphCacheStats| (s.hits, s.misses, s.evictions, s.refused);
                    proptest::prop_assert_eq!(decisions(declining), decisions(built));
                    counted.push(declining);
                    if round == 0 {
                        for c in [&cache, &building] {
                            c.clear();
                            c.reset_stats();
                            c.take_log();
                        }
                    }
                }
                proptest::prop_assert_eq!(counted[0], counted[1], "{} shards, after a clear", shards);
            }
        }
    }

    /// A hot set read again every few operations keeps its place through
    /// a sweep of one-shot graphs four times the budget: between two reads
    /// of the hot set the sweep admits more than the room beside it, so a
    /// cache that admits everything and evicts the least recently used
    /// would push the hot set out before each of its reads.
    #[test]
    fn a_hot_set_survives_a_one_shot_sweep_of_four_budgets() {
        const BUDGET: usize = 32 << 10;
        let c = GraphCache::with_shards(BUDGET, 1);
        // What a probe does: look the graph up, and on a miss decode it and
        // insert it; the graph answers the probe either way.
        let probe = |key: GraphKey, bytes: usize| -> bool {
            if c.get(key).is_some() {
                return true;
            }
            let graph = graph_of(bytes);
            let charged = graph.bytes();
            assert_eq!(c.insert(key, graph).bytes(), charged, "answers its probe");
            false
        };
        let hot: Vec<GraphKey> = (0..4).map(GraphKey::Intra).collect();
        for &key in &hot {
            probe(key, 2 << 10);
        }
        let (mut swept, mut next, mut hot_misses) = (0usize, 100u32, 0u32);
        while swept < 4 * BUDGET {
            // Eight one-shot graphs of 4 KiB: more than the 24 KiB beside
            // the hot set.
            for _ in 0..8 {
                probe(GraphKey::Super(next, next + 1), 4 << 10);
                swept += 4 << 10;
                next += 1;
            }
            for &key in &hot {
                hot_misses += u32::from(!probe(key, 2 << 10));
            }
            assert!(c.used() <= BUDGET, "{} bytes of {BUDGET}", c.used());
        }
        assert_eq!(hot_misses, 0, "the hot set was read again from disk");
        assert!(hot.iter().all(|&key| c.get(key).is_some()));
    }

    #[test]
    fn an_oversized_graph_is_refused_and_still_answers() {
        let c = GraphCache::with_shards(1_000, 1);
        c.insert(GraphKey::Intra(0), graph_of(500));
        let giant = graph_of(50_000);
        let bytes = giant.bytes();
        assert_eq!(c.insert(GraphKey::Super(1, 2), giant).bytes(), bytes);
        assert!(!c.holds(GraphKey::Super(1, 2)), "larger than the shard");
        assert!(c.holds(GraphKey::Intra(0)), "nothing evicted for it");
        assert!(c.used() <= c.budget());
        let s = c.stats();
        assert_eq!((s.evictions, s.refused), (0, 1));
        assert_eq!(s.bytes_loaded, (bytes + c.used()) as u64, "its load counts");
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
        let enc = crate::subgraphs::encode_superedge(&pos, 8, crate::refenc::RefMode::Windowed(4));
        let codec = crate::codec::ListCodec;
        SuperedgeIndex::parse(&enc.bytes, enc.bit_len, ni as u64, 8, codec).expect("parse")
    }

    #[test]
    fn fanout_rows_name_the_graphs_that_list_a_page() {
        let everything: Vec<u32> = (0..8).collect();
        let graphs = [
            superedge_index(6, &[(1, vec![3]), (4, vec![0, 7])]),
            // Every page links to every target: one list, stored once.
            superedge_index(
                6,
                &(0..6).map(|s| (s, everything.clone())).collect::<Vec<_>>(),
            ),
            superedge_index(6, &[(4, vec![2])]),
            superedge_index(6, &[(0, vec![1]), (4, vec![5]), (5, vec![6])]),
        ];
        assert_eq!(graphs[1].layout(), crate::subgraphs::Layout::ListDictionary);
        let sources = |k: usize| -> Option<Vec<u32>> { Some(graphs[k].sources().iter().collect()) };
        // Slot 2 could not be read.
        let slots = [sources(0), sources(1), None, sources(3)];
        // Slot 2's graph has one target, but no page is sent to it.
        let targets: Vec<Option<u32>> = graphs.iter().map(SuperedgeIndex::one_target).collect();
        assert_eq!(targets, [None, None, Some(2), None]);
        let fanout = Fanout::build(6, slots.iter().map(Option::as_deref), &targets).expect("build");
        assert_eq!(fanout.always().iter().collect::<Vec<_>>(), [2]);
        assert!((0..5).all(|k| fanout.target(k).is_none()));
        let rows: Vec<Vec<u32>> = (0..7)
            .map(|local| fanout.slots_of(local).iter().collect())
            .collect();
        let expect: [&[u32]; 7] = [&[1, 3], &[0, 1], &[1], &[1], &[0, 1, 3], &[1, 3], &[]];
        assert_eq!(rows, expect, "page 6 is outside the supernode");
        assert!(fanout.slots_of(4).contains(3) && !fanout.slots_of(4).contains(2));
        let cached = CachedGraph::from(fanout);
        assert_eq!(
            cached.bytes(),
            7 + (1 + 11) + std::mem::size_of::<CachedGraph>(),
            "seven row starts up to 11, then `always` and eleven rows of four slots: a byte each"
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
        /// read and unreadable slots — at the width the
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
                    // One slot in five is unreadable.
                    (kind > 0).then(|| sources.into_iter().filter(|&src| src < ni).collect())
                })
                .collect();
            if many_slots {
                // Empty graphs ahead of the rest push every slot
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
        // (out-superedges, pages, sources per graph)
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
            // The second of two graphs could not be read.
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

    /// [`Fanout::least_charge`] is never above what a fanout is charged:
    /// over random supernodes, with every graph read and with some read by
    /// every page, each graph listing a source at least.
    #[test]
    fn a_fanout_is_charged_its_least_charge_at_least() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below.max(1)
        };
        for round in 0..400 {
            let ni = 1 + next(3000) as u32;
            let degree = match round % 4 {
                0 => next(4),
                1 => next(300),
                _ => next(40),
            } as usize;
            let unread = round % 3 == 0;
            let graphs: Vec<Option<Vec<u32>>> = (0..degree)
                .map(|_| match unread && next(3) == 0 {
                    true => None,
                    false => {
                        let mut sources: Vec<u32> = (0..1 + next(12))
                            .map(|_| next(u64::from(ni)) as u32)
                            .collect();
                        sources.sort_unstable();
                        sources.dedup();
                        Some(sources)
                    }
                })
                .collect();
            let targets: Vec<Option<u32>> = (0..degree)
                .map(|_| next(2).checked_sub(1).map(|_| 0))
                .collect();
            let fanout = Fanout::build(ni, graphs.iter().map(Option::as_deref), &targets).unwrap();
            let charge = CachedGraph::from(fanout).bytes();
            let all_read = graphs.iter().all(Option::is_some);
            let floor = Fanout::least_charge(ni, degree, all_read);
            assert!(floor <= charge, "round {round}: {floor} above {charge}");
            assert!(Fanout::least_charge(ni, degree, false) <= floor);
        }
    }

    /// Every kind of entry is charged its header and its arena — each
    /// section at its width, from a multiple of it, and nothing past the
    /// last — and not the blob it borrows from the resident image.
    #[test]
    fn every_entry_is_charged_its_header_and_arena() {
        // The header every entry is charged: a field that comes or goes in
        // a graph's directory must not move it, and with it every eviction.
        // (80 bytes while a blob held a fat `Arc<[u8]>`; 72 since it holds
        // its file's read buffer behind a thin one.)
        let header = std::mem::size_of::<CachedGraph>();
        assert_eq!(std::mem::size_of::<SuperedgeIndex>(), 32);
        assert_eq!(header, 72);
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
        // The floor a probe looks an intranode graph up with is exact.
        assert_eq!(intra_charge(300, enc.bit_len), g.bytes());
        for lists in [0, 1, 255, 256, 5_000] {
            let g = graph_of(std::mem::size_of::<CachedGraph>() + 8 + 2 * lists);
            let Shape::Intra(index) = &g.shape else {
                unreachable!("an intranode graph")
            };
            assert_eq!(
                intra_charge(index.num_lists(), g.bit_len),
                g.bytes(),
                "{lists}"
            );
        }

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
            let enc = crate::subgraphs::encode_superedge(&dense, nj, mode);
            let index =
                SuperedgeIndex::parse(&enc.bytes, enc.bit_len, ni, nj, codec).expect("parse");
            assert_eq!(index.layout(), layout);
            let sources = dense.iter().filter(|l| !l.is_empty()).count();
            let distinct = dense
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                - 1;
            let sources_at = Width::below(ni).after(0, sources);
            let arena = match layout {
                Layout::Lists => offsets(enc.bit_len).after(sources_at.end, sources + 1).end,
                Layout::SingleTargets | Layout::ListDictionary => {
                    let indexes = Width::below(distinct as u64).after(sources_at.end, sources);
                    match layout {
                        Layout::SingleTargets => Width::below(nj).after(indexes.end, distinct).end,
                        _ => offsets(enc.bit_len).after(indexes.end, distinct + 1).end,
                    }
                }
            };
            assert_eq!(index.heap_bytes(), arena, "{layout:?}");
            let g = CachedGraph::new_encoded_super(blob(enc.bytes), enc.bit_len, index, nj);
            assert!(!g.data.is_empty());
            assert_eq!(g.bytes(), header + arena, "{layout:?}");
        }

        // A fanout of 40 pages over three graphs and one that could not be
        // read; the third has one target, page 300 of its supernode.
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

        // Nothing is charged less than the floor a probe looks a fanout
        // or a superedge graph up with.
        let empty = Fanout::build(0, std::iter::empty(), &[]).expect("build");
        assert_eq!(CachedGraph::from(empty).bytes(), LEAST_CHARGE);
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

    /// Every load is matched by one unload — an eviction, a refusal
    /// right after its load, a replacement, a removal or a clear — so the
    /// paper's log balances.
    #[test]
    fn event_log_balances_loads_and_unloads() {
        let c = GraphCache::with_shards(7_000, 1);
        c.enable_log();
        read_then_insert(&c, GraphKey::Intra(0), 1, 3_000);
        read_then_insert(&c, GraphKey::Intra(1), 1, 3_000);
        read_then_insert(&c, GraphKey::Intra(2), 1, 3_000); // refused
        read_then_insert(&c, GraphKey::Intra(3), 2, 3_000); // evicts 0
        read_then_insert(&c, GraphKey::Intra(1), 0, 3_000); // replaces 1
        let log = c.take_log();
        let (load, unload) = (CacheEvent::Load, CacheEvent::Unload);
        let refused = [load(GraphKey::Intra(2)), unload(GraphKey::Intra(2))];
        assert!(log.windows(2).any(|w| w == refused), "{log:?}");
        let evicted = [load(GraphKey::Intra(3)), unload(GraphKey::Intra(0))];
        assert!(log.windows(2).any(|w| w == evicted), "{log:?}");
        // take_log drains.
        assert!(c.take_log().is_empty());
        c.clear();
        let log = [log, c.take_log()].concat();
        for i in 0..4 {
            let count = |ev: CacheEvent| log.iter().filter(|&&e| e == ev).count();
            let key = GraphKey::Intra(i);
            assert_eq!(count(load(key)), count(unload(key)), "{key:?}: {log:?}");
        }
    }
}
