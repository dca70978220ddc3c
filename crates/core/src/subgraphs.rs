//! Intranode and superedge graph codecs (§2, §3.3).
//!
//! * An **intranode graph** holds the links among the pages of one
//!   supernode, in local page indices (0..|Ni|), reference-encoded.
//! * A **superedge graph** for superedge `i → j` holds the bipartite links
//!   from `Ni` into `Nj`. It is stored either **positive** (the links that
//!   exist: a gap-coded list of source pages that have any target, plus
//!   their target lists) or **negative** (the complement: one target list
//!   per *every* source of `Ni`, listing the `Nj` pages it does **not**
//!   link to). The representation with the smaller encoding wins; the
//!   paper's simpler edge-count heuristic is available behind
//!   [`SuperedgePolicy::EdgeCount`] for the ablation.
//! * A positive graph stores its target lists in one of three
//!   **layouts** ([`Layout`]), again whichever encodes smallest: one
//!   reference-encoded list per source (the paper's), or — because most
//!   superedge graphs of a crawl are template links, the same one or two
//!   lists repeated down a site — a dictionary of the distinct targets or
//!   of the distinct lists, plus one index per source.

use crate::codec::ListCodec;
use crate::flat::{FlatLists, ListBuf};
use crate::refenc::{
    append_bounded_gap_list, append_gap_section, bounded_gap_list_len, encode_lists, offset_width,
    plain_cost, plan_lists, read_sole_entry, scan_lists, stream_bits_floor, stream_list_count,
    write_bounded_gap_list, write_lists_planned, DecodeScratch, EncodedLists, ListsIndex,
    ListsPlan, RefMode, Universe,
};
use crate::section::{self, Section, Width};
use crate::{Result, SNodeError};
use wg_bitio::{codes, BitReader, BitWriter, Window};

/// How to choose between positive and negative superedge graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuperedgePolicy {
    /// Compare actual encoded sizes (both candidates are encoded; the
    /// smaller is kept). Default.
    #[default]
    EncodedSize,
    /// The paper's stated heuristic: fewer edges wins (footnote 4 notes
    /// this is approximate).
    EdgeCount,
}

/// Flag stored with each encoded superedge graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperedgeKind {
    /// Links that exist.
    Positive,
    /// Links that do not exist (complement within `Ni × Nj`).
    Negative,
}

// --- Intranode graphs ---------------------------------------------------

/// Encodes an intranode graph: `lists[p]` is the sorted local adjacency of
/// local page `p` (entries `< lists.len()`), so a list stream whose
/// universe is its own list count.
pub fn encode_intranode(lists: &[Vec<u32>], mode: RefMode) -> EncodedLists {
    encode_lists(lists, lists.len() as u64, mode, ListCodec)
}

/// Decodes a full intranode graph.
pub fn decode_intranode(bytes: &[u8], bit_len: u64) -> Result<Vec<Vec<u32>>> {
    ListsIndex::parse_at(bytes, bit_len, 0, Universe::SameAsCount)?.decode_all(bytes, bit_len)
}

// --- Superedge graphs -----------------------------------------------------

/// An encoded superedge graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSuperedge {
    /// Positive or negative representation.
    pub kind: SuperedgeKind,
    /// The bit stream (self-contained: kind, |Ni|, payload).
    pub bytes: Vec<u8>,
    /// Exact bit length.
    pub bit_len: u64,
}

/// The links of one superedge `i → j` in sparse positive form: what the
/// builder produces and the positive representation stores.
#[derive(Debug, Clone, Copy)]
pub struct SuperedgeLinks<'a> {
    /// The local pages of `Ni` that link into `Nj`, ascending.
    pub sources: &'a [u32],
    /// List `k` is the sorted, non-empty list of local `Nj` targets of
    /// page `sources[k]`.
    pub lists: FlatLists<'a>,
    /// `|Ni|`.
    pub ni: u64,
    /// `|Nj|`.
    pub nj: u64,
}

/// Encodes the superedge graph for `i → j` from dense input:
/// `pos_lists[s]` is the sorted list of local `Nj` targets of the `s`-th
/// page of `Ni` (possibly empty); `nj = |Nj|`. For callers that hold one
/// `Vec` per page; the build plans and writes its sparse
/// [`SuperedgeLinks`] with `plan_superedge` and `write_superedge`,
/// which is all this does.
pub fn encode_superedge(
    pos_lists: &[Vec<u32>],
    nj: u64,
    mode: RefMode,
    policy: SuperedgePolicy,
) -> EncodedSuperedge {
    let (sources, lists) = positive_sources(pos_lists);
    let links = SuperedgeLinks {
        sources: &sources,
        lists: lists.view(),
        ni: pos_lists.len() as u64,
        nj,
    };
    write_superedge(links, &plan_superedge(links, mode, policy))
}

/// The representation chosen for one superedge graph, with what writing
/// it needs.
pub(crate) enum SuperedgePlan {
    Positive(PositivePlan),
    /// The complement of every page of `Ni` within `Nj`, and its plan.
    Negative {
        lists: ListBuf,
        plan: ListsPlan,
    },
}

/// Chooses how `links` will be stored.
///
/// The polarity decision works on [`ListsPlan`]s — exact sizes computed
/// without writing a bit stream — so only the winning orientation is ever
/// encoded. (The plan's `total_bits` equals the encoded size exactly, so
/// the winner is the same one full encoding of both sides would pick.)
pub(crate) fn plan_superedge(
    links: SuperedgeLinks<'_>,
    mode: RefMode,
    policy: SuperedgePolicy,
) -> SuperedgePlan {
    let SuperedgeLinks { ni, nj, .. } = links;
    debug_assert_eq!(links.sources.len(), links.lists.len());
    debug_assert!(links.sources.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(links.sources.last().is_none_or(|&s| u64::from(s) < ni));
    let pos_edges = links.lists.total() as u64;
    let neg_edges = ni * nj - pos_edges;

    // Only consider the complement when it has fewer edges — otherwise
    // materialising it could cost Θ(|Ni|·|Nj|) for nothing.
    if neg_edges >= pos_edges {
        return SuperedgePlan::Positive(plan_positive(links, mode));
    }
    // The negative representation stores a list for every page of `Ni`.
    let mut stored = links.sources.iter().zip(links.lists.iter()).peekable();
    let (mut lists, mut absent) = (ListBuf::default(), Vec::new());
    for s in 0..ni as u32 {
        let present = stored.next_if(|(&src, _)| src == s);
        complement_into(present.map_or(&[], |(_, l)| l), nj as u32, &mut absent);
        lists.push(absent.iter().copied());
    }
    let plan = plan_lists(lists.view(), nj, mode);
    if policy == SuperedgePolicy::EncodedSize {
        let pos = plan_positive(links, mode);
        if 1 + plan.total_bits >= pos.bits {
            return SuperedgePlan::Positive(pos);
        }
    }
    // `SuperedgePolicy::EdgeCount`: neg_edges < pos_edges here.
    SuperedgePlan::Negative { lists, plan }
}

/// How a positive superedge graph stores its target lists. Declared in
/// the order ties are broken in: of two layouts of equal size the graph
/// takes the one that is cheaper to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layout {
    /// Every source links to exactly one target: the sorted distinct
    /// targets as one gap list, then one minimal-binary index into it per
    /// source. A decode is two array lookups.
    SingleTargets,
    /// One reference-encoded list per source — the paper's format, and
    /// the only layout of a negative graph.
    Lists,
    /// The distinct lists once, in order of first appearance, as an
    /// ordinary reference-encoded stream, then one minimal-binary index
    /// into them per source.
    ListDictionary,
}

impl Layout {
    /// The marker that names this layout after the kind bit of a positive
    /// graph. A prefix code: [`Layout::read`] is its decoder.
    fn marker(self) -> &'static [bool] {
        match self {
            Layout::SingleTargets => &[true],
            Layout::Lists => &[false, false],
            Layout::ListDictionary => &[false, true],
        }
    }

    fn read(w: &mut Window<'_, '_>) -> Result<Layout> {
        if w.read_bit()? {
            return Ok(Layout::SingleTargets);
        }
        Ok(match w.read_bit()? {
            true => Layout::ListDictionary,
            false => Layout::Lists,
        })
    }
}

/// A planned positive encoding: the layout chosen, what writing it needs,
/// and its exact size.
pub(crate) struct PositivePlan {
    body: PlannedBody,
    /// Exact encoded size in bits, kind and marker bits included.
    bits: u64,
}

enum PlannedBody {
    SingleTargets {
        dict: Vec<u32>,
        index: Vec<u32>,
    },
    Lists(ListsPlan),
    ListDictionary {
        dict: ListBuf,
        plan: ListsPlan,
        index: Vec<u32>,
    },
}

impl PositivePlan {
    fn layout(&self) -> Layout {
        match self.body {
            PlannedBody::SingleTargets { .. } => Layout::SingleTargets,
            PlannedBody::Lists(_) => Layout::Lists,
            PlannedBody::ListDictionary { .. } => Layout::ListDictionary,
        }
    }

    /// What the choice between plans minimises: size, then [`Layout`]'s
    /// order.
    fn rank(&self) -> (u64, Layout) {
        (self.bits, self.layout())
    }
}

/// The distinct lists of a positive graph, each named by the stored list
/// that first holds it, and every stored list's position among them.
struct Distinct {
    first: Vec<u32>,
    index: Vec<u32>,
}

impl Distinct {
    fn of(lists: FlatLists<'_>) -> Self {
        let mut first = Vec::new();
        let mut seen = std::collections::HashMap::with_capacity(lists.len());
        let index = (0u32..)
            .zip(lists.iter())
            .map(|(i, list)| {
                *seen.entry(list).or_insert_with(|| {
                    first.push(i);
                    first.len() as u32 - 1
                })
            })
            .collect();
        Self { first, index }
    }
}

/// Size of the per-source indexes into a dictionary of `entries`, in
/// either dictionary layout.
fn index_bits(index: &[u32], entries: usize) -> u64 {
    let index = index.iter();
    index
        .map(|&i| codes::minimal_binary_len(u64::from(i), entries as u64))
        .sum()
}

/// Prices the three layouts of a positive graph and keeps the smallest,
/// cheapest first: each layout gets a floor that costs one pass over the
/// lists, the layouts are priced exactly in order of their floors, and
/// pricing stops at the first floor the best exact price so far already
/// beats — so windowed reference selection over all the stored lists, the
/// expensive candidate, runs only for a graph the dictionaries might lose.
/// The winner is the one pricing every layout exactly would pick.
fn plan_positive(links: SuperedgeLinks<'_>, mode: RefMode) -> PositivePlan {
    let pricer = Pricer::new(links, mode);
    let mut floors: Vec<(u64, Layout)> =
        [Layout::SingleTargets, Layout::Lists, Layout::ListDictionary]
            .into_iter()
            .filter_map(|layout| Some((pricer.floor(layout)?, layout)))
            .collect();
    floors.sort_unstable();
    let mut floors = floors.into_iter();
    // `Layout::Lists` always has a floor, so there is a first.
    let mut best = pricer.price(floors.next().map_or(Layout::Lists, |(_, layout)| layout));
    for (floor, layout) in floors {
        if best.rank() <= (floor, layout) {
            break;
        }
        let plan = pricer.price(layout);
        if plan.rank() < best.rank() {
            best = plan;
        }
    }
    best
}

/// One positive graph's links with what every layout's price shares.
struct Pricer<'a> {
    links: SuperedgeLinks<'a>,
    mode: RefMode,
    /// Kind bit and `sources`: what every layout starts with, the marker
    /// aside.
    preamble_bits: u64,
    /// Found when the list dictionary is first asked about.
    distinct: std::cell::OnceCell<Distinct>,
}

impl<'a> Pricer<'a> {
    fn new(links: SuperedgeLinks<'a>, mode: RefMode) -> Self {
        Self {
            links,
            mode,
            preamble_bits: 1 + bounded_gap_list_len(links.sources, links.ni),
            distinct: std::cell::OnceCell::new(),
        }
    }

    fn distinct(&self) -> &Distinct {
        self.distinct.get_or_init(|| Distinct::of(self.links.lists))
    }

    fn plain_cost(&self, stored: u32) -> u64 {
        plain_cost(self.links.lists.get(stored as usize), self.links.nj)
    }

    /// A lower bound on [`Pricer::price`]'s `bits` for `layout`, or `None`
    /// where the layout cannot be the choice.
    fn floor(&self, layout: Layout) -> Option<u64> {
        let lists = self.links.lists;
        let marker = layout.marker().len() as u64;
        let body = match layout {
            Layout::SingleTargets => {
                if lists.is_empty() || lists.iter().any(|l| l.len() != 1) {
                    return None;
                }
                // Its exact price is one sort away, so no floor is worth
                // computing: this one puts it first in line.
                0
            }
            Layout::Lists => stream_bits_floor((0..lists.len() as u32).map(|i| self.plain_cost(i))),
            Layout::ListDictionary => {
                let Distinct { first, index } = self.distinct();
                // With every list distinct the dictionary is the list
                // stream, and the indexes come on top.
                if first.len() == lists.len() {
                    return None;
                }
                stream_bits_floor(first.iter().map(|&i| self.plain_cost(i)))
                    + index_bits(index, first.len())
            }
        };
        Some(self.preamble_bits + marker + body)
    }

    /// The exact encoding of the graph in `layout`, which must be one
    /// [`Pricer::floor`] returned a floor for.
    fn price(&self, layout: Layout) -> PositivePlan {
        let SuperedgeLinks { lists, nj, .. } = self.links;
        let marker = layout.marker().len() as u64;
        let (body, body_bits) = match layout {
            Layout::SingleTargets => {
                let (dict, index) = single_target_dict(lists);
                let bits = bounded_gap_list_len(&dict, nj) + index_bits(&index, dict.len());
                (PlannedBody::SingleTargets { dict, index }, bits)
            }
            Layout::Lists => {
                let plan = plan_lists(lists, nj, self.mode);
                let bits = plan.total_bits;
                (PlannedBody::Lists(plan), bits)
            }
            Layout::ListDictionary => {
                let Distinct { first, index } = self.distinct();
                let mut dict = ListBuf::default();
                for &i in first {
                    dict.push(lists.get(i as usize).iter().copied());
                }
                let index = index.clone();
                let plan = plan_lists(dict.view(), nj, self.mode);
                let bits = plan.total_bits + index_bits(&index, first.len());
                (PlannedBody::ListDictionary { dict, plan, index }, bits)
            }
        };
        PositivePlan {
            body,
            bits: self.preamble_bits + marker + body_bits,
        }
    }
}

/// The sorted distinct targets of single-target `lists` and each list's
/// index into them. Real crawls are full of such superedge graphs —
/// site-template links where every page of one site points at one or two
/// hub pages of another — and the per-source γ(len)+reference-flag
/// overhead of the list stream dwarfs their information content.
fn single_target_dict(lists: FlatLists<'_>) -> (Vec<u32>, Vec<u32>) {
    let mut dict: Vec<u32> = lists.iter().map(|l| l[0]).collect();
    dict.sort_unstable();
    dict.dedup();
    let index: Vec<u32> = lists
        .iter()
        .map(|l| dict.binary_search(&l[0]).unwrap_or_default() as u32)
        .collect();
    (dict, index)
}

/// Splits a dense per-source list array into (non-empty source ids, their
/// lists) — the positive representation's layout.
fn positive_sources(pos_lists: &[Vec<u32>]) -> (Vec<u32>, ListBuf) {
    let mut lists = ListBuf::default();
    let sources = (0u32..)
        .zip(pos_lists)
        .filter(|(_, l)| !l.is_empty())
        .map(|(s, l)| {
            lists.push(l.iter().copied());
            s
        })
        .collect();
    (sources, lists)
}

/// Writes the graph `plan` chose for `links`, every section straight onto
/// one stream whose size the plan knows.
pub(crate) fn write_superedge(links: SuperedgeLinks<'_>, plan: &SuperedgePlan) -> EncodedSuperedge {
    match plan {
        SuperedgePlan::Positive(pos) => write_superedge_positive(links, pos),
        SuperedgePlan::Negative { lists, plan } => {
            let mut w = BitWriter::with_capacity_bits(1 + plan.total_bits as usize);
            w.write_bit(true); // kind = negative
            write_lists_planned(&mut w, lists.view(), links.nj, plan);
            let (bytes, bit_len) = w.finish();
            EncodedSuperedge {
                kind: SuperedgeKind::Negative,
                bytes,
                bit_len,
            }
        }
    }
}

fn write_superedge_positive(links: SuperedgeLinks<'_>, pos: &PositivePlan) -> EncodedSuperedge {
    let mut w = BitWriter::with_capacity_bits(pos.bits as usize);
    // |Ni| is NOT stored: the resident supernode metadata knows every
    // supernode's size, and the decoder receives it as a parameter.
    w.write_bit(false); // kind = positive
    (pos.layout().marker().iter()).for_each(|&bit| w.write_bit(bit));
    write_bounded_gap_list(&mut w, links.sources, links.ni);
    let write_index = |w: &mut BitWriter, index: &[u32], entries: usize| {
        for &i in index {
            codes::write_minimal_binary(w, u64::from(i), entries as u64);
        }
    };
    match &pos.body {
        PlannedBody::SingleTargets { dict, index } => {
            write_bounded_gap_list(&mut w, dict, links.nj);
            write_index(&mut w, index, dict.len());
        }
        PlannedBody::Lists(plan) => write_lists_planned(&mut w, links.lists, links.nj, plan),
        PlannedBody::ListDictionary { dict, plan, index } => {
            write_lists_planned(&mut w, dict.view(), links.nj, plan);
            write_index(&mut w, index, dict.view().len());
        }
    }
    let (bytes, bit_len) = w.finish();
    debug_assert_eq!(bit_len, pos.bits, "positive plan mispriced its layout");
    EncodedSuperedge {
        kind: SuperedgeKind::Positive,
        bytes,
        bit_len,
    }
}

/// Decodes a superedge graph back to **positive** lists, one per page of
/// `Ni` (empty where no links exist). `ni`/`nj` must match the encoding
/// call (the resident metadata records both).
pub fn decode_superedge(bytes: &[u8], bit_len: u64, ni: u64, nj: u64) -> Result<Vec<Vec<u32>>> {
    let index = SuperedgeIndex::parse(bytes, bit_len, ni, nj, ListCodec)?;
    (0..ni)
        .map(|s| index.targets_of(bytes, bit_len, s, nj))
        .collect()
}

/// Directory of an encoded superedge graph, complete from parse on (no
/// byte references) — pair it with the bytes to decode, as with
/// [`crate::refenc::ListsIndex`].
///
/// A compact header and one arena, which holds everything a decode reads
/// besides the bytes, in the order it reads it: a positive graph's
/// `sources`, then for a dictionary one index per source followed by the
/// distinct targets or the offsets of the distinct lists, and otherwise
/// the offsets of the list stream — one list per source, or per page of
/// `Ni` for a negative graph. (The bytes hold a dictionary's entries ahead
/// of its indexes.)
/// Each is a [`Section`] at the width its bound needs: `sources` by |Ni|,
/// indexes by the entry count, targets by |Nj|, offsets by the bit length.
/// Of those only |Ni| is kept: the other two widths are, in bytes the
/// header's words leave, and the last section is the rest of the arena.
#[derive(Debug)]
pub struct SuperedgeIndex {
    arena: Box<[u8]>,
    /// How many values `sources` holds.
    sources: u32,
    /// `|Ni|` and `|Nj|`.
    ni: u32,
    nj: u32,
    /// Representation stored.
    pub kind: SuperedgeKind,
    /// [`Layout::Lists`] for a negative graph.
    layout: Layout,
    /// The width of a dictionary's indexes ([`Width::Zero`] otherwise).
    index: Width,
    /// The width of the last section: single targets, or offsets.
    body: Width,
}

/// Where the bits of one encoded superedge graph go, by section; the
/// sections add up to the graph's bit length less any trailing bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperedgeBits {
    /// Layout of the stored lists ([`Layout::Lists`] for a negative graph).
    pub layout: Layout,
    /// Kind bit and layout marker.
    pub header: u64,
    /// The `sources` gap list of a positive graph.
    pub sources: u64,
    /// Dictionary entries: distinct targets or the stream of distinct
    /// lists.
    pub dictionary: u64,
    /// Per-source dictionary indexes.
    pub index: u64,
    /// The per-source list stream of [`Layout::Lists`].
    pub stream: u64,
}

/// What [`scan_sources`] read of a positive superedge graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Scanned {
    /// Where its `sources` lie in the pool.
    pub sources: std::ops::Range<usize>,
    /// The local target every source links to, when the graph is a
    /// single-target dictionary of one entry: template links, whose whole
    /// answer is this one number.
    pub target: Option<u32>,
}

/// Reads of an encoded superedge graph what a [`crate::cache::Fanout`]
/// wants of it and builds nothing: appends a positive graph's `sources` —
/// ascending and below `ni`, checked as [`SuperedgeIndex::parse`] checks
/// them — to `pool` and returns where they lie in it, with the one target
/// of a single-target dictionary of one entry (see [`sole_target`]);
/// `None` for a negative graph, which stores a list for every page. On an
/// error `pool` is as it was.
pub(crate) fn scan_sources(
    bytes: &[u8],
    bit_len: u64,
    ni: u64,
    nj: u64,
    pool: &mut Vec<u32>,
) -> Result<Option<Scanned>> {
    let mut r = BitReader::with_bit_len(bytes, bit_len);
    let mut w = r.window();
    if w.read_bit()? {
        return Ok(None);
    }
    let layout = Layout::read(&mut w)?;
    let start = pool.len();
    if let Err(e) = append_bounded_gap_list(&mut w, ni, pool) {
        pool.truncate(start);
        return Err(e);
    }
    let sources = start..pool.len();
    let target = match layout {
        Layout::SingleTargets => sole_target(&mut w, sources.len(), nj),
        Layout::Lists | Layout::ListDictionary => None,
    };
    Ok(Some(Scanned { sources, target }))
}

/// The entry of the single-target dictionary `r` is at, after `sources`
/// sources, if it holds one only — read with the checks
/// [`SuperedgeIndex::parse`] makes: no more entries than sources and at
/// least one, a count its bits can hold, an entry below `nj`. A one-entry
/// dictionary's per-source indexes take no bits, so nothing lies behind.
/// `None` for any other count, and for a read that fails: the graph is
/// then parsed like any other, and its damage found where a probe draws
/// on it.
fn sole_target(w: &mut Window<'_, '_>, sources: usize, nj: u64) -> Option<u32> {
    let entry = read_sole_entry(w, nj).ok()??;
    (sources > 0).then_some(entry)
}

impl SuperedgeIndex {
    /// Parses an encoded superedge graph whole: its kind, for a positive
    /// graph its layout and `sources`, and the directory of its body — the
    /// offsets of a list stream, or a dictionary's entries and indexes.
    /// `ni` = |Ni| and `nj` = |Nj| come from the supernode metadata; the
    /// codec argument is read by nothing, and [`ListCodec`] says which
    /// caller it stays for.
    ///
    /// Every count the arena is sized by is checked against what the bytes
    /// hold first: `sources` are read into it once their count fits the
    /// bits that follow, and it then grows once, to its size, after the
    /// body's count is read — a list stream must store one list per source
    /// (per page of `Ni` if negative) and no more than its bits can, a
    /// dictionary between one entry and one per source (none without
    /// sources). So no allocation outgrows the graph's bits, whatever they
    /// claim.
    pub fn parse(bytes: &[u8], bit_len: u64, ni: u64, nj: u64, _codec: ListCodec) -> Result<Self> {
        let pages = |n: u64| {
            u32::try_from(n).map_err(|_| SNodeError::Corrupt("supernode size overflows u32"))
        };
        let (ni32, nj32) = (pages(ni)?, pages(nj)?);
        let mut r = BitReader::with_bit_len(bytes, bit_len);
        let mut w = r.window();
        let (kind, layout) = match w.read_bit()? {
            true => (SuperedgeKind::Negative, Layout::Lists),
            false => (SuperedgeKind::Positive, Layout::read(&mut w)?),
        };
        let mut arena = Vec::new();
        let sources = match kind {
            SuperedgeKind::Negative => 0,
            SuperedgeKind::Positive => {
                append_gap_section(&mut w, ni, &mut arena, Width::below(ni))?
            }
        };
        let body_at = w.position();
        // How many values the body holds, and a dictionary's entry count.
        let (len, entries) = match layout {
            Layout::Lists => {
                let (lists, _) = stream_list_count(bytes, bit_len, body_at)?;
                let stored = match kind {
                    SuperedgeKind::Negative => ni,
                    SuperedgeKind::Positive => u64::from(sources),
                };
                if lists != stored {
                    return Err(SNodeError::Corrupt(
                        "list stream count disagrees with sources",
                    ));
                }
                (lists + 1, 0)
            }
            Layout::SingleTargets | Layout::ListDictionary => {
                // A builder writes one entry per distinct list, so never
                // more than there are sources.
                let entries = w.read_gamma()?;
                if entries > u64::from(sources) || (entries == 0 && sources > 0) {
                    return Err(SNodeError::Corrupt(
                        "dictionary size disagrees with sources",
                    ));
                }
                let sentinel = u64::from(layout == Layout::ListDictionary);
                (entries + sentinel, entries)
            }
        };
        let (index, body) = match layout {
            Layout::SingleTargets => (Width::below(entries), Width::below(nj)),
            _ => (Width::below(entries), offset_width(bit_len)),
        };
        // A dictionary keeps one index per source.
        let indexed = sources as usize * usize::from(layout != Layout::Lists);
        let indexes = index.after(arena.len(), indexed);
        let size = body.after(indexes.end, len as usize).end;
        arena.reserve_exact(size - arena.len());
        let universe = Universe::Explicit(nj);
        if layout == Layout::Lists {
            scan_lists(bytes, bit_len, body_at, universe, &mut arena, body)?;
        } else {
            // The indexes go ahead of the entries they follow in the bytes.
            arena.resize(indexes.end, 0);
            let index_at = match layout {
                Layout::ListDictionary => {
                    scan_lists(bytes, bit_len, body_at, universe, &mut arena, body)?.2
                }
                _ => {
                    r.seek(body_at)?;
                    let mut w = r.window();
                    append_gap_section(&mut w, nj, &mut arena, body)?;
                    w.position()
                }
            };
            r.seek(index_at)?;
            let mut w = r.window();
            let slots = arena.get_mut(indexes).unwrap_or_default();
            for i in 0..indexed {
                // Below `entries` by construction of the code, so a `u32`.
                let entry = w.read_minimal_binary(entries)? as u32;
                section::put(slots, index, i, entry);
            }
        }
        debug_assert_eq!(arena.len(), size, "arena sized by its counts");
        Ok(Self {
            arena: arena.into_boxed_slice(),
            sources,
            ni: ni32,
            nj: nj32,
            kind,
            layout,
            index,
            body,
        })
    }

    /// `sources`, a dictionary's indexes (empty otherwise), and the last
    /// section: a dictionary's entries or a list stream's offsets. That
    /// one is as long as the rest of the arena holds; at width 0, which
    /// only the targets of a single-target dictionary into a one-page
    /// supernode take, it is one entry (none without sources).
    fn sections(&self) -> [Section<&[u8]>; 3] {
        let sources = self.sources();
        // A dictionary keeps one index per source.
        let indexed = self.sources * u32::from(self.layout != Layout::Lists);
        let end = sources.len() * Width::below(u64::from(self.ni)).bytes();
        let indexes = (self.index).after(end, indexed as usize);
        let body = self.body.after(indexes.end, 0).start;
        let rest = self.arena.len().saturating_sub(body);
        let len = match self.body {
            Width::Zero => self.sources.min(1),
            // A shift, not a division: 1, 2 and 4 bytes are 0, 1 and 2.
            width => (rest >> (width.bytes() / 2)) as u32,
        };
        let body = body..body + len as usize * self.body.bytes();
        let indexes = Section::cut(&self.arena, indexes, indexed, self.index);
        [
            sources,
            indexes,
            Section::cut(&self.arena, body, len, self.body),
        ]
    }

    /// The positive target list of local source `s` (`nj` = |Nj|).
    pub fn targets_of(&self, bytes: &[u8], bit_len: u64, s: u64, nj: u64) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        let mut scratch = DecodeScratch::default();
        self.targets_of_into(bytes, bit_len, s, nj, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Decodes the positive target list of local source `s` into `out`
    /// (cleared first), through the caller's buffers — see
    /// [`ListsIndex::decode_list_into`], which this ends in unless the
    /// answer takes no list decode at all: a page that is none of the
    /// graph's `sources` has no targets, and a source of a single-target
    /// dictionary has the one its index names.
    pub fn targets_of_into(
        &self,
        bytes: &[u8],
        bit_len: u64,
        s: u64,
        nj: u64,
        scratch: &mut DecodeScratch,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        out.clear();
        if s >= u64::from(self.ni) {
            return Err(SNodeError::Corrupt("superedge source out of range"));
        }
        if self.kind == SuperedgeKind::Negative {
            // The stored list goes to a buffer of its own, lent out for
            // the decode: `out` is for its complement.
            let mut stored = std::mem::take(&mut scratch.stored);
            let decoded = self.stored_list_into(bytes, bit_len, s as u32, scratch, &mut stored);
            if decoded.is_ok() {
                complement_into(&stored, nj as u32, out);
            }
            scratch.stored = stored;
            return decoded;
        }
        match source_rank(self.sources(), s as u32, self.ni) {
            Some(i) => self.stored_list_into(bytes, bit_len, i as u32, scratch, out),
            None => Ok(()),
        }
    }

    /// Decodes stored list `i` (in stored order, not source-id space) into
    /// `out` (cleared first).
    fn stored_list_into(
        &self,
        bytes: &[u8],
        bit_len: u64,
        i: u32,
        scratch: &mut DecodeScratch,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        out.clear();
        let [_, index, body] = self.sections();
        let (offsets, list) = match self.layout {
            Layout::Lists => (body, i),
            Layout::SingleTargets | Layout::ListDictionary => {
                let entry = (index.get(i as usize))
                    .ok_or(SNodeError::Corrupt("stored list index out of range"))?;
                if self.layout == Layout::ListDictionary {
                    (body, entry)
                } else {
                    // Parsing validated every index against the entries, so
                    // a miss here means the arena was mutated afterwards.
                    let target = (body.get(entry as usize))
                        .ok_or(SNodeError::Corrupt("single-target dictionary slot missing"))?;
                    out.push(target);
                    return Ok(());
                }
            }
        };
        ListsIndex::view(u64::from(self.nj), offsets)
            .decode_list_into(bytes, bit_len, list, scratch, out)
    }

    /// Total number of positive edges represented.
    pub fn count_positive_edges(&self, bytes: &[u8], bit_len: u64, nj: u64) -> Result<u64> {
        let mut total = 0u64;
        for i in 0..self.num_stored_lists() {
            let stored = self.stored_list(bytes, bit_len, i)?.len() as u64;
            total += match self.kind {
                SuperedgeKind::Positive => stored,
                SuperedgeKind::Negative => nj - stored,
            };
        }
        Ok(total)
    }

    /// Heap footprint of the directory: its arena, which parsing allocated
    /// at its final size — one offset per stored list plus one, or one
    /// index per source and one entry (or offset) per dictionary entry,
    /// beside `sources`, each at its width — so the cache charges what a
    /// graph occupies at admission and never re-accounts.
    pub fn heap_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Directory over the reference-encoded lists the graph stores — one
    /// per non-empty source ([`Layout::Lists`], positive), per source page
    /// (negative) or per distinct list ([`Layout::ListDictionary`]).
    /// `None` for [`Layout::SingleTargets`], which stores no list stream.
    pub fn lists(&self) -> Option<ListsIndex<&[u8]>> {
        let offsets = match self.layout {
            Layout::Lists | Layout::ListDictionary => self.sections()[2],
            Layout::SingleTargets => return None,
        };
        Some(ListsIndex::view(u64::from(self.nj), offsets))
    }

    /// Layout of the stored lists ([`Layout::Lists`] for a negative graph).
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// `|Nj|`, the universe of the targets, as parsed.
    pub(crate) fn nj(&self) -> u64 {
        u64::from(self.nj)
    }

    /// Number of stored lists (in stored order, not source-id space): one
    /// per source, or per page of `Ni` for a negative graph.
    pub fn num_stored_lists(&self) -> u32 {
        match self.kind {
            SuperedgeKind::Positive => self.sources,
            SuperedgeKind::Negative => self.ni,
        }
    }

    /// Decodes stored list `i` (in stored order, not source-id space).
    pub fn stored_list(&self, bytes: &[u8], bit_len: u64, i: u32) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        let mut scratch = DecodeScratch::default();
        self.stored_list_into(bytes, bit_len, i, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// First bit past the encoded payload.
    pub fn end_bit(&self) -> u64 {
        let bits = self.bit_breakdown();
        bits.header + bits.sources + bits.dictionary + bits.index + bits.stream
    }

    /// The graph's bits by section, from the arena alone: every section is
    /// the size of what parsing kept of it, or ends where a list stream's
    /// last offset says.
    pub fn bit_breakdown(&self) -> SuperedgeBits {
        let [sources, index, body] = self.sections();
        let values = |section: Section<&[u8]>| section.iter().collect::<Vec<u32>>();
        // The marker's length is the one thing about a graph's bytes that
        // parsing does not keep; its code is a prefix code, so the layout
        // gives it back. A negative graph has none, and no `sources`.
        let (header, sources) = match self.kind {
            SuperedgeKind::Positive => (
                1 + self.layout.marker().len() as u64,
                bounded_gap_list_len(&values(sources), u64::from(self.ni)),
            ),
            SuperedgeKind::Negative => (1, 0),
        };
        let body_start = header + sources;
        let stream = |offsets: Section<&[u8]>| {
            let end = offsets.last().map_or(body_start, u64::from);
            end.saturating_sub(body_start)
        };
        let mut bits = SuperedgeBits {
            layout: self.layout,
            header,
            sources,
            dictionary: 0,
            index: 0,
            stream: 0,
        };
        match self.layout {
            Layout::Lists => bits.stream = stream(body),
            Layout::SingleTargets => {
                bits.dictionary = bounded_gap_list_len(&values(body), u64::from(self.nj));
                bits.index = index_bits(&values(index), body.len());
            }
            Layout::ListDictionary => {
                bits.dictionary = stream(body);
                bits.index = index_bits(&values(index), body.len().saturating_sub(1));
            }
        }
        bits
    }

    /// Positive encodings only: the sorted source ids with non-empty
    /// target lists (empty for negative encodings).
    pub fn sources(&self) -> Section<&[u8]> {
        let width = Width::below(u64::from(self.ni));
        let at = width.after(0, self.sources as usize);
        Section::cut(&self.arena, at, self.sources, width)
    }

    /// What [`crate::cache::Fanout::build`] takes of a graph: the
    /// [`SuperedgeIndex::sources`] of a positive one, `None` for a
    /// negative one, which every page consults.
    pub fn positive_sources(&self) -> Option<Section<&[u8]>> {
        (self.kind == SuperedgeKind::Positive).then(|| self.sources())
    }

    /// The local target every source links to, for a single-target
    /// dictionary of one entry: what `scan_sources` reads of the graph,
    /// and what a [`crate::cache::Fanout`] answers its pages with.
    pub fn one_target(&self) -> Option<u32> {
        if self.layout != Layout::SingleTargets || self.sources == 0 {
            return None;
        }
        let targets = self.sections()[2];
        (targets.len() == 1).then(|| targets.get(0)).flatten()
    }
}

/// Where page `s` stands among `sources` (ascending, below `ni`), if it is
/// one. The first read is where an even spread over `0..ni` would put it,
/// and the search gallops out from there: a graph whose sources are spread
/// evenly answers from the one cache line it reads first, where halving
/// reads a line per level.
fn source_rank(sources: Section<&[u8]>, s: u32, ni: u32) -> Option<usize> {
    let n = sources.len();
    let guess = (u64::from(s) * n as u64 / u64::from(ni.max(1))) as usize;
    let at = guess.min(n.checked_sub(1)?);
    // Every position read is below `n`.
    let source = |i: usize| sources.get(i).unwrap_or_default();
    let (lo, hi) = match source(at).cmp(&s) {
        std::cmp::Ordering::Equal => return Some(at),
        std::cmp::Ordering::Less => {
            let (mut lo, mut step) = (at + 1, 1);
            while lo + step <= n && source(lo + step - 1) < s {
                lo += step;
                step *= 2;
            }
            (lo, (lo + step).min(n))
        }
        std::cmp::Ordering::Greater => {
            let (mut hi, mut step) = (at, 1);
            while hi >= step && source(hi - step) > s {
                hi -= step;
                step *= 2;
            }
            (hi.saturating_sub(step), hi)
        }
    };
    Some(lo + sources.slice(lo..hi).position(s)?)
}

/// Overwrites `out` with the sorted complement of `list` within `0..n`,
/// growing it to that length at most.
fn complement_into(list: &[u32], n: u32, out: &mut Vec<u32>) {
    out.clear();
    out.reserve_exact((n as usize).saturating_sub(list.len()));
    let mut li = 0usize;
    for x in 0..n {
        if li < list.len() && list[li] == x {
            li += 1;
        } else {
            out.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn modes() -> [RefMode; 3] {
        [
            RefMode::None,
            RefMode::Windowed(8),
            RefMode::Windowed(u32::MAX),
        ]
    }

    /// The builder's path for a flat collection: plan, then write.
    fn encode_flat(lists: &ListBuf, universe: u64, mode: RefMode) -> EncodedLists {
        let plan = plan_lists(lists.view(), universe, mode);
        crate::refenc::write_lists(lists.view(), universe, &plan)
    }

    /// And for its sparse superedge links.
    fn encode_links(
        links: SuperedgeLinks<'_>,
        mode: RefMode,
        policy: SuperedgePolicy,
    ) -> EncodedSuperedge {
        write_superedge(links, &plan_superedge(links, mode, policy))
    }

    /// The positive representation, whether or not it would win.
    fn encode_superedge_positive(
        pos_lists: &[Vec<u32>],
        nj: u64,
        mode: RefMode,
    ) -> EncodedSuperedge {
        let (sources, lists) = positive_sources(pos_lists);
        let links = SuperedgeLinks {
            sources: &sources,
            lists: lists.view(),
            ni: pos_lists.len() as u64,
            nj,
        };
        let pos = plan_positive(links, mode);
        write_superedge_positive(links, &pos)
    }

    #[test]
    fn intranode_round_trip() {
        let lists = vec![vec![1u32, 2], vec![0, 2], vec![], vec![0, 1, 2]];
        for mode in modes() {
            let enc = encode_intranode(&lists, mode);
            assert_eq!(decode_intranode(&enc.bytes, enc.bit_len).unwrap(), lists);
        }
    }

    #[test]
    fn sparse_superedge_stays_positive() {
        // 10 sources into |Nj| = 50, very few links.
        let mut pos = vec![Vec::new(); 10];
        pos[2] = vec![5u32, 9];
        pos[7] = vec![5];
        for mode in modes() {
            let enc = encode_superedge(&pos, 50, mode, SuperedgePolicy::EncodedSize);
            assert_eq!(enc.kind, SuperedgeKind::Positive);
            assert_eq!(
                decode_superedge(&enc.bytes, enc.bit_len, 10, 50).unwrap(),
                pos
            );
        }
    }

    #[test]
    fn dense_superedge_goes_negative() {
        // Every source links to all but one target: complement is tiny.
        let nj = 30u32;
        let pos: Vec<Vec<u32>> = (0..8u32)
            .map(|s| (0..nj).filter(|&t| t != s % nj).collect())
            .collect();
        let enc = encode_superedge(
            &pos,
            u64::from(nj),
            RefMode::Windowed(4),
            SuperedgePolicy::EncodedSize,
        );
        assert_eq!(enc.kind, SuperedgeKind::Negative);
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 8, u64::from(nj)).unwrap(),
            pos
        );
    }

    #[test]
    fn fully_dense_superedge_negative_is_empty_lists() {
        // All sources link to all targets: the paper's SEdgeNeg is an empty
        // graph — the smallest possible representation.
        let nj = 12u32;
        let pos: Vec<Vec<u32>> = (0..5).map(|_| (0..nj).collect()).collect();
        let enc = encode_superedge(
            &pos,
            u64::from(nj),
            RefMode::Windowed(4),
            SuperedgePolicy::EncodedSize,
        );
        assert_eq!(enc.kind, SuperedgeKind::Negative);
        let sparse = encode_superedge_positive(&pos, u64::from(nj), RefMode::Windowed(4));
        assert!(enc.bit_len < sparse.bit_len / 2);
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 5, u64::from(nj)).unwrap(),
            pos
        );
    }

    #[test]
    fn edge_count_policy_matches_paper_heuristic() {
        let nj = 10u32;
        // 6 of 10 targets linked per source: negative has fewer edges.
        let pos: Vec<Vec<u32>> = (0..4).map(|_| vec![0u32, 1, 2, 3, 4, 5]).collect();
        let enc = encode_superedge(
            &pos,
            u64::from(nj),
            RefMode::None,
            SuperedgePolicy::EdgeCount,
        );
        assert_eq!(enc.kind, SuperedgeKind::Negative);
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 4, u64::from(nj)).unwrap(),
            pos
        );
    }

    /// The builder's sparse input and the dense convenience are one
    /// encoder: same bits whichever way the links arrive, for a negative
    /// winner, a lone source among empty ones, and a dictionary.
    #[test]
    fn sparse_input_encodes_bit_for_bit_like_dense() {
        let lone = {
            let mut pos = vec![Vec::new(); 300];
            pos[217] = vec![4u32, 5, 30];
            pos
        };
        // (name, dense lists, |Nj|, the kind that must win)
        type Case = (&'static str, Vec<Vec<u32>>, u64, SuperedgeKind);
        let cases: [Case; 4] = [
            (
                "negative winner with unlinked sources",
                (0..9u32)
                    .map(|s| match s % 4 {
                        3 => Vec::new(),
                        _ => (0..20).filter(|&t| t != s).collect(),
                    })
                    .collect(),
                20,
                SuperedgeKind::Negative,
            ),
            ("all empty but one", lone, 31, SuperedgeKind::Positive),
            (
                "single-target dictionary",
                (0..40u32)
                    .map(|s| match s % 5 {
                        0 => Vec::new(),
                        _ => vec![[2u32, 9, 14][(s % 3) as usize]],
                    })
                    .collect(),
                20,
                SuperedgeKind::Positive,
            ),
            (
                "no links at all",
                vec![Vec::new(); 6],
                7,
                SuperedgeKind::Positive,
            ),
        ];
        for (name, pos, nj, kind) in cases {
            let ni = pos.len() as u64;
            // The sparse form as the builder derives it: one list per
            // linking source, pushed as its links arrive — in any order.
            let mut lists = ListBuf::default();
            let sources: Vec<u32> = (0u32..)
                .zip(&pos)
                .filter(|(_, l)| !l.is_empty())
                .map(|(s, l)| {
                    lists.push_set(l.iter().rev().copied());
                    s
                })
                .collect();
            let links = SuperedgeLinks {
                sources: &sources,
                lists: lists.view(),
                ni,
                nj,
            };
            for mode in modes() {
                for policy in [SuperedgePolicy::EncodedSize, SuperedgePolicy::EdgeCount] {
                    let dense = encode_superedge(&pos, nj, mode, policy);
                    let sparse = encode_links(links, mode, policy);
                    assert_eq!(sparse, dense, "{name} {mode:?} {policy:?}");
                    assert_eq!(dense.kind, kind, "{name} {mode:?} {policy:?}");
                    let back = decode_superedge(&dense.bytes, dense.bit_len, ni, nj);
                    assert_eq!(back.unwrap(), pos, "{name} {mode:?} {policy:?}");
                    let index =
                        SuperedgeIndex::parse(&dense.bytes, dense.bit_len, ni, nj, ListCodec)
                            .unwrap();
                    assert_eq!(
                        index.layout() == Layout::SingleTargets,
                        name == "single-target dictionary",
                        "{name} {mode:?} {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_source_random_access() {
        let mut pos = vec![Vec::new(); 20];
        pos[3] = vec![0u32, 7, 14];
        pos[11] = vec![7];
        pos[19] = vec![0, 1, 2];
        let enc = encode_superedge(&pos, 15, RefMode::Windowed(4), SuperedgePolicy::EncodedSize);
        let (bytes, bits) = (&enc.bytes[..], enc.bit_len);
        let index = SuperedgeIndex::parse(bytes, bits, 20, 15, ListCodec).unwrap();
        for (s, expect) in pos.iter().enumerate() {
            assert_eq!(
                &index.targets_of(bytes, bits, s as u64, 15).unwrap(),
                expect
            );
        }
        assert!(index.targets_of(bytes, bits, 20, 15).is_err());
        assert_eq!(index.count_positive_edges(bytes, bits, 15).unwrap(), 7);
    }

    #[test]
    fn negative_view_random_access() {
        let nj = 9u32;
        let pos: Vec<Vec<u32>> = (0..6u32)
            .map(|s| (0..nj).filter(|&t| t != s && t != (s + 1) % nj).collect())
            .collect();
        let enc = encode_superedge(
            &pos,
            u64::from(nj),
            RefMode::Windowed(4),
            SuperedgePolicy::EncodedSize,
        );
        assert_eq!(enc.kind, SuperedgeKind::Negative);
        let (bytes, bits, nj) = (&enc.bytes[..], enc.bit_len, u64::from(nj));
        let index = SuperedgeIndex::parse(bytes, bits, 6, nj, ListCodec).unwrap();
        for (s, expect) in pos.iter().enumerate() {
            assert_eq!(
                &index.targets_of(bytes, bits, s as u64, nj).unwrap(),
                expect
            );
        }
        assert_eq!(
            index.count_positive_edges(bytes, bits, nj).unwrap(),
            pos.iter().map(|l| l.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn empty_superedge_inputs() {
        let enc = encode_superedge(&[], 5, RefMode::None, SuperedgePolicy::EncodedSize);
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 0, 5).unwrap(),
            Vec::<Vec<u32>>::new()
        );
    }

    fn complement(list: &[u32], n: u32) -> Vec<u32> {
        let mut out = Vec::new();
        complement_into(list, n, &mut out);
        out
    }

    #[test]
    fn complement_is_involutive() {
        let list = vec![1u32, 4, 5, 8];
        let c = complement(&list, 10);
        assert_eq!(c, vec![0, 2, 3, 6, 7, 9]);
        assert_eq!(complement(&c, 10), list);
        assert_eq!(complement(&[], 3), vec![0, 1, 2]);
        assert_eq!(complement(&[0, 1, 2], 3), Vec::<u32>::new());
    }

    #[test]
    fn single_target_dictionary_round_trip_and_wins() {
        // Site-template shape: 40 sources, each linking to one of 3 hubs.
        let pos: Vec<Vec<u32>> = (0..40u32)
            .map(|s| vec![[2u32, 9, 14][(s % 3) as usize]])
            .collect();
        let enc = encode_superedge(&pos, 20, RefMode::Windowed(8), SuperedgePolicy::EncodedSize);
        assert_eq!(enc.kind, SuperedgeKind::Positive);
        let (sources, lists) = positive_sources(&pos);
        let links = SuperedgeLinks {
            sources: &sources,
            lists: lists.view(),
            ni: 40,
            nj: 20,
        };
        let stream = Pricer::new(links, RefMode::Windowed(8)).price(Layout::Lists);
        assert!(
            enc.bit_len < stream.bits,
            "dictionary {} must beat the list stream {}",
            enc.bit_len,
            stream.bits
        );
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 40, 20).unwrap(),
            pos
        );
        let index = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, 40, 20, ListCodec).unwrap();
        assert!(index.lists().is_none(), "must store no list stream");
        assert_eq!(index.num_stored_lists(), 40);
        assert_eq!(index.end_bit(), enc.bit_len);
        let edges = index.count_positive_edges(&enc.bytes, enc.bit_len, 20);
        assert_eq!(edges.unwrap(), 40);
        assert!(index.sources().iter().eq(0..40u32));
    }

    #[test]
    fn singles_codec_falls_back_on_multi_target_lists() {
        let mut pos = vec![Vec::new(); 10];
        pos[2] = vec![5u32, 9];
        pos[7] = vec![5];
        let enc = encode_superedge(&pos, 50, RefMode::Windowed(8), SuperedgePolicy::EncodedSize);
        assert_eq!(enc.kind, SuperedgeKind::Positive);
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 10, 50).unwrap(),
            pos
        );
        let index = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, 10, 50, ListCodec).unwrap();
        assert_eq!(
            index.targets_of(&enc.bytes, enc.bit_len, 2, 50).unwrap(),
            pos[2]
        );
        assert!(
            index.lists().is_some(),
            "mixed lists must keep the standard stream"
        );
    }

    /// The reference modes a layout has to hold in.
    fn all_modes() -> [RefMode; 4] {
        [
            RefMode::None,
            RefMode::Windowed(1),
            RefMode::Windowed(32),
            RefMode::Windowed(u32::MAX),
        ]
    }

    /// Owned superedge links; `links()` lends them to the encoder.
    #[derive(Debug)]
    struct Links {
        sources: Vec<u32>,
        lists: ListBuf,
        ni: u64,
        nj: u64,
    }

    impl Links {
        fn links(&self) -> SuperedgeLinks<'_> {
            SuperedgeLinks {
                sources: &self.sources,
                lists: self.lists.view(),
                ni: self.ni,
                nj: self.nj,
            }
        }

        /// One list per page of `Ni`, empty where the page is no source.
        fn dense(&self) -> Vec<Vec<u32>> {
            let mut dense = vec![Vec::new(); self.ni as usize];
            for (&s, list) in self.sources.iter().zip(self.lists.view().iter()) {
                dense[s as usize] = list.to_vec();
            }
            dense
        }
    }

    /// The `n` lists `list` draws, one after the other.
    fn flat(n: usize, list: impl FnMut(usize) -> Vec<u32>) -> ListBuf {
        ListBuf::from_nested(&(0..n).map(list).collect::<Vec<_>>())
    }

    /// `len` distinct values below `nj`, ascending, drawn from `rng`.
    fn draw_list(rng: &mut impl FnMut() -> u64, len: u64, nj: u64) -> Vec<u32> {
        let mut list = std::collections::BTreeSet::new();
        while (list.len() as u64) < len.min(nj) {
            list.insert((rng() % nj) as u32);
        }
        list.into_iter().collect()
    }

    /// Superedge links of `n` sources in one of four shapes, each of which
    /// one representation is made for: 0 — a template, the same one to
    /// three multi-target lists down every other page of a site (the list
    /// dictionary); 1 — hubs, one target per source out of at most four
    /// (the single-target dictionary); 2 — lists drawn independently (the
    /// list stream); 3 — all but at most one link present (negative).
    fn shaped_links(shape: usize, seed: u64, n: usize) -> Links {
        let mut state = seed;
        let mut rng = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let every_other = |n: usize| (0..n as u32).map(|i| 2 * i).collect::<Vec<_>>();
        match shape {
            0 => {
                let nj = 64;
                let distinct = 1 + rng() % 3;
                let templates: Vec<Vec<u32>> = (0..distinct)
                    .map(|_| {
                        let len = 3 + rng() % 4;
                        draw_list(&mut rng, len, nj)
                    })
                    .collect();
                Links {
                    sources: every_other(n),
                    lists: flat(n, |_| templates[(rng() % distinct) as usize].clone()),
                    ni: 2 * n as u64 + 1,
                    nj,
                }
            }
            1 => {
                let hubs = draw_list(&mut rng, 4, 32);
                Links {
                    sources: every_other(n),
                    lists: flat(n, |_| vec![hubs[(rng() % hubs.len() as u64) as usize]]),
                    ni: 2 * n as u64 + 1,
                    nj: 32,
                }
            }
            2 => Links {
                sources: every_other(n),
                lists: flat(n, |_| {
                    let len = 2 + rng() % 4;
                    draw_list(&mut rng, len, 256)
                }),
                ni: 2 * n as u64 + 1,
                nj: 256,
            },
            _ => {
                let nj = 12u32;
                Links {
                    sources: (0..n as u32).collect(),
                    lists: flat(n, |_| {
                        let hole = (rng() % (u64::from(nj) + 1)) as u32;
                        (0..nj).filter(|&t| t != hole).collect()
                    }),
                    ni: n as u64,
                    nj: u64::from(nj),
                }
            }
        }
    }

    /// Every layout these links can take, priced whether or not it could
    /// win: the model the cheapest-first planner answers to.
    fn price_every_layout(pricer: &Pricer<'_>) -> Vec<PositivePlan> {
        let lists = pricer.links.lists;
        [Layout::SingleTargets, Layout::Lists, Layout::ListDictionary]
            .into_iter()
            .filter(|&layout| {
                layout != Layout::SingleTargets
                    || (!lists.is_empty() && lists.iter().all(|l| l.len() == 1))
            })
            .map(|layout| pricer.price(layout))
            .collect()
    }

    #[test]
    fn each_shape_is_stored_in_the_representation_made_for_it() {
        let expected = [
            (SuperedgeKind::Positive, Layout::ListDictionary),
            (SuperedgeKind::Positive, Layout::SingleTargets),
            (SuperedgeKind::Positive, Layout::Lists),
            (SuperedgeKind::Negative, Layout::Lists),
        ];
        for (shape, (kind, layout)) in expected.into_iter().enumerate() {
            for mode in all_modes() {
                let owned = shaped_links(shape, 7, 30);
                let links = owned.links();
                let enc = encode_links(links, mode, SuperedgePolicy::EncodedSize);
                let (bytes, bit_len) = (&enc.bytes, enc.bit_len);
                let index =
                    SuperedgeIndex::parse(bytes, bit_len, links.ni, links.nj, ListCodec).unwrap();
                assert_eq!(
                    (index.kind, index.layout()),
                    (kind, layout),
                    "{shape} {mode:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// encode → `parse` → `targets_of`, for every source and every
        /// page that is none, in every layout and the negative form, and
        /// every reference mode.
        #[test]
        fn every_representation_round_trips(
            shape in 0usize..4,
            seed in any::<u64>(),
            n in 1usize..48,
        ) {
            let owned = shaped_links(shape, seed, n);
            let links = owned.links();
            let dense = owned.dense();
            for mode in all_modes() {
                let enc = encode_links(links, mode, SuperedgePolicy::EncodedSize);
                let (bytes, bits) = (&enc.bytes[..], enc.bit_len);
                let index =
                    SuperedgeIndex::parse(bytes, bits, links.ni, links.nj, ListCodec).unwrap();
                for (s, want) in dense.iter().enumerate() {
                    let got = index.targets_of(bytes, bits, s as u64, links.nj).unwrap();
                    prop_assert_eq!(&got, want, "{:?} source {}", mode, s);
                }
                prop_assert!(index.targets_of(bytes, bits, links.ni, links.nj).is_err());
                let edges: u64 = dense.iter().map(|l| l.len() as u64).sum();
                prop_assert_eq!(index.count_positive_edges(bytes, bits, links.nj).unwrap(), edges);
                prop_assert_eq!(index.end_bit(), enc.bit_len);
                // The one target a fanout answers with is the scan's and
                // the parse's alike, and is every listed page's answer.
                let mut pool = Vec::new();
                let scanned = scan_sources(&enc.bytes, enc.bit_len, links.ni, links.nj, &mut pool);
                let target = scanned.unwrap().and_then(|scanned| scanned.target);
                prop_assert_eq!(target, index.one_target());
                let listed: Vec<&Vec<u32>> = dense.iter().filter(|l| !l.is_empty()).collect();
                let one = listed.first().filter(|first| {
                    first.len() == 1 && listed.iter().all(|l| l == *first)
                });
                let single = index.layout() == Layout::SingleTargets;
                prop_assert_eq!(target, one.filter(|_| single).map(|l| l[0]));
            }
        }

        /// One encoder behind both doors. A collection handed over as one
        /// `Vec` per list, and the same one pushed entry by entry — in any
        /// order, with repeats — into the flat form the builder fills, are
        /// the same bytes at every entry point, in every reference mode,
        /// and decode to the lists that went in: templates (whole lists
        /// repeated), hubs (single targets), independent lists and dense
        /// graphs that go negative, with the empty lists of the pages that
        /// link nowhere among them.
        #[test]
        fn nested_and_flat_inputs_encode_to_the_same_bytes(
            shape in 0usize..4,
            seed in any::<u64>(),
            n in 1usize..40,
        ) {
            let owned = shaped_links(shape, seed, n);
            let (links, dense) = (owned.links(), owned.dense());
            // Pushed as links arrive: backwards, every other one twice.
            let pushed = |lists: &[Vec<u32>]| {
                let mut flat = ListBuf::default();
                for list in lists {
                    flat.push_set(list.iter().rev().chain(list.iter().step_by(2)).copied());
                }
                flat
            };
            // Local targets of an intranode graph index its own pages.
            let intra: Vec<Vec<u32>> = dense
                .iter()
                .map(|l| l.iter().copied().filter(|&t| u64::from(t) < links.ni).collect())
                .collect();
            for mode in all_modes() {
                let nested = crate::refenc::encode_lists(&dense, links.nj, mode, ListCodec);
                prop_assert_eq!(&encode_flat(&pushed(&dense), links.nj, mode), &nested);
                let universe = Universe::Explicit(links.nj);
                let back = ListsIndex::parse_at(&nested.bytes, nested.bit_len, 0, universe).unwrap();
                prop_assert_eq!(&back.decode_all(&nested.bytes, nested.bit_len).unwrap(), &dense);

                let nested = encode_intranode(&intra, mode);
                prop_assert_eq!(&encode_flat(&pushed(&intra), links.ni, mode), &nested);
                prop_assert_eq!(&decode_intranode(&nested.bytes, nested.bit_len).unwrap(), &intra);

                for policy in [SuperedgePolicy::EncodedSize, SuperedgePolicy::EdgeCount] {
                    let nested = encode_superedge(&dense, links.nj, mode, policy);
                    let flat = encode_links(links, mode, policy);
                    prop_assert_eq!(&flat, &nested, "{:?} {:?}", mode, policy);
                    let (bytes, bits) = (&nested.bytes, nested.bit_len);
                    let back = decode_superedge(bytes, bits, links.ni, links.nj);
                    prop_assert_eq!(&back.unwrap(), &dense);
                }
            }
        }

        /// The layout written is the argmin of the exact sizes of all of
        /// them — each fully encoded here, which also holds every plan to
        /// the bits it promised — whatever the planner skipped on the
        /// strength of a floor; and no floor is above the price it bounds.
        #[test]
        fn the_layout_written_is_the_smallest_fully_encoded(
            shape in 0usize..4,
            seed in any::<u64>(),
            n in 1usize..48,
        ) {
            let owned = shaped_links(shape, seed, n);
            let links = owned.links();
            for mode in all_modes() {
                let pricer = Pricer::new(links, mode);
                let all = price_every_layout(&pricer);
                for plan in &all {
                    let enc = write_superedge_positive(links, plan);
                    prop_assert_eq!(enc.bit_len, plan.bits, "{:?} mispriced", plan.layout());
                    if let Some(floor) = pricer.floor(plan.layout()) {
                        prop_assert!(
                            floor <= plan.bits,
                            "{:?}: floor {} above price {}", plan.layout(), floor, plan.bits
                        );
                    }
                }
                let smallest = all.iter().min_by_key(|plan| plan.rank()).unwrap();
                let chosen = plan_positive(links, mode);
                prop_assert_eq!(chosen.rank(), smallest.rank(), "{:?}", mode);
                prop_assert_eq!(
                    write_superedge_positive(links, &chosen),
                    write_superedge_positive(links, smallest)
                );
            }
        }
    }

    /// Parsing decodes a dictionary whole into the arena it is charged as —
    /// `sources`, one index per source, then the distinct targets or the
    /// offsets of the distinct lists — and every page answers from it.
    #[test]
    fn dictionary_is_decoded_at_parse_into_the_arena_it_is_charged_as() {
        for (shape, layout) in [(0, Layout::ListDictionary), (1, Layout::SingleTargets)] {
            let owned = shaped_links(shape, 11, 24);
            let links = owned.links();
            let dense = owned.dense();
            let policy = SuperedgePolicy::EncodedSize;
            let enc = encode_links(links, RefMode::default(), policy);
            let index =
                SuperedgeIndex::parse(&enc.bytes, enc.bit_len, links.ni, links.nj, ListCodec)
                    .unwrap();
            assert_eq!(index.layout(), layout);
            let [_, per_source, entries] = index.sections();
            let distinct: std::collections::BTreeSet<&[u32]> = owned.lists.view().iter().collect();
            match layout {
                Layout::SingleTargets => {
                    let targets: std::collections::BTreeSet<u32> =
                        distinct.iter().map(|l| l[0]).collect();
                    assert!(entries.iter().eq(targets));
                }
                _ => assert_eq!(
                    entries.len(),
                    distinct.len() + 1,
                    "offsets and the sentinel"
                ),
            }
            assert!(index.sources().iter().eq(owned.sources.iter().copied()));
            assert_eq!(per_source.len(), owned.sources.len());
            // Each section at the width its bound needs, from a multiple
            // of it on: sources by |Ni|, indexes by the entry count, then
            // targets by |Nj| or offsets by the bit length.
            let sources = Width::below(links.ni).after(0, owned.sources.len());
            let indexes =
                Width::below(distinct.len() as u64).after(sources.end, owned.sources.len());
            let last = match layout {
                Layout::SingleTargets => Width::below(links.nj),
                _ => offset_width(enc.bit_len),
            };
            assert_eq!(entries.width(), last, "{layout:?}");
            let arena = last.after(indexes.end, entries.len()).end;
            assert_eq!(index.heap_bytes(), arena, "{layout:?}");
            for (s, want) in dense.iter().enumerate() {
                let got = index.targets_of(&enc.bytes, enc.bit_len, s as u64, links.nj);
                assert_eq!(&got.unwrap(), want, "{layout:?} source {s}");
            }
        }
    }

    /// Every single-bit flip and every truncation of a graph in each
    /// layout and of a negative one: `Corrupt`, or a graph whose every
    /// answer is an error or a sorted list inside `|Nj|`.
    #[test]
    fn damaged_graphs_are_corrupt_or_answer_inside_their_universe() {
        let shapes = [
            (0, Layout::ListDictionary),
            (1, Layout::SingleTargets),
            (2, Layout::Lists),
            (3, Layout::Lists),
        ];
        for (shape, layout) in shapes {
            let owned = shaped_links(shape, 5, 18);
            let links = owned.links();
            let policy = SuperedgePolicy::EncodedSize;
            let enc = encode_links(links, RefMode::default(), policy);
            let parse = |bytes: &[u8], bit_len| {
                SuperedgeIndex::parse(bytes, bit_len, links.ni, links.nj, ListCodec)
            };
            assert_eq!(parse(&enc.bytes, enc.bit_len).unwrap().layout(), layout);
            // One set of buffers for all the damage, as a handle keeps:
            // whatever a count claimed, none outgrows `|Nj|`.
            let (mut scratch, mut list) = (DecodeScratch::default(), Vec::new());
            let mut check = |bytes: &[u8], bit_len: u64, what: &str| {
                let Ok(index) = parse(bytes, bit_len) else {
                    return;
                };
                for s in 0..links.ni {
                    let (scratch, list) = (&mut scratch, &mut list);
                    let decoded = index.targets_of_into(bytes, bit_len, s, links.nj, scratch, list);
                    if decoded.is_ok() {
                        assert!(list.windows(2).all(|w| w[0] < w[1]), "{what}: unsorted");
                        assert!(
                            list.iter().all(|&t| u64::from(t) < links.nj),
                            "{what}: range"
                        );
                    }
                }
                scratch.assert_bounded(&list, links.nj, links.ni);
            };
            for cut in 0..enc.bit_len {
                check(&enc.bytes, cut, &format!("{layout:?} cut at {cut}"));
            }
            for flip in 0..enc.bit_len {
                let mut bytes = enc.bytes.clone();
                bytes[(flip / 8) as usize] ^= 0x80 >> (flip % 8);
                check(&bytes, enc.bit_len, &format!("{layout:?} flip of {flip}"));
            }
        }
    }

    /// An entry count no builder writes — more entries than sources, or
    /// none for a graph that has sources — is refused when the graph is
    /// parsed, before anything is sized by it; one that agrees is read on
    /// into the body (here 64 zero bits, no dictionary at all).
    #[test]
    fn dictionary_entry_count_is_checked_against_sources_before_allocation() {
        let miscounted = |e: &SNodeError| {
            matches!(
                e,
                SNodeError::Corrupt("dictionary size disagrees with sources")
            )
        };
        for marker in [&[true][..], &[false, true][..]] {
            for (entries, refused) in [(1u64 << 40, true), (3, true), (0, true), (2, false)] {
                let mut w = BitWriter::new();
                w.write_bit(false);
                marker.iter().for_each(|&bit| w.write_bit(bit));
                write_bounded_gap_list(&mut w, &[1, 4], 9);
                codes::write_gamma(&mut w, entries);
                w.write_bits(0, 64);
                let (bytes, bit_len) = w.finish();
                let got = SuperedgeIndex::parse(&bytes, bit_len, 9, 9, ListCodec);
                let what = format!("{marker:?} with {entries} entries: {got:?}");
                assert_eq!(got.as_ref().is_err_and(miscounted), refused, "{what}");
                assert!(got.is_err(), "{what}");
            }
        }
    }

    /// The sections of a graph add up to its bit length, in every
    /// representation.
    #[test]
    fn bit_breakdown_accounts_for_every_bit() {
        for shape in 0..4 {
            let owned = shaped_links(shape, 13, 21);
            let links = owned.links();
            let policy = SuperedgePolicy::EncodedSize;
            let enc = encode_links(links, RefMode::default(), policy);
            let index =
                SuperedgeIndex::parse(&enc.bytes, enc.bit_len, links.ni, links.nj, ListCodec)
                    .unwrap();
            let bits = index.bit_breakdown();
            assert_eq!(bits.layout, index.layout());
            assert_eq!(
                bits.header + bits.sources + bits.dictionary + bits.index + bits.stream,
                enc.bit_len,
                "{shape}: {bits:?}"
            );
            let dictionary = bits.layout != Layout::Lists;
            assert_eq!(bits.dictionary > 0, dictionary, "{shape}: {bits:?}");
            assert_eq!(bits.stream > 0, !dictionary, "{shape}: {bits:?}");
            let marker = match index.kind {
                SuperedgeKind::Negative => 0,
                SuperedgeKind::Positive => bits.layout.marker().len(),
            };
            assert_eq!(bits.header, 1 + marker as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `source_rank` answers as a binary search does for every page of
        /// the supernode, however evenly the sources spread: uniform,
        /// bunched at the start, or in one run.
        #[test]
        fn source_rank_finds_what_a_binary_search_finds(
            drawn in proptest::collection::btree_set(0u32..600, 0..150),
            spread in 0usize..3,
            beyond in 0u32..40,
        ) {
            let sources: Vec<u32> = match spread {
                0 => drawn.into_iter().collect(),
                1 => drawn.into_iter().map(|x| x * x / 600).collect::<std::collections::BTreeSet<_>>().into_iter().collect(),
                _ => (300..300 + drawn.len() as u32).collect(),
            };
            let ni = sources.last().map_or(0, |&last| last + 1) + beyond;
            let section = section::section_of(&sources, u64::from(ni));
            for s in 0..ni {
                prop_assert_eq!(source_rank(section.view(), s, ni), sources.binary_search(&s).ok(), "page {}", s);
            }
        }
    }

    /// A positive graph's list-stream directory is in its arena from
    /// parse on, charged as what it occupies: `sources`, then one offset per
    /// source and the end.
    #[test]
    fn positive_directory_is_built_at_parse() {
        let mut pos = vec![Vec::new(); 40];
        pos[3] = vec![0u32, 7, 14];
        pos[11] = vec![7];
        pos[19] = vec![0, 1, 2];
        let enc = encode_superedge(&pos, 15, RefMode::Windowed(4), SuperedgePolicy::EncodedSize);
        assert_eq!(enc.kind, SuperedgeKind::Positive);
        let index = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, 40, 15, ListCodec).unwrap();
        let built = index.lists().expect("built by the parse");
        assert_eq!(built.num_lists(), 3);
        assert_eq!(built.end_bit(), enc.bit_len);
        assert!(enc.bit_len < 256);
        assert_eq!(index.heap_bytes(), 3 + (3 + 1), "a byte each");
        for (s, want) in pos.iter().enumerate() {
            let got = index.targets_of(&enc.bytes, enc.bit_len, s as u64, 15);
            assert_eq!(&got.unwrap(), want);
        }
    }

    /// Every section of a superedge graph's arena at the edges of its
    /// width answers as the lists that went in: `sources` by |Ni| and
    /// single targets by |Nj|, each of 1, 2, 255, 256, 65 535, 65 536 and
    /// 70 000 (four bytes a source past 65 536); indexes by the entry
    /// count, none for a one-entry dictionary; offsets by the bit length,
    /// four bytes for a graph past 65 536 bits.
    #[test]
    fn sections_at_their_width_edges_answer_as_the_lists_that_went_in() {
        let bounds = [1u32, 2, 255, 256, 65_535, 65_536, 70_000];
        let ends = |n: u32| -> Vec<u32> {
            let mut v = vec![0, n / 3, n / 2, n - 1];
            v.dedup();
            v
        };
        let mut seen = std::collections::BTreeSet::new();
        for (&ni, &nj) in bounds.iter().zip(bounds.iter().rev()) {
            let (sources, targets) = (ends(ni), ends(nj));
            let t = |k: usize| targets[k % targets.len()];
            // One target for all, a target each, a list each; and past
            // 65 535 pages every page a source, its list one of `nj`.
            let mut graphs: Vec<Vec<Vec<u32>>> = [
                &(|_| vec![t(3)]) as &dyn Fn(usize) -> Vec<u32>,
                &|k| vec![t(k)],
                &|k| targets[k % targets.len()..].to_vec(),
            ]
            .iter()
            .map(|list| {
                let mut dense = vec![Vec::new(); ni as usize];
                for (k, &s) in sources.iter().enumerate() {
                    dense[s as usize] = list(k);
                }
                dense
            })
            .collect();
            if ni > 65_534 {
                let list = |s: u32| {
                    let mut list = vec![s % nj, nj - 1];
                    list.dedup();
                    list
                };
                graphs.push((0..ni).map(list).collect());
            }
            for dense in graphs {
                let policy = SuperedgePolicy::EncodedSize;
                let enc = encode_superedge(&dense, u64::from(nj), RefMode::default(), policy);
                let (ni64, nj64) = (u64::from(ni), u64::from(nj));
                let index = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, ni64, nj64, ListCodec);
                let index = index.unwrap();
                assert_eq!(index.kind, SuperedgeKind::Positive);
                let [sources, indexes, body] = index.sections();
                assert_eq!(sources.width(), Width::below(ni64));
                let entries = match index.layout() {
                    Layout::Lists => 0,
                    Layout::SingleTargets => body.len(),
                    Layout::ListDictionary => body.len() - 1,
                };
                assert_eq!(indexes.width(), Width::below(entries as u64));
                let body_width = match index.layout() {
                    Layout::SingleTargets => Width::below(nj64),
                    Layout::Lists | Layout::ListDictionary => offset_width(enc.bit_len),
                };
                assert_eq!(body.width(), body_width, "{ni} → {nj}");
                let what = (
                    index.layout(),
                    sources.width(),
                    indexes.width(),
                    body.width(),
                );
                seen.insert(what);
                // Every source, and the pages either side of it.
                let pages = sources.iter().flat_map(|s| [s.saturating_sub(1), s, s + 1]);
                for s in pages.filter(|&s| s < ni) {
                    let got = index.targets_of(&enc.bytes, enc.bit_len, u64::from(s), nj64);
                    assert_eq!(got.unwrap(), dense[s as usize], "{what:?}: page {s}");
                }
                assert_eq!(
                    decode_superedge(&enc.bytes, enc.bit_len, ni64, nj64).unwrap(),
                    dense
                );
            }
        }
        // (layout, sources, indexes, body) each of these was met.
        use {Layout::SingleTargets as Singles, Width::*};
        let has = |f: fn(Layout, Width, Width, Width) -> bool| {
            seen.iter()
                .any(|&(layout, sources, index, body)| f(layout, sources, index, body))
        };
        assert!(has(|_, sources, _, _| sources == Four), "{seen:?}");
        assert!(has(|layout, _, index, body| layout == Singles
            && index == Zero
            && body == Zero));
        assert!(has(|layout, _, index, _| layout == Singles && index == One));
        assert!(has(|layout, _, _, body| layout == Singles && body == Four));
        assert!(has(|layout, _, _, body| layout != Singles && body == Four));
    }

    /// A list stream cut inside its last list: a fanout build still reads
    /// `sources`, and the graph is refused at parse.
    #[test]
    fn damaged_list_stream_is_corrupt_at_parse() {
        let mut pos = vec![Vec::new(); 12];
        pos[2] = vec![5u32, 9];
        pos[7] = vec![5];
        let enc = encode_superedge(&pos, 50, RefMode::Windowed(8), SuperedgePolicy::EncodedSize);
        let cut = enc.bit_len - 3;
        let mut pool = Vec::new();
        let scanned = scan_sources(&enc.bytes, cut, 12, 50, &mut pool);
        assert_eq!(scanned.unwrap().map(|scanned| scanned.sources), Some(0..2));
        assert_eq!(pool, [2, 7]);
        let got = SuperedgeIndex::parse(&enc.bytes, cut, 12, 50, ListCodec);
        assert!(got.is_err(), "{got:?}");
    }

    /// A fanout build reads a single-target dictionary's one entry as a
    /// parse reads it, over any `|Nj|`; two entries, or bits that run out
    /// behind `sources`, leave the graph to be parsed.
    #[test]
    fn one_target_is_read_behind_sources_or_left_to_the_parse() {
        let mut pos = vec![Vec::new(); 12];
        pos[2] = vec![7u32];
        pos[9] = vec![7];
        let enc = encode_superedge(&pos, 20, RefMode::None, SuperedgePolicy::EncodedSize);
        let scan = |bytes: &[u8], bit_len: u64, nj: u64| {
            let mut pool = Vec::new();
            let scanned = scan_sources(bytes, bit_len, 12, nj, &mut pool).unwrap();
            assert_eq!(pool, [2, 9]);
            scanned.unwrap().target
        };
        assert_eq!(scan(&enc.bytes, enc.bit_len, 20), Some(7));
        let index = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, 12, 20, ListCodec).unwrap();
        assert_eq!(index.one_target(), Some(7));
        // Over another |Nj| the entry's bits name another page, or none, as
        // a parse reads them.
        for nj in [1, 5, 8, 64] {
            let parsed = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, 12, nj, ListCodec);
            let want = parsed.ok().and_then(|index| index.one_target());
            assert_eq!(scan(&enc.bytes, enc.bit_len, nj), want, "|Nj| {nj}");
        }
        // Cut inside the entry: `sources` still read, no target.
        let bits = index.bit_breakdown();
        assert_eq!(scan(&enc.bytes, bits.header + bits.sources + 2, 20), None);

        pos[9] = vec![8];
        let enc = encode_superedge(&pos, 20, RefMode::None, SuperedgePolicy::EncodedSize);
        assert_eq!(scan(&enc.bytes, enc.bit_len, 20), None, "two entries");
        let index = SuperedgeIndex::parse(&enc.bytes, enc.bit_len, 12, 20, ListCodec).unwrap();
        assert_eq!(index.layout(), Layout::SingleTargets);
        assert_eq!(index.one_target(), None);
    }

    /// A list stream in the retired directory form is refused wherever a
    /// graph holds one, when the graph is parsed: an intranode graph, a
    /// negative superedge graph, and a positive one's list stream or list
    /// dictionary.
    #[test]
    fn retired_directory_streams_are_corrupt_in_every_graph_kind() {
        use crate::refenc::tests::{is_retired_form, retired_directory_stream};
        let lists = vec![vec![0u32, 2], vec![0, 1, 2], vec![1]];
        let parents = [Some(1), None, None];

        let mut w = BitWriter::new();
        retired_directory_stream(&mut w, &lists, &parents, 3);
        let (bytes, bit_len) = w.finish();
        let got = decode_intranode(&bytes, bit_len);
        assert!(got.as_ref().is_err_and(is_retired_form), "{got:?}");

        let mut w = BitWriter::new();
        w.write_bit(true); // negative
        retired_directory_stream(&mut w, &lists, &parents, 3);
        let (bytes, bit_len) = w.finish();
        let got = SuperedgeIndex::parse(&bytes, bit_len, 3, 3, ListCodec);
        assert!(got.as_ref().is_err_and(is_retired_form), "{got:?}");

        for layout in [Layout::Lists, Layout::ListDictionary] {
            let mut w = BitWriter::new();
            w.write_bit(false); // positive
            layout.marker().iter().for_each(|&bit| w.write_bit(bit));
            write_bounded_gap_list(&mut w, &[0, 1, 2], 4);
            retired_directory_stream(&mut w, &lists, &parents, 3);
            if layout == Layout::ListDictionary {
                (0..3).for_each(|i| codes::write_minimal_binary(&mut w, i, 3));
            }
            let (bytes, bit_len) = w.finish();
            let got = SuperedgeIndex::parse(&bytes, bit_len, 4, 3, ListCodec);
            assert!(
                got.as_ref().is_err_and(is_retired_form),
                "{layout:?}: {got:?}"
            );
            let got = decode_superedge(&bytes, bit_len, 4, 3);
            assert!(
                got.as_ref().is_err_and(is_retired_form),
                "{layout:?}: {got:?}"
            );
        }
    }

    #[test]
    fn singles_codec_decodes_identically_across_shapes() {
        // Sparse single-target, mixed, dense (negative), and empty inputs
        // all decode to the lists that went in.
        let nj = 16u32;
        let cases: Vec<Vec<Vec<u32>>> = vec![
            (0..25u32).map(|s| vec![s % nj]).collect(),
            vec![vec![0u32, 1], vec![3], vec![], vec![3]],
            (0..6u32)
                .map(|s| (0..nj).filter(|&t| t != s).collect())
                .collect(),
            Vec::new(),
        ];
        for pos in &cases {
            for mode in modes() {
                let a = encode_superedge(pos, u64::from(nj), mode, SuperedgePolicy::EncodedSize);
                let ni = pos.len() as u64;
                assert_eq!(
                    decode_superedge(&a.bytes, a.bit_len, ni, u64::from(nj)).unwrap(),
                    *pos
                );
            }
        }
    }

    #[test]
    fn singles_stream_truncation_and_bit_flips_never_panic() {
        let pos: Vec<Vec<u32>> = (0..30u32).map(|s| vec![(s * 7) % 11]).collect();
        let enc = encode_superedge(&pos, 11, RefMode::Windowed(8), SuperedgePolicy::EncodedSize);
        for cut in 0..enc.bit_len {
            // Must not panic; may error or (for generous cuts) succeed.
            let _ = decode_superedge(&enc.bytes, cut, 30, 11);
        }
        for flip in 0..enc.bit_len {
            let mut bytes = enc.bytes.clone();
            bytes[(flip / 8) as usize] ^= 1 << (flip % 8);
            if let Ok(lists) = decode_superedge(&bytes, enc.bit_len, 30, 11) {
                for list in lists {
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "flip {flip}");
                }
            }
        }
    }

    #[test]
    fn truncated_superedge_errors() {
        let pos = vec![vec![0u32, 1], vec![1]];
        let enc = encode_superedge(&pos, 3, RefMode::None, SuperedgePolicy::EncodedSize);
        for cut in 1..enc.bit_len {
            // Must not panic; may error or (for generous cuts) succeed.
            let _ = decode_superedge(&enc.bytes, cut, 2, 3);
        }
    }
}
