//! Intranode and superedge graph codecs (§2, §3.3).
//!
//! * An **intranode graph** holds the links among the pages of one
//!   supernode, in local page indices (0..|Ni|), reference-encoded.
//! * A **superedge graph** for superedge `i → j` holds the bipartite links
//!   from `Ni` into `Nj`. It is stored either **positive** (the links that
//!   exist: a gap-coded list of source pages that have any target, plus one
//!   reference-encoded target list per such source) or **negative** (the
//!   complement: one target list per *every* source of `Ni`, listing the
//!   `Nj` pages it does **not** link to). The representation with the
//!   smaller encoding wins; the paper's simpler edge-count heuristic is
//!   available behind [`SuperedgePolicy::EdgeCount`] for the ablation.

use crate::codec::ListCodec;
use crate::refenc::{
    bounded_gap_list_len, encode_lists_planned, encode_lists_t, plan_lists, EncodedLists,
    ListsIndex, ListsPlan, ListsReader, RefMode, Universe,
};
use crate::{Result, SNodeError};
use std::sync::OnceLock;
use wg_bitio::{codes, BitReader, BitWriter};

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
/// local page `p` (entries `< lists.len()`).
pub fn encode_intranode(lists: &[Vec<u32>], mode: RefMode, codec: ListCodec) -> EncodedLists {
    encode_intranode_t(lists, mode, codec, 1)
}

/// [`encode_intranode`] with up to `threads` workers. Byte-identical for
/// every thread count.
pub fn encode_intranode_t(
    lists: &[Vec<u32>],
    mode: RefMode,
    codec: ListCodec,
    threads: u32,
) -> EncodedLists {
    encode_lists_t(lists, lists.len() as u64, mode, codec, threads)
}

/// Decodes a full intranode graph.
pub fn decode_intranode(bytes: &[u8], bit_len: u64, codec: ListCodec) -> Result<Vec<Vec<u32>>> {
    ListsReader::parse(bytes, bit_len, Universe::SameAsCount, codec)?.decode_all()
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

impl EncodedSuperedge {
    /// Size in bits.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }
}

/// The links of one superedge `i → j` in sparse positive form: what the
/// builder produces and the positive representation stores.
#[derive(Debug, Clone, Copy)]
pub struct SuperedgeLinks<'a> {
    /// The local pages of `Ni` that link into `Nj`, ascending.
    pub sources: &'a [u32],
    /// `lists[k]` is the sorted, non-empty list of local `Nj` targets of
    /// page `sources[k]`.
    pub lists: &'a [Vec<u32>],
    /// `|Ni|`.
    pub ni: u64,
    /// `|Nj|`.
    pub nj: u64,
}

/// Encodes the superedge graph for `i → j` from dense input, single-threaded:
/// `pos_lists[s]` is the sorted list of local `Nj` targets of the `s`-th
/// page of `Ni` (possibly empty); `nj = |Nj|`. A convenience over
/// [`encode_superedge_t`] for callers that hold one list per page.
pub fn encode_superedge(
    pos_lists: &[Vec<u32>],
    nj: u64,
    mode: RefMode,
    policy: SuperedgePolicy,
    codec: ListCodec,
) -> EncodedSuperedge {
    let (sources, lists) = positive_sources(pos_lists);
    let links = SuperedgeLinks {
        sources: &sources,
        lists: &lists,
        ni: pos_lists.len() as u64,
        nj,
    };
    encode_superedge_t(links, mode, policy, codec, 1)
}

/// Encodes the superedge graph `links` with up to `threads` workers.
/// Byte-identical for every thread count.
///
/// The polarity decision works on [`ListsPlan`]s — exact sizes computed
/// without writing a bit stream — so only the winning orientation is ever
/// encoded. (The plan's `total_bits` equals the encoded size exactly, so
/// the winner is the same one full encoding of both sides would pick.)
pub fn encode_superedge_t(
    links: SuperedgeLinks<'_>,
    mode: RefMode,
    policy: SuperedgePolicy,
    codec: ListCodec,
    threads: u32,
) -> EncodedSuperedge {
    let SuperedgeLinks { ni, nj, .. } = links;
    debug_assert_eq!(links.sources.len(), links.lists.len());
    debug_assert!(links.sources.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(links.sources.last().is_none_or(|&s| u64::from(s) < ni));
    let pos_edges: u64 = links.lists.iter().map(|l| l.len() as u64).sum();
    let neg_edges = ni * nj - pos_edges;

    // Only consider the complement when it has fewer edges — otherwise
    // materialising it could cost Θ(|Ni|·|Nj|) for nothing.
    if neg_edges >= pos_edges {
        let pos = plan_positive(links, mode, codec, threads);
        return write_superedge_positive(links, &pos, codec, threads);
    }
    // The negative representation stores a list for every page of `Ni`.
    let mut stored = links.sources.iter().zip(links.lists).peekable();
    let neg_lists: Vec<Vec<u32>> = (0..ni as u32)
        .map(|s| {
            let links = stored.next_if(|(&src, _)| src == s);
            complement(links.map_or(&[], |(_, list)| list), nj as u32)
        })
        .collect();
    let neg_plan = plan_lists(&neg_lists, nj, mode, codec, threads);
    if policy == SuperedgePolicy::EncodedSize {
        let pos = plan_positive(links, mode, codec, threads);
        if 1 + neg_plan.total_bits >= pos.bits {
            return write_superedge_positive(links, &pos, codec, threads);
        }
    }
    // `SuperedgePolicy::EdgeCount`: neg_edges < pos_edges here.
    write_superedge_negative(&neg_lists, nj, &neg_plan, threads)
}

/// A planned positive encoding: the standard per-source list stream, or
/// (when the codec's `singles` feature applies and wins) the
/// single-target dictionary layout, with the exact bit cost of whichever
/// was chosen.
struct PositivePlan {
    /// Plan for the standard list stream (used when `dict` is `None`).
    plan: ListsPlan,
    /// `Some((distinct targets, per-source dictionary index))` when the
    /// dictionary layout is chosen.
    dict: Option<(Vec<u32>, Vec<u32>)>,
    /// Exact encoded size in bits, kind and marker bits included.
    bits: u64,
}

/// Prices both positive layouts and keeps the cheaper one.
fn plan_positive(
    links: SuperedgeLinks<'_>,
    mode: RefMode,
    codec: ListCodec,
    threads: u32,
) -> PositivePlan {
    let SuperedgeLinks {
        sources,
        lists,
        ni,
        nj,
    } = links;
    let plan = plan_lists(lists, nj, mode, codec, threads);
    let marker = u64::from(codec.singles);
    let sources_bits = bounded_gap_list_len(sources, ni, codec);
    let standard = 1 + marker + sources_bits + plan.total_bits;
    if codec.singles {
        if let Some((dict, index)) = single_target_dict(lists) {
            let index_bits: u64 = index
                .iter()
                .map(|&i| codes::minimal_binary_len(u64::from(i), dict.len() as u64))
                .sum();
            let bits = 2 + sources_bits + bounded_gap_list_len(&dict, nj, codec) + index_bits;
            if bits < standard {
                return PositivePlan {
                    plan,
                    dict: Some((dict, index)),
                    bits,
                };
            }
        }
    }
    PositivePlan {
        plan,
        dict: None,
        bits: standard,
    }
}

/// When every (non-empty) source links to exactly one target, returns the
/// sorted distinct targets and each source's index into them. Real crawls
/// are full of such superedge graphs — site-template links where every
/// page of one site points at one or two hub pages of another — and the
/// per-source γ(len)+reference-flag overhead of the standard stream
/// dwarfs their information content.
fn single_target_dict(lists: &[Vec<u32>]) -> Option<(Vec<u32>, Vec<u32>)> {
    if lists.is_empty() || lists.iter().any(|l| l.len() != 1) {
        return None;
    }
    let mut dict: Vec<u32> = lists.iter().map(|l| l[0]).collect();
    dict.sort_unstable();
    dict.dedup();
    let index: Vec<u32> = lists
        .iter()
        .map(|l| dict.binary_search(&l[0]).unwrap_or_default() as u32)
        .collect();
    Some((dict, index))
}

/// Splits a dense per-source list array into (non-empty source ids, their
/// lists) — the positive representation's layout.
fn positive_sources(pos_lists: &[Vec<u32>]) -> (Vec<u32>, Vec<Vec<u32>>) {
    pos_lists
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .map(|(s, l)| (s as u32, l.clone()))
        .unzip()
}

fn write_superedge_positive(
    links: SuperedgeLinks<'_>,
    pos: &PositivePlan,
    codec: ListCodec,
    threads: u32,
) -> EncodedSuperedge {
    let mut w = BitWriter::new();
    w.write_bit(false); // kind = positive
                        // |Ni| is NOT stored: the resident supernode metadata knows every
                        // supernode's size, and the decoder receives it as a parameter.
    if codec.singles {
        // Layout marker: dictionary (1) vs standard list stream (0).
        w.write_bit(pos.dict.is_some());
    }
    crate::refenc::write_bounded_gap_list(&mut w, links.sources, links.ni, codec);
    match &pos.dict {
        Some((dict, index)) => {
            crate::refenc::write_bounded_gap_list(&mut w, dict, links.nj, codec);
            for &i in index {
                codes::write_minimal_binary(&mut w, u64::from(i), dict.len() as u64);
            }
        }
        None => {
            let enc = encode_lists_planned(links.lists, links.nj, &pos.plan, threads);
            w.append(&enc.bytes, enc.bit_len);
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

fn write_superedge_negative(
    neg_lists: &[Vec<u32>],
    nj: u64,
    plan: &ListsPlan,
    threads: u32,
) -> EncodedSuperedge {
    let mut w = BitWriter::new();
    w.write_bit(true); // kind = negative
    let enc = encode_lists_planned(neg_lists, nj, plan, threads);
    w.append(&enc.bytes, enc.bit_len);
    let (bytes, bit_len) = w.finish();
    EncodedSuperedge {
        kind: SuperedgeKind::Negative,
        bytes,
        bit_len,
    }
}

/// Decodes a superedge graph back to **positive** lists, one per page of
/// `Ni` (empty where no links exist). `ni`/`nj` must match the encoding
/// call (the resident metadata records both).
pub fn decode_superedge(
    bytes: &[u8],
    bit_len: u64,
    ni: u64,
    nj: u64,
    codec: ListCodec,
) -> Result<Vec<Vec<u32>>> {
    let view = SuperedgeView::parse(bytes, bit_len, ni, nj, codec)?;
    let mut out = Vec::with_capacity(ni as usize);
    for s in 0..ni {
        out.push(view.targets_of(s, nj)?);
    }
    Ok(out)
}

/// Decodes a superedge graph into **sparse** positive form: the sorted
/// source ids that have at least one target, with one target list per such
/// source. The dense form ([`decode_superedge`]) allocates a vector per
/// page of `Ni` even though most pages have no cross-links into `Nj`; the
/// sparse form is what the query-time cache keeps.
pub fn decode_superedge_sparse(
    bytes: &[u8],
    bit_len: u64,
    ni: u64,
    nj: u64,
    codec: ListCodec,
) -> Result<(Vec<u32>, Vec<Vec<u32>>)> {
    let view = SuperedgeView::parse(bytes, bit_len, ni, nj, codec)?;
    match view.index.kind {
        SuperedgeKind::Positive => {
            let sources: Vec<u32> = view.index.sources.clone();
            let mut lists = Vec::with_capacity(sources.len());
            for (idx, _) in sources.iter().enumerate() {
                lists.push(view.index.stored_list(bytes, bit_len, idx as u32)?);
            }
            Ok((sources, lists))
        }
        SuperedgeKind::Negative => {
            let mut sources = Vec::new();
            let mut lists = Vec::new();
            for s in 0..ni {
                let list = view.targets_of(s, nj)?;
                if !list.is_empty() {
                    sources.push(s as u32);
                    lists.push(list);
                }
            }
            Ok((sources, lists))
        }
    }
}

/// Owned directory of an encoded superedge graph (no byte references) —
/// pair it with the bytes to decode, as with
/// [`crate::refenc::ListsIndex`].
#[derive(Debug)]
pub struct SuperedgeIndex {
    /// Representation stored.
    pub kind: SuperedgeKind,
    /// Number of source pages `|Ni|`.
    pub ni: u64,
    /// Positive only: sorted source ids with non-empty lists.
    pub(crate) sources: Vec<u32>,
    pub(crate) body: SuperedgeBody,
}

/// How the stored lists of a superedge graph are materialised.
///
/// The single-target dictionary body only ever pairs with
/// [`SuperedgeKind::Positive`]: [`SuperedgeIndex::parse`] reads the
/// layout marker exclusively on the positive path, so the invariant is
/// structural, not checked.
#[derive(Debug)]
pub(crate) enum SuperedgeBody {
    /// A reference-encoded list stream.
    Lists(ListStream),
    /// `+st` layout: each stored list is `vec![dict[index[i]]]`. Both
    /// vectors are fully materialised at parse time (they are tiny — one
    /// index per source, one entry per distinct target), so decodes are
    /// plain lookups.
    SingleTargets {
        dict: Vec<u32>,
        index: Vec<u32>,
        end_bit: u64,
    },
}

/// Where a superedge graph's list stream starts, and its directory once
/// some access has needed it.
///
/// A page's adjacency list draws on every superedge graph of its supernode,
/// but a positive graph holds lists only for the few pages among its
/// `sources`: most lookups end at that binary search, so scanning the
/// stream for list offsets at parse time would be paid by all of them for
/// nothing. The directory is built by the first access that reaches a
/// stored list and kept for the ones after it.
#[derive(Debug)]
pub(crate) struct ListStream {
    /// Bit offset of the stream inside the graph's bytes.
    start: u64,
    /// `|Nj|`, the universe of the stored lists.
    nj: u64,
    codec: ListCodec,
    directory: OnceLock<ListsIndex>,
}

impl ListStream {
    /// The stream's directory, scanning the stream on first use. Readers
    /// that race for the first use each scan; one result is kept.
    fn directory(&self, bytes: &[u8], bit_len: u64) -> Result<&ListsIndex> {
        if let Some(built) = self.directory.get() {
            return Ok(built);
        }
        let universe = Universe::Explicit(self.nj);
        let built = ListsIndex::parse_at(bytes, bit_len, self.start, universe, self.codec)?;
        Ok(self.directory.get_or_init(|| built))
    }
}

impl SuperedgeIndex {
    /// Parses the header of an encoded superedge graph: its kind, and for a
    /// positive graph its `sources` (or the whole single-target
    /// dictionary). The list stream of a positive graph is left unscanned
    /// until an access needs one of its lists — see [`ListStream`]; a
    /// negative graph stores a list for every source page, so its
    /// directory is built here. `ni` = |Ni| and `nj` = |Nj| come from the
    /// supernode metadata; the codec comes from the directory's `meta.bin`
    /// header.
    pub fn parse(bytes: &[u8], bit_len: u64, ni: u64, nj: u64, codec: ListCodec) -> Result<Self> {
        let mut r = BitReader::with_bit_len(bytes, bit_len);
        let stream = |start| ListStream {
            start,
            nj,
            codec,
            directory: OnceLock::new(),
        };
        if r.read_bit()? {
            let lists = stream(r.position());
            lists.directory(bytes, bit_len)?;
            return Ok(Self {
                kind: SuperedgeKind::Negative,
                ni,
                sources: Vec::new(),
                body: SuperedgeBody::Lists(lists),
            });
        }
        let dict_layout = codec.singles && r.read_bit()?;
        let sources = crate::refenc::read_bounded_gap_list(&mut r, ni, codec)?;
        let body = if dict_layout {
            let dict = crate::refenc::read_bounded_gap_list(&mut r, nj, codec)?;
            if dict.is_empty() && !sources.is_empty() {
                return Err(SNodeError::Corrupt("single-target dictionary is empty"));
            }
            let mut index = Vec::with_capacity(sources.len());
            for _ in 0..sources.len() {
                let v = codes::read_minimal_binary(&mut r, dict.len() as u64)?;
                index.push(u32::try_from(v).map_err(|_| {
                    SNodeError::Corrupt("single-target dictionary index overflows u32")
                })?);
            }
            SuperedgeBody::SingleTargets {
                dict,
                index,
                end_bit: r.position(),
            }
        } else {
            SuperedgeBody::Lists(stream(r.position()))
        };
        Ok(Self {
            kind: SuperedgeKind::Positive,
            ni,
            sources,
            body,
        })
    }

    /// The positive target list of local source `s` (`nj` = |Nj|).
    pub fn targets_of(&self, bytes: &[u8], bit_len: u64, s: u64, nj: u64) -> Result<Vec<u32>> {
        self.targets_of_with_memo(bytes, bit_len, s, nj, &mut crate::refenc::NoMemo)
    }

    /// [`SuperedgeIndex::targets_of`] decoding through a caller-supplied
    /// [`crate::refenc::DecodeMemo`].
    ///
    /// The memo is keyed in **lists-index space** — for a positive
    /// representation the key of source `s` is its position among the
    /// non-empty sources, for a negative one it is `s` itself — never in
    /// source-id space, so reference-chain prefixes shared between sources
    /// are decoded once and found again whatever source asks next. Negative
    /// representations complement outside the memo: only the stored
    /// (negative) lists are memoised, not the expanded complements.
    pub fn targets_of_with_memo(
        &self,
        bytes: &[u8],
        bit_len: u64,
        s: u64,
        nj: u64,
        memo: &mut dyn crate::refenc::DecodeMemo,
    ) -> Result<Vec<u32>> {
        if s >= self.ni {
            return Err(SNodeError::Corrupt("superedge source out of range"));
        }
        if self.kind == SuperedgeKind::Negative {
            let neg = self.decode_stored(bytes, bit_len, s as u32, memo)?;
            return Ok(complement(&neg, nj as u32));
        }
        match self.sources.binary_search(&(s as u32)) {
            Ok(i) => self.decode_stored(bytes, bit_len, i as u32, memo),
            Err(_) => Ok(Vec::new()),
        }
    }

    /// Decodes stored list `i` (in stored order, not source-id space).
    fn decode_stored(
        &self,
        bytes: &[u8],
        bit_len: u64,
        i: u32,
        memo: &mut dyn crate::refenc::DecodeMemo,
    ) -> Result<Vec<u32>> {
        match &self.body {
            SuperedgeBody::Lists(lists) => lists
                .directory(bytes, bit_len)?
                .decode_list_with_memo(bytes, bit_len, i, memo),
            // Parse validates every index against the dictionary, so a
            // miss here means the directory was mutated after parsing.
            SuperedgeBody::SingleTargets { dict, index, .. } => index
                .get(i as usize)
                .and_then(|&d| dict.get(d as usize))
                .map(|&t| vec![t])
                .ok_or(SNodeError::Corrupt("single-target dictionary slot missing")),
        }
    }

    /// Total number of positive edges represented.
    pub fn count_positive_edges(&self, bytes: &[u8], bit_len: u64, nj: u64) -> Result<u64> {
        let mut total = 0u64;
        match self.kind {
            SuperedgeKind::Positive => {
                for i in 0..self.num_stored_lists(bytes, bit_len)? {
                    total += self.stored_list(bytes, bit_len, i)?.len() as u64;
                }
            }
            SuperedgeKind::Negative => {
                for s in 0..self.ni {
                    total += nj - self.stored_list(bytes, bit_len, s as u32)?.len() as u64;
                }
            }
        }
        Ok(total)
    }

    /// Heap footprint of the directory, the list-stream offsets included
    /// whether or not they have been built yet: a stream stores one list
    /// per source (positive) or per page of `Ni` (negative), so the cache
    /// can charge the finished size at admission and never re-account.
    pub fn heap_bytes(&self) -> usize {
        let body = match &self.body {
            SuperedgeBody::Lists(_) => {
                let stored = match self.kind {
                    SuperedgeKind::Positive => self.sources.len(),
                    SuperedgeKind::Negative => self.ni as usize,
                };
                (stored + 1) * 4 + std::mem::size_of::<ListsIndex>()
            }
            SuperedgeBody::SingleTargets { dict, index, .. } => (dict.len() + index.len()) * 4,
        };
        self.sources.len() * 4 + body + Self::FIXED_BYTES
    }

    /// What [`SuperedgeIndex::heap_bytes`] charges for the struct itself:
    /// its size when the cache accounting was calibrated. A constant, so
    /// that a field added here does not move every eviction counter the
    /// committed baselines compare.
    const FIXED_BYTES: usize = 96;

    /// Directory over the stored lists — one per non-empty source for
    /// [`SuperedgeKind::Positive`], one per source page for
    /// [`SuperedgeKind::Negative`]. `None` while no access has needed it
    /// yet, and for the single-target dictionary layout, which stores no
    /// list stream.
    pub fn lists(&self) -> Option<&ListsIndex> {
        match &self.body {
            SuperedgeBody::Lists(lists) => lists.directory.get(),
            SuperedgeBody::SingleTargets { .. } => None,
        }
    }

    /// Number of stored lists (in stored order, not source-id space).
    pub fn num_stored_lists(&self, bytes: &[u8], bit_len: u64) -> Result<u32> {
        Ok(match &self.body {
            SuperedgeBody::Lists(lists) => lists.directory(bytes, bit_len)?.num_lists(),
            SuperedgeBody::SingleTargets { index, .. } => index.len() as u32,
        })
    }

    /// Decodes stored list `i` (in stored order, not source-id space).
    pub fn stored_list(&self, bytes: &[u8], bit_len: u64, i: u32) -> Result<Vec<u32>> {
        self.decode_stored(bytes, bit_len, i, &mut crate::refenc::NoMemo)
    }

    /// First bit past the encoded payload.
    pub fn end_bit(&self, bytes: &[u8], bit_len: u64) -> Result<u64> {
        Ok(match &self.body {
            SuperedgeBody::Lists(lists) => lists.directory(bytes, bit_len)?.end_bit(),
            SuperedgeBody::SingleTargets { end_bit, .. } => *end_bit,
        })
    }

    /// Positive encodings only: the sorted source ids with non-empty
    /// target lists (empty for negative encodings).
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }
}

/// A parsed superedge graph bound to its bytes, supporting per-source
/// random access.
#[derive(Debug)]
pub struct SuperedgeView<'a> {
    bytes: &'a [u8],
    bit_len: u64,
    index: SuperedgeIndex,
}

impl SuperedgeView<'_> {
    /// The parsed directory.
    pub fn index(&self) -> &SuperedgeIndex {
        &self.index
    }
}

impl<'a> SuperedgeView<'a> {
    /// Parses the header and directory of an encoded superedge graph.
    pub fn parse(
        bytes: &'a [u8],
        bit_len: u64,
        ni: u64,
        nj: u64,
        codec: ListCodec,
    ) -> Result<Self> {
        Ok(Self {
            bytes,
            bit_len,
            index: SuperedgeIndex::parse(bytes, bit_len, ni, nj, codec)?,
        })
    }

    /// Representation stored.
    pub fn kind(&self) -> SuperedgeKind {
        self.index.kind
    }

    /// Number of source pages `|Ni|`.
    pub fn ni(&self) -> u64 {
        self.index.ni
    }

    /// The positive target list of local source `s` (`nj` = |Nj|).
    pub fn targets_of(&self, s: u64, nj: u64) -> Result<Vec<u32>> {
        self.index.targets_of(self.bytes, self.bit_len, s, nj)
    }

    /// Total number of positive edges represented.
    pub fn count_positive_edges(&self, nj: u64) -> Result<u64> {
        self.index
            .count_positive_edges(self.bytes, self.bit_len, nj)
    }
}

/// Sorted complement of `list` within `0..n`.
fn complement(list: &[u32], n: u32) -> Vec<u32> {
    let mut out = Vec::with_capacity((n as usize).saturating_sub(list.len()));
    let mut li = 0usize;
    for x in 0..n {
        if li < list.len() && list[li] == x {
            li += 1;
        } else {
            out.push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modes() -> [RefMode; 3] {
        [RefMode::None, RefMode::Windowed(8), RefMode::Exact]
    }

    /// The positive representation, whether or not it would win.
    fn encode_superedge_positive(
        pos_lists: &[Vec<u32>],
        nj: u64,
        mode: RefMode,
        codec: ListCodec,
    ) -> EncodedSuperedge {
        let (sources, lists) = positive_sources(pos_lists);
        let links = SuperedgeLinks {
            sources: &sources,
            lists: &lists,
            ni: pos_lists.len() as u64,
            nj,
        };
        let pos = plan_positive(links, mode, codec, 1);
        write_superedge_positive(links, &pos, codec, 1)
    }

    #[test]
    fn intranode_round_trip() {
        let lists = vec![vec![1u32, 2], vec![0, 2], vec![], vec![0, 1, 2]];
        for mode in modes() {
            let enc = encode_intranode(&lists, mode, ListCodec::GAMMA);
            assert_eq!(
                decode_intranode(&enc.bytes, enc.bit_len, ListCodec::GAMMA).unwrap(),
                lists
            );
        }
    }

    #[test]
    fn sparse_superedge_stays_positive() {
        // 10 sources into |Nj| = 50, very few links.
        let mut pos = vec![Vec::new(); 10];
        pos[2] = vec![5u32, 9];
        pos[7] = vec![5];
        for mode in modes() {
            let enc = encode_superedge(
                &pos,
                50,
                mode,
                SuperedgePolicy::EncodedSize,
                ListCodec::GAMMA,
            );
            assert_eq!(enc.kind, SuperedgeKind::Positive);
            assert_eq!(
                decode_superedge(&enc.bytes, enc.bit_len, 10, 50, ListCodec::GAMMA).unwrap(),
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
            ListCodec::GAMMA,
        );
        assert_eq!(enc.kind, SuperedgeKind::Negative);
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 8, u64::from(nj), ListCodec::GAMMA).unwrap(),
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
            ListCodec::GAMMA,
        );
        assert_eq!(enc.kind, SuperedgeKind::Negative);
        let sparse =
            encode_superedge_positive(&pos, u64::from(nj), RefMode::Windowed(4), ListCodec::GAMMA);
        assert!(enc.bit_len < sparse.bit_len / 2);
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 5, u64::from(nj), ListCodec::GAMMA).unwrap(),
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
            ListCodec::GAMMA,
        );
        assert_eq!(enc.kind, SuperedgeKind::Negative);
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 4, u64::from(nj), ListCodec::GAMMA).unwrap(),
            pos
        );
    }

    /// The builder's sparse input and the dense convenience are one
    /// encoder: same bits whichever way the links arrive, for a negative
    /// winner, a lone source among empty ones, and the `+st` dictionary.
    #[test]
    fn sparse_input_encodes_bit_for_bit_like_dense() {
        let lone = {
            let mut pos = vec![Vec::new(); 300];
            pos[217] = vec![4u32, 5, 30];
            pos
        };
        // (name, dense lists, |Nj|, codec, the kind that must win)
        type Case = (&'static str, Vec<Vec<u32>>, u64, ListCodec, SuperedgeKind);
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
                ListCodec::GAMMA,
                SuperedgeKind::Negative,
            ),
            (
                "all empty but one",
                lone,
                31,
                ListCodec::GAMMA,
                SuperedgeKind::Positive,
            ),
            (
                "single-target dictionary",
                (0..40u32)
                    .map(|s| match s % 5 {
                        0 => Vec::new(),
                        _ => vec![[2u32, 9, 14][(s % 3) as usize]],
                    })
                    .collect(),
                20,
                st_codec(),
                SuperedgeKind::Positive,
            ),
            (
                "no links at all",
                vec![Vec::new(); 6],
                7,
                st_codec(),
                SuperedgeKind::Positive,
            ),
        ];
        for (name, pos, nj, codec, kind) in cases {
            let ni = pos.len() as u64;
            // The sparse form as the builder derives it: sorted link triples
            // cut into one run per source.
            let triples: Vec<(u32, u32)> = pos
                .iter()
                .enumerate()
                .flat_map(|(s, l)| l.iter().map(move |&t| (s as u32, t)))
                .collect();
            let (sources, lists): (Vec<u32>, Vec<Vec<u32>>) = triples
                .chunk_by(|a, b| a.0 == b.0)
                .map(|run| (run[0].0, run.iter().map(|l| l.1).collect()))
                .unzip();
            let links = SuperedgeLinks {
                sources: &sources,
                lists: &lists,
                ni,
                nj,
            };
            for mode in modes() {
                for policy in [SuperedgePolicy::EncodedSize, SuperedgePolicy::EdgeCount] {
                    let dense = encode_superedge(&pos, nj, mode, policy, codec);
                    for threads in [1u32, 4] {
                        let sparse = encode_superedge_t(links, mode, policy, codec, threads);
                        assert_eq!(sparse, dense, "{name} {mode:?} {policy:?} x{threads}");
                    }
                    assert_eq!(dense.kind, kind, "{name} {mode:?} {policy:?}");
                    let back = decode_superedge(&dense.bytes, dense.bit_len, ni, nj, codec);
                    assert_eq!(back.unwrap(), pos, "{name} {mode:?} {policy:?}");
                    let index =
                        SuperedgeIndex::parse(&dense.bytes, dense.bit_len, ni, nj, codec).unwrap();
                    assert_eq!(
                        matches!(index.body, SuperedgeBody::SingleTargets { .. }),
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
        let enc = encode_superedge(
            &pos,
            15,
            RefMode::Windowed(4),
            SuperedgePolicy::EncodedSize,
            ListCodec::GAMMA,
        );
        let view = SuperedgeView::parse(&enc.bytes, enc.bit_len, 20, 15, ListCodec::GAMMA).unwrap();
        assert_eq!(view.ni(), 20);
        for (s, expect) in pos.iter().enumerate() {
            assert_eq!(&view.targets_of(s as u64, 15).unwrap(), expect);
        }
        assert!(view.targets_of(20, 15).is_err());
        assert_eq!(view.count_positive_edges(15).unwrap(), 7);
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
            ListCodec::GAMMA,
        );
        assert_eq!(enc.kind, SuperedgeKind::Negative);
        let view =
            SuperedgeView::parse(&enc.bytes, enc.bit_len, 6, u64::from(nj), ListCodec::GAMMA)
                .unwrap();
        for (s, expect) in pos.iter().enumerate() {
            assert_eq!(&view.targets_of(s as u64, u64::from(nj)).unwrap(), expect);
        }
        assert_eq!(
            view.count_positive_edges(u64::from(nj)).unwrap(),
            pos.iter().map(|l| l.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn empty_superedge_inputs() {
        let enc = encode_superedge(
            &[],
            5,
            RefMode::None,
            SuperedgePolicy::EncodedSize,
            ListCodec::GAMMA,
        );
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 0, 5, ListCodec::GAMMA).unwrap(),
            Vec::<Vec<u32>>::new()
        );
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

    fn st_codec() -> ListCodec {
        ListCodec {
            singles: true,
            ..ListCodec::GAMMA
        }
    }

    #[test]
    fn single_target_dictionary_round_trip_and_wins() {
        // Site-template shape: 40 sources, each linking to one of 3 hubs.
        let pos: Vec<Vec<u32>> = (0..40u32)
            .map(|s| vec![[2u32, 9, 14][(s % 3) as usize]])
            .collect();
        let st = st_codec();
        let enc = encode_superedge(
            &pos,
            20,
            RefMode::Windowed(8),
            SuperedgePolicy::EncodedSize,
            st,
        );
        assert_eq!(enc.kind, SuperedgeKind::Positive);
        let plain = encode_superedge(
            &pos,
            20,
            RefMode::Windowed(8),
            SuperedgePolicy::EncodedSize,
            ListCodec::GAMMA,
        );
        assert!(
            enc.bit_len < plain.bit_len,
            "dictionary {} must beat standard {}",
            enc.bit_len,
            plain.bit_len
        );
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 40, 20, st).unwrap(),
            pos
        );
        let view = SuperedgeView::parse(&enc.bytes, enc.bit_len, 40, 20, st).unwrap();
        assert!(view.index().lists().is_none(), "must store no list stream");
        assert_eq!(
            view.index()
                .num_stored_lists(&enc.bytes, enc.bit_len)
                .unwrap(),
            40
        );
        assert_eq!(
            view.index().end_bit(&enc.bytes, enc.bit_len).unwrap(),
            enc.bit_len
        );
        assert_eq!(view.count_positive_edges(20).unwrap(), 40);
        let (srcs, lists) = decode_superedge_sparse(&enc.bytes, enc.bit_len, 40, 20, st).unwrap();
        assert_eq!(srcs, (0..40u32).collect::<Vec<_>>());
        assert!(lists.iter().all(|l| l.len() == 1));
    }

    #[test]
    fn singles_codec_falls_back_on_multi_target_lists() {
        let mut pos = vec![Vec::new(); 10];
        pos[2] = vec![5u32, 9];
        pos[7] = vec![5];
        let st = st_codec();
        let enc = encode_superedge(
            &pos,
            50,
            RefMode::Windowed(8),
            SuperedgePolicy::EncodedSize,
            st,
        );
        assert_eq!(enc.kind, SuperedgeKind::Positive);
        assert_eq!(
            decode_superedge(&enc.bytes, enc.bit_len, 10, 50, st).unwrap(),
            pos
        );
        let view = SuperedgeView::parse(&enc.bytes, enc.bit_len, 10, 50, st).unwrap();
        assert_eq!(view.targets_of(2, 50).unwrap(), pos[2]);
        assert!(
            view.index().lists().is_some(),
            "mixed lists must keep the standard stream"
        );
    }

    #[test]
    fn positive_directory_is_built_by_the_first_hit_only() {
        let mut pos = vec![Vec::new(); 40];
        pos[3] = vec![0u32, 7, 14];
        pos[11] = vec![7];
        pos[19] = vec![0, 1, 2];
        let enc = encode_superedge(
            &pos,
            15,
            RefMode::Windowed(4),
            SuperedgePolicy::EncodedSize,
            ListCodec::GAMMA,
        );
        assert_eq!(enc.kind, SuperedgeKind::Positive);
        let index =
            SuperedgeIndex::parse(&enc.bytes, enc.bit_len, 40, 15, ListCodec::GAMMA).unwrap();
        let charged = index.heap_bytes();
        assert!(index.lists().is_none(), "parse reads `sources` only");
        for s in (0..40).filter(|s| pos[*s as usize].is_empty()) {
            assert!(index
                .targets_of(&enc.bytes, enc.bit_len, s, 15)
                .unwrap()
                .is_empty());
        }
        assert!(
            index.lists().is_none(),
            "a miss on `sources` builds nothing"
        );

        // Eight readers released together onto stored lists: every one
        // decodes correctly and all end up sharing one directory.
        let barrier = std::sync::Barrier::new(8);
        let seen: Vec<usize> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..8u64)
                .map(|t| {
                    let (index, enc, pos, barrier) = (&index, &enc, &pos, &barrier);
                    scope.spawn(move || {
                        let s = [3u64, 11, 19][(t % 3) as usize];
                        barrier.wait();
                        let got = index.targets_of(&enc.bytes, enc.bit_len, s, 15).unwrap();
                        assert_eq!(got, pos[s as usize]);
                        index.lists().expect("built by the hit") as *const ListsIndex as usize
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .collect()
        });
        assert!(seen.iter().all(|&d| d == seen[0]), "one directory, kept");
        let built = index.lists().expect("kept after the readers are gone");
        assert_eq!(built.num_lists(), 3);
        assert_eq!(
            charged,
            index.heap_bytes(),
            "the footprint charged before the build already covers it"
        );
        assert_eq!(
            charged,
            3 * 4 + built.heap_bytes() + SuperedgeIndex::FIXED_BYTES
        );
    }

    #[test]
    fn damaged_list_stream_surfaces_at_the_first_hit() {
        let mut pos = vec![Vec::new(); 12];
        pos[2] = vec![5u32, 9];
        pos[7] = vec![5];
        let enc = encode_superedge(
            &pos,
            50,
            RefMode::Windowed(8),
            SuperedgePolicy::EncodedSize,
            ListCodec::GAMMA,
        );
        // Cut the stream inside its last list: `sources` still parses.
        let cut = enc.bit_len - 3;
        let index = SuperedgeIndex::parse(&enc.bytes, cut, 12, 50, ListCodec::GAMMA).unwrap();
        assert!(index.targets_of(&enc.bytes, cut, 0, 50).unwrap().is_empty());
        assert!(index.targets_of(&enc.bytes, cut, 2, 50).is_err());
        assert!(
            index.lists().is_none(),
            "a failed scan leaves nothing behind"
        );
    }

    #[test]
    fn singles_codec_decodes_identically_across_shapes() {
        // Sparse single-target, mixed, dense (negative), and empty inputs
        // all decode to the same lists under γ and γ+st.
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
            let st = st_codec();
            for mode in modes() {
                let a =
                    encode_superedge(pos, u64::from(nj), mode, SuperedgePolicy::EncodedSize, st);
                let ni = pos.len() as u64;
                assert_eq!(
                    decode_superedge(&a.bytes, a.bit_len, ni, u64::from(nj), st).unwrap(),
                    *pos
                );
            }
        }
    }

    #[test]
    fn singles_stream_truncation_and_bit_flips_never_panic() {
        let pos: Vec<Vec<u32>> = (0..30u32).map(|s| vec![(s * 7) % 11]).collect();
        let st = st_codec();
        let enc = encode_superedge(
            &pos,
            11,
            RefMode::Windowed(8),
            SuperedgePolicy::EncodedSize,
            st,
        );
        for cut in 0..enc.bit_len {
            // Must not panic; may error or (for generous cuts) succeed.
            let _ = decode_superedge(&enc.bytes, cut, 30, 11, st);
        }
        for flip in 0..enc.bit_len {
            let mut bytes = enc.bytes.clone();
            bytes[(flip / 8) as usize] ^= 1 << (flip % 8);
            if let Ok(lists) = decode_superedge(&bytes, enc.bit_len, 30, 11, st) {
                for list in lists {
                    assert!(list.windows(2).all(|w| w[0] < w[1]), "flip {flip}");
                }
            }
        }
    }

    #[test]
    fn truncated_superedge_errors() {
        let pos = vec![vec![0u32, 1], vec![1]];
        let enc = encode_superedge(
            &pos,
            3,
            RefMode::None,
            SuperedgePolicy::EncodedSize,
            ListCodec::GAMMA,
        );
        for cut in 1..enc.bit_len {
            // Must not panic; may error or (for generous cuts) succeed.
            let _ = decode_superedge(&enc.bytes, cut, 2, 3, ListCodec::GAMMA);
        }
    }
}
