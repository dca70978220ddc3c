//! Reference encoding of adjacency-list collections (§3.1 of the paper).
//!
//! A collection of sorted adjacency lists over a shared universe is encoded
//! so that a list may be represented *relative to a reference list*: a bit
//! vector marking which reference entries are shared, plus a gap-coded list
//! of extras. Which list references which is the Adler–Mitzenmacher
//! **affinity graph** question: node `y` has an incoming edge from every
//! candidate reference `x` weighted by the cost in bits of encoding `y`
//! given `x`, plus an edge from a virtual root weighted by the cost of
//! encoding `y` standalone, and the optimal assignment is a minimum-weight
//! spanning arborescence rooted at the virtual root.
//!
//! Candidates here are the `w` lists *preceding* `y` ([`RefMode::Windowed`]).
//! Every reference edge then points backward, the affinity graph is a DAG,
//! and its minimum arborescence is each node's cheapest incoming edge — one
//! serial loop (`choose_references`), no cycle contraction. A selection
//! over all ordered pairs (Chu–Liu/Edmonds) was built, measured and deleted:
//! forward references need a per-list directory on disk, which cost more
//! than the references saved (EXPERIMENTS.md, A1).
//!
//! The serialised format is self-contained and supports *random access* to
//! individual lists (needed for the paper's Table 2 access-time
//! experiment): payloads are self-delimiting, a loader finds every list's
//! offset with one scan, and decoding list `i` walks its reference chain.

use crate::codec::ListCodec;
use crate::flat::{FlatLists, ListBuf};
use crate::section::{self, Section, Width};
use crate::{Result, SNodeError};
use wg_bitio::{codes, rle, BitReader, BitWriter, Window};

/// Depth cap on the reference chains selection builds.
///
/// An uncapped chain makes a single random-access decode O(chain) lists,
/// which is what Table 2 measures; the Link DB bounds its chains the same
/// way. The decoder follows a chain of any depth, so the analyzer reports
/// a deeper one as a warning, not corruption.
pub const MAX_REF_CHAIN: u32 = 4;

/// Shared handle to the `core.refenc.chain_len` histogram (the number of
/// reference-encoded steps a random-access decode had to walk — the cost
/// driver Table 2 measures). Resolved once; only touched under `--metrics`.
#[allow(clippy::disallowed_types)] // Resolved once per process, read-only after.
fn chain_len_histogram() -> &'static wg_obs::Histogram {
    static H: std::sync::OnceLock<wg_obs::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| wg_obs::global().histogram("core.refenc.chain_len"))
}

/// Records one random-access decode that walked `steps` reference-encoded
/// lists (none for a plain list).
fn record_chain_len(steps: u64) {
    if wg_obs::metrics_enabled() {
        chain_len_histogram().record(steps);
    }
}

/// Reference-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefMode {
    /// No reference encoding: every list is a plain gap list.
    None,
    /// Candidate references are the `w` preceding lists (w ≥ 1);
    /// `u32::MAX` is every preceding list.
    Windowed(u32),
}

impl Default for RefMode {
    fn default() -> Self {
        RefMode::Windowed(32)
    }
}

/// Declares where an encoded-lists universe size comes from at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Universe {
    /// The universe equals the number of lists (intranode graphs: local
    /// targets index the lists themselves).
    SameAsCount,
    /// The caller supplies the universe (superedge graphs: |Nj|).
    Explicit(u64),
}

/// A serialised collection of adjacency lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedLists {
    /// The bit stream.
    pub bytes: Vec<u8>,
    /// Exact number of valid bits in `bytes`.
    pub bit_len: u64,
}

/// Encodes `lists` (each strictly ascending, entries `< universe`) with the
/// given reference mode, for a caller that holds one `Vec` per list; the
/// build plans and writes its flat collections with `plan_lists` and
/// `write_lists`, which is all this does. Every list is coded the one
/// way the paper does: the codec argument is read by nothing, and
/// [`ListCodec`] says which caller it stays for.
///
/// # Panics
/// Panics if a list entry is `>= universe` or a list is not strictly
/// ascending (caller bug — these are internal graph invariants).
pub fn encode_lists(
    lists: &[Vec<u32>],
    universe: u64,
    mode: RefMode,
    _codec: ListCodec,
) -> EncodedLists {
    let flat = ListBuf::from_nested(lists);
    let plan = plan_lists(flat.view(), universe, mode);
    write_lists(flat.view(), universe, &plan)
}

/// The stream `plan` describes for `lists`, as a graph of its own.
pub(crate) fn write_lists(lists: FlatLists<'_>, universe: u64, plan: &ListsPlan) -> EncodedLists {
    let mut w = BitWriter::with_capacity_bits(plan.total_bits as usize);
    write_lists_planned(&mut w, lists, universe, plan);
    let (bytes, bit_len) = w.finish();
    EncodedLists { bytes, bit_len }
}

/// A reference-selection plan: every list's chosen parent plus the exact
/// bit sizes the resulting encoding will have.
///
/// Planning pays for reference selection (the expensive part) but writes
/// no bit stream; [`write_lists_planned`] writes the stream a plan
/// describes. Splitting the two lets the superedge polarity and layout
/// decisions size every candidate and encode only the winner.
#[derive(Debug, Clone)]
pub(crate) struct ListsPlan {
    /// Chosen reference parent per list (`None` = plain), always an
    /// earlier list.
    parents: Vec<Option<u32>>,
    /// Exact payload size in bits per list (mode bit included).
    payload_bits: Vec<u64>,
    /// Exact size in bits of the full encoded stream.
    pub(crate) total_bits: u64,
}

/// Selects references and computes the exact encoded size, without
/// producing the bit stream.
pub(crate) fn plan_lists(lists: FlatLists<'_>, universe: u64, mode: RefMode) -> ListsPlan {
    for list in lists.iter() {
        debug_assert!(list.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(list.iter().all(|&x| u64::from(x) < universe.max(1)));
    }
    let n = lists.len() as u64;
    let Selection {
        parents,
        priced: mut payload_bits,
    } = choose_references(lists, universe, mode);
    // A payload is what selection priced it at, except that selection
    // charges every parent field the longest codeword and the stream
    // spends the one the parent chosen takes.
    let longest = parent_field_bits(n);
    for (bits, parent) in payload_bits.iter_mut().zip(&parents) {
        if let Some(p) = parent {
            *bits = *bits - longest + codes::minimal_binary_len(u64::from(*p), n);
        }
    }
    let total_bits = codes::gamma_len(n) + 1 + payload_bits.iter().sum::<u64>();
    ListsPlan {
        parents,
        payload_bits,
        total_bits,
    }
}

/// Writes the stream `plan` describes for `lists` onto `w`, wherever it
/// stands: the one place a list stream is serialised, whether it is a
/// graph of its own or a section of a superedge graph.
pub(crate) fn write_lists_planned(
    w: &mut BitWriter,
    lists: FlatLists<'_>,
    universe: u64,
    plan: &ListsPlan,
) {
    let n = lists.len();
    debug_assert_eq!(plan.parents.len(), n);
    let stream_start = w.bit_len();
    // The universe size is NOT stored: every caller knows it (an intranode
    // graph's universe is its own list count; a superedge graph's is |Nj|,
    // which the resident supernode metadata records), and at a few dozen
    // bits per graph it would be the single largest fixed overhead on the
    // many small superedge graphs a Web-scale partition produces.
    codes::write_gamma(w, n as u64);
    // Every reference points backward, so payloads are self-delimiting and
    // no per-list directory is stored: a loader rebuilds offsets with one
    // sequential scan (see [`ListsIndex::parse_at`]), the way the paper's
    // scheme can afford fast in-memory access without paying index bits on
    // disk. The bit that once announced a directory stays, always 0.
    w.write_bit(false);
    let mut diff = DiffScratch::default();
    for (i, list) in lists.iter().enumerate() {
        let payload_start = w.bit_len();
        match plan.parents[i] {
            None => {
                w.write_bit(false);
                write_bounded_gap_list(w, list, universe);
            }
            Some(p) => {
                debug_assert!((p as usize) < i, "a reference points backward");
                w.write_bit(true);
                codes::write_minimal_binary(w, u64::from(p), n as u64);
                diff_into(lists.get(p as usize), list, &mut diff);
                rle::write_bitvec(w, &diff.mask);
                write_bounded_gap_list(w, &diff.extras, universe);
            }
        }
        debug_assert_eq!(w.bit_len() - payload_start, plan.payload_bits[i]);
    }
    debug_assert_eq!(w.bit_len() - stream_start, plan.total_bits);
}

/// Directory of an [`EncodedLists`] stream: everything needed for random
/// access except the bytes themselves.
///
/// Splitting the directory from the data lets callers that keep many
/// encoded graphs resident (the Table 2 in-memory access path) parse each
/// directory once and decode lists straight out of the shared byte buffers.
/// The offsets are its one allocation (`O` = `Box<[u8]>`, what
/// [`ListsIndex::parse`] returns), or a borrow of the section of a
/// superedge graph's arena that holds them (`O` = `&[u8]`); either way
/// the decoder below is the same code.
#[derive(Debug, Clone)]
pub struct ListsIndex<O = Box<[u8]>> {
    universe: u64,
    /// Absolute bit offset of each payload (one extra end sentinel), so
    /// never empty, at the width the graph's bit length needs
    /// ([`offset_width`]), which is what the query-time memory cap buys.
    /// Four bytes bound a single encoded graph at 512 MiB. A directory
    /// scanned through a bound ([`ListsIndex::parse_through`]) counts as
    /// many but holds the bytes of those through the bound and the one
    /// after it only: the others read as absent.
    offsets: Section<O>,
}

impl ListsIndex {
    /// Parses the header + directory of an encoded stream.
    ///
    /// `universe` declares the entry universe: [`Universe::SameAsCount`]
    /// for intranode-style graphs (entries index the lists themselves) or
    /// [`Universe::Explicit`] when the caller knows it (superedge targets
    /// in `0..|Nj|`). It is not stored in the stream: it comes from
    /// resident metadata. The codec argument is read by nothing, and
    /// [`ListCodec`] says which caller it stays for.
    pub fn parse(data: &[u8], bit_len: u64, universe: Universe, _codec: ListCodec) -> Result<Self> {
        Self::parse_at(data, bit_len, 0, universe)
    }

    /// Like [`ListsIndex::parse`], but the encoded stream starts at bit
    /// offset `start` inside `data` (used when the stream is embedded in a
    /// larger structure, e.g. a superedge graph header).
    pub fn parse_at(data: &[u8], bit_len: u64, start: u64, universe: Universe) -> Result<Self> {
        Self::scan(data, bit_len, start, universe, u32::MAX)
    }

    /// Like [`ListsIndex::parse`], but scans the payloads through list
    /// `last` only: the directory of a probe that wants the lists up to
    /// `last` and keeps nothing. It decodes every list through `last`
    /// exactly as the whole directory does — a reference points backward —
    /// and the lists past it are out of range; it holds the offsets
    /// through the one after `last` only, and its [`ListsIndex::end_bit`]
    /// is 0 unless `last` is the last list. A bound past the last list is
    /// the whole directory.
    pub fn parse_through(data: &[u8], bit_len: u64, universe: Universe, last: u32) -> Result<Self> {
        Self::scan(data, bit_len, 0, universe, last)
    }

    /// The directory of the stream at `start`, scanned through list
    /// `last` ([`scan_lists`]).
    fn scan(data: &[u8], bit_len: u64, start: u64, universe: Universe, last: u32) -> Result<Self> {
        let (mut arena, width) = (Vec::new(), offset_width(bit_len));
        let scanned = scan_lists(data, bit_len, start, universe, &mut arena, width, last)?;
        let (universe, lists, _) = scanned;
        Ok(Self {
            universe,
            offsets: Section::owned(arena, lists + 1, width),
        })
    }

    /// Parses the stream and decodes every list, returning both the index
    /// and the decoded lists.
    pub fn load(data: &[u8], bit_len: u64, universe: Universe) -> Result<(Self, Vec<Vec<u32>>)> {
        let index = Self::parse_at(data, bit_len, 0, universe)?;
        let lists = index.decode_all(data, bit_len)?;
        Ok((index, lists))
    }

    /// Heap footprint of the directory: its offsets. The value itself is
    /// charged by whatever holds it (a cache entry counts its own size).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes()
    }
}

impl<'a> ListsIndex<&'a [u8]> {
    /// The directory whose offsets are `offsets` (never empty: one per
    /// list and the end sentinel), over `universe`.
    pub(crate) fn view(universe: u64, offsets: Section<&'a [u8]>) -> Self {
        Self { universe, offsets }
    }
}

impl<O: AsRef<[u8]>> ListsIndex<O> {
    /// Number of lists.
    pub fn num_lists(&self) -> u32 {
        // One offset per list and the sentinel, at most 2³² of them.
        self.offsets.len().saturating_sub(1) as u32
    }

    /// Universe size the entries live in.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Bit position one past the final payload, in the same absolute
    /// coordinates as the stream this directory was parsed from. Anything
    /// between this and the declared bit length is trailing garbage.
    pub fn end_bit(&self) -> u64 {
        self.offsets.last().map_or(0, u64::from)
    }

    /// The reference parent of every list (`None` = plain), read from the
    /// payload headers without decoding any list. This is the raw on-disk
    /// reference forest; audits use it to check acyclicity and depth.
    pub fn reference_parents(&self, data: &[u8], bit_len: u64) -> Result<Vec<Option<u32>>> {
        (0..self.num_lists())
            .map(|i| self.payload_parent(data, bit_len, i))
            .collect()
    }

    /// Decodes list `i`, following its reference chain.
    pub fn decode_list(&self, data: &[u8], bit_len: u64, i: u32) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        let mut scratch = DecodeScratch::default();
        self.decode_list_into(data, bit_len, i, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Decodes every list, in order: a reference points backward
    /// ([`ListsIndex::parse_at`] admits no other), so a list's parent lies
    /// decoded where it is wanted. Bytes other than the ones this index
    /// was parsed from may name a later list; that is corruption.
    pub fn decode_all(&self, data: &[u8], bit_len: u64) -> Result<Vec<Vec<u32>>> {
        let mut scratch = DecodeScratch::default();
        let mut out: Vec<Vec<u32>> = Vec::with_capacity(self.num_lists() as usize);
        for i in 0..self.num_lists() {
            let mut list = Vec::new();
            let mut r = self.reader_at(data, bit_len, i)?;
            let mut w = r.window();
            match self.read_parent(&mut w)? {
                None => read_bounded_gap_list_into(&mut w, self.universe, &mut list)?,
                Some(p) => {
                    let reference = (out.get(p as usize))
                        .ok_or(SNodeError::Corrupt("reference to a list not yet decoded"))?;
                    let DecodeScratch { copied, extras, .. } = &mut scratch;
                    self.apply_reference(&mut w, reference, copied, extras, &mut list)?;
                }
            }
            out.push(list);
        }
        Ok(out)
    }

    /// A reader over payload `i`.
    fn reader_at<'d>(&self, data: &'d [u8], bit_len: u64, i: u32) -> Result<BitReader<'d>> {
        // The end sentinel is no list's.
        let at = (self.offsets.get(i as usize))
            .filter(|_| i < self.num_lists())
            .ok_or(SNodeError::Corrupt("list index out of range"))?;
        let mut r = BitReader::with_bit_len(data, bit_len);
        r.seek(u64::from(at))?;
        Ok(r)
    }

    /// Reads the header of the payload `w` stands at: `Some(parent)`, or
    /// `None` for a plain list. `w` is left on the copy-mask or the gap
    /// list that follows.
    fn read_parent(&self, w: &mut Window<'_, '_>) -> Result<Option<u32>> {
        if !w.read_bit()? {
            return Ok(None);
        }
        // Below `num_lists` by construction of the code, so a `u32`.
        let parent = w.read_minimal_binary(u64::from(self.num_lists()))?;
        Ok(Some(parent as u32))
    }

    /// Reads the header of payload `i`: `Some(parent)` or `None` for plain.
    fn payload_parent(&self, data: &[u8], bit_len: u64, i: u32) -> Result<Option<u32>> {
        self.read_parent(&mut self.reader_at(data, bit_len, i)?.window())
    }

    /// Decodes list `i` into `out` (cleared first): *the* list decoder,
    /// which every other entry point wraps. Once `scratch` and `out` have
    /// grown to the lists they meet, a decode allocates nothing.
    ///
    /// A plain list is γ-decoded straight into `out`. A reference-encoded
    /// one is resolved iteratively: headers are read once on the way up,
    /// to the plain list that heads the chain (selection caps a chain at
    /// [`MAX_REF_CHAIN`]), and on the way down each list is merged from the
    /// one above it, alternating between `out` and `scratch` so that the
    /// leaf lands in `out`. Nothing decoded is kept between calls.
    pub fn decode_list_into(
        &self,
        data: &[u8],
        bit_len: u64,
        i: u32,
        scratch: &mut DecodeScratch,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        out.clear();
        let mut r = self.reader_at(data, bit_len, i)?;
        let mut w = r.window();
        let Some(mut parent) = self.read_parent(&mut w)? else {
            record_chain_len(0);
            return read_bounded_gap_list_into(&mut w, self.universe, out);
        };
        // Walk up, noting where each list's copy-mask starts.
        scratch.chain.clear();
        scratch.chain.push(w.position());
        // The buffer the list above the chain goes to, and the one the
        // first merge fills from it.
        let (mut from, mut into) = (&mut scratch.merged, out);
        loop {
            r = self.reader_at(data, bit_len, parent)?;
            let mut w = r.window();
            let Some(next) = self.read_parent(&mut w)? else {
                read_bounded_gap_list_into(&mut w, self.universe, from)?;
                break;
            };
            if scratch.chain.len() as u64 >= u64::from(self.num_lists()) {
                return Err(SNodeError::Corrupt("reference cycle detected"));
            }
            scratch.chain.push(w.position());
            std::mem::swap(&mut from, &mut into);
            parent = next;
        }
        record_chain_len(scratch.chain.len() as u64);
        while let Some(mask_at) = scratch.chain.pop() {
            r.seek(mask_at)?;
            let (copied, extras) = (&mut scratch.copied, &mut scratch.extras);
            self.apply_reference(&mut r.window(), from, copied, extras, into)?;
            std::mem::swap(&mut from, &mut into);
        }
        Ok(())
    }

    /// Decodes the reference-encoded payload whose copy-mask `w` stands
    /// at into `out`: the entries of `reference` (its parent's decoded
    /// list) the mask keeps, merged with the extras that follow it.
    fn apply_reference(
        &self,
        w: &mut Window<'_, '_>,
        reference: &[u32],
        copied: &mut Vec<u32>,
        extras: &mut Vec<u32>,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        copied.clear();
        copied.reserve_exact(reference.len());
        rle::read_bitvec_set_positions(w, reference.len(), |pos| copied.push(reference[pos]))?;
        read_bounded_gap_list_into(w, self.universe, extras)?;
        merge_sorted_u32(copied, extras, self.universe, out)
    }
}

/// Reads the head of the list stream at `start` — its γ list count and
/// the bit that once announced a directory — and returns the count and
/// where the payloads start, once the count is known to fit the bits that
/// follow: every payload takes two at least (its mode bit and a γ count),
/// so a count the stream cannot hold is refused before anything is sized
/// by it.
pub(crate) fn stream_list_count(data: &[u8], bit_len: u64, start: u64) -> Result<(u64, u64)> {
    let mut r = BitReader::with_bit_len(data, bit_len);
    r.seek(start)?;
    let n = codes::read_gamma(&mut r)?;
    if n > u64::from(u32::MAX) {
        return Err(SNodeError::Corrupt("list count overflows u32"));
    }
    if bit_len > u64::from(u32::MAX) {
        return Err(SNodeError::Corrupt("encoded graph exceeds 512 MiB"));
    }
    // The bit after the count once announced a directory of payload
    // lengths, which only forward references needed; no build writes
    // either any more, and a stream that claims one is not read.
    if r.read_bit()? {
        return Err(SNodeError::Corrupt(
            "list stream carries the directory of a retired reference mode: rebuild the directory",
        ));
    }
    if n > (bit_len - r.position()) / 2 {
        return Err(SNodeError::Corrupt(
            "list count exceeds what its stream holds",
        ));
    }
    Ok((n, r.position()))
}

/// The width of a list stream's offsets: bit positions in a graph of
/// `bit_len` bits, the end included.
pub(crate) fn offset_width(bit_len: u64) -> Width {
    Width::below(bit_len + 1)
}

/// Appends the offsets of the list stream at `start` to `arena`, as a
/// section at `width` ([`offset_width`] of `bit_len`) — one per payload,
/// then the end sentinel — and returns the stream's universe, its number
/// of lists and the bit one past its last list. The payloads after list
/// `last` are not scanned: then the offsets end with the one past `last`,
/// which is also the bit returned (`u32::MAX` scans every payload).
///
/// The format stores no directory, so the offsets come from one scan over
/// every payload's structure — counts, masks, gap codes — that
/// materialises no list: a mask is as long as the parent's list, so one
/// length per list is all it keeps. The whole scan reads through one
/// [`Window`], headers and runs alike. What needs the values themselves (a
/// copied entry colliding with an extra) is checked when a list is
/// decoded. A caller that reserved room for them first sees `arena`
/// grow by exactly that; on an error it holds part of them.
pub(crate) fn scan_lists(
    data: &[u8],
    bit_len: u64,
    start: u64,
    universe: Universe,
    arena: &mut Vec<u8>,
    width: Width,
    last: u32,
) -> Result<(u64, u32, u64)> {
    let (n, payloads) = stream_list_count(data, bit_len, start)?;
    let universe = match universe {
        Universe::Explicit(u) => u,
        Universe::SameAsCount => n,
    };
    let mut r = BitReader::with_bit_len(data, bit_len);
    r.seek(payloads)?;
    let mut w = r.window();
    let scanned = n.min(u64::from(last) + 1);
    section::reserve(arena, width, scanned as usize + 1);
    let mut lens: Vec<u32> = Vec::with_capacity(scanned as usize);
    for i in 0..scanned {
        section::push(arena, width, bit_offset_u32(w.position())?);
        let reference_len = if w.read_bit()? {
            let parent = w.read_minimal_binary(n)?;
            if parent >= i {
                return Err(SNodeError::Corrupt("forward reference in list stream"));
            }
            Some(lens[parent as usize])
        } else {
            None
        };
        lens.push(scan_payload(&mut w, reference_len, universe)?);
    }
    section::push(arena, width, bit_offset_u32(w.position())?);
    // `stream_list_count` bounds the count by a `u32`.
    Ok((universe, n as u32, w.position()))
}

/// Converts an untrusted bit position into a directory offset, rejecting
/// anything past the 512 MiB single-graph bound instead of truncating.
fn bit_offset_u32(pos: u64) -> Result<u32> {
    u32::try_from(pos).map_err(|_| SNodeError::Corrupt("payload offset overflows directory bound"))
}

/// Merges two sorted `u32` slices of entries below `universe` into `out`
/// (cleared first), which grows to what a list of that universe can hold
/// and no further.
///
/// A well-formed stream never places the same value in both the copied
/// and the extra list, so a collision is reported as corruption rather
/// than silently producing a duplicate entry — and two lists that
/// together outnumber their universe must collide somewhere.
fn merge_sorted_u32(a: &[u32], b: &[u32], universe: u64, out: &mut Vec<u32>) -> Result<()> {
    let overlap = || SNodeError::Corrupt("copied and extra lists overlap");
    out.clear();
    if (a.len() + b.len()) as u64 > universe.max(1) {
        return Err(overlap());
    }
    out.reserve_exact(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            return Err(overlap());
        }
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    Ok(())
}

/// The buffers [`ListsIndex::decode_list_into`] works in besides its
/// output: owned by the caller and reused from decode to decode, so that a
/// decode allocates nothing once they have grown. None of them outgrows
/// the largest universe (the chain: the longest list stream) it has
/// decoded under, whatever the bytes claimed.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// The bit each copy-mask of the chain being resolved starts at, the
    /// leaf's first.
    pub(crate) chain: Vec<u64>,
    /// The entries a copy-mask keeps of the list above.
    pub(crate) copied: Vec<u32>,
    /// The extras of one reference-encoded list.
    pub(crate) extras: Vec<u32>,
    /// Every other list of a chain, the leaf's parent first (the rest are
    /// built in the caller's output buffer).
    pub(crate) merged: Vec<u32>,
}

#[cfg(test)]
impl DecodeScratch {
    /// Whatever the bytes it decoded claimed, no buffer — `out`, the
    /// caller's, included — has grown past what a list over `universe` can
    /// hold (a `Vec` takes four entries at its first push), nor the chain
    /// past a stream of `lists` lists (pushed one by one, so doubling).
    pub(crate) fn assert_bounded(&self, out: &Vec<u32>, universe: u64, lists: u64) {
        let entries = [out, &self.copied, &self.extras, &self.merged];
        for (which, buffer) in entries.into_iter().enumerate() {
            let (cap, most) = (buffer.capacity() as u64, universe.max(4));
            assert!(cap <= most, "buffer {which}: {cap} entries over {most}");
        }
        let (cap, most) = (self.chain.capacity() as u64, (2 * lists).max(4));
        assert!(cap <= most, "chain: {cap} entries for {lists} lists");
    }
}

// --- Cost model ----------------------------------------------------------

/// Cost in bits of a plain payload for `list` (excluding the directory).
pub(crate) fn plain_cost(list: &[u32], universe: u64) -> u64 {
    1 + bounded_gap_list_len(list, universe)
}

/// A floor under [`plan_lists`]' `total_bits` for a stream of lists whose
/// [`plain_cost`]s are `plain`, in any [`RefMode`]: the stream header, and
/// for every list the cheaper of its plain payload and the smallest
/// payload a reference can have — mode bit, the shortest parent codeword,
/// a one-bit mask, an empty extras list. One pass over the costs where
/// reference selection makes a window of probes per list, so a caller
/// with another price in hand can tell that selection is not worth running.
pub(crate) fn stream_bits_floor(plain: impl ExactSizeIterator<Item = u64>) -> u64 {
    let n = plain.len() as u64;
    let reference = match n {
        0 | 1 => u64::MAX, // nothing to refer to
        _ => 1 + codes::minimal_binary_len(0, n) + 1 + codes::gamma_len(0),
    };
    codes::gamma_len(n) + 1 + plain.map(|p| p.min(reference)).sum::<u64>()
}

/// Bits of the parent field of a reference payload, as selection prices
/// it: the ⌈log₂ n⌉ of the longest minimal-binary codeword.
fn parent_field_bits(n_lists: u64) -> u64 {
    if n_lists <= 1 {
        0
    } else {
        u64::from(64 - (n_lists - 1).leading_zeros())
    }
}

/// The size of a copy-mask's run-length form ([`rle::rle_len`]), fed a run
/// at a time.
struct MaskRuns {
    /// The first-value bit and every run that has ended.
    bits: u64,
    /// The run that has not: its value and length (0 before the first).
    value: bool,
    len: u64,
}

impl MaskRuns {
    fn new() -> Self {
        Self {
            bits: 1,
            value: false,
            len: 0,
        }
    }

    /// `count` more mask bits of `value`.
    #[inline]
    fn run_of(&mut self, value: bool, count: u64) {
        if count == 0 {
            return;
        }
        if self.len > 0 && value != self.value {
            self.bits += codes::gamma_len(self.len - 1);
            self.len = 0;
        }
        self.value = value;
        self.len += count;
    }

    /// The form's size once the mask has ended.
    fn finish(self) -> u64 {
        match self.len {
            0 => self.bits,
            len => self.bits + codes::gamma_len(len - 1),
        }
    }
}

/// Cost in bits of encoding `target` referencing `reference`, if that is
/// `bound` or less and the two share an entry; `None` otherwise.
///
/// A candidate that shares nothing can never be selected: its extras are
/// the whole of `target`, so it costs [`plain_cost`] plus the parent field
/// and the mask, and selection demands a cost strictly below plain.
///
/// One pass over the two lists that writes neither mask nor extras: the
/// mask's runs and the extras' gaps are priced as the merge finds them,
/// and since neither sum ever falls, the pass ends at the first entry
/// that takes them past `bound`. This is the one function selection
/// prices a candidate with.
fn ref_cost_within(
    reference: &[u32],
    target: &[u32],
    n_lists: u64,
    universe: u64,
    bound: u64,
) -> Option<u64> {
    // Mode bit, parent field, the mask's form bit.
    let fixed = 1 + parent_field_bits(n_lists) + 1;
    let literal = reference.len() as u64;
    let mut runs = MaskRuns::new();
    let (mut extras, mut extra_bits) = (0u64, 0u64);
    let mut prev_extra: Option<u32> = None;
    let mut shared = false;
    let mut ri = 0usize;
    for &t in target {
        let skipped_from = ri;
        while ri < reference.len() && reference[ri] < t {
            ri += 1;
        }
        runs.run_of(false, (ri - skipped_from) as u64);
        if ri < reference.len() && reference[ri] == t {
            runs.run_of(true, 1);
            ri += 1;
            shared = true;
        } else {
            extra_bits += match prev_extra {
                None => codes::minimal_binary_len(u64::from(t), universe.max(1)),
                Some(p) => codes::gamma_len(u64::from(t - p - 1)),
            };
            prev_extra = Some(t);
            extras += 1;
        }
        if fixed + runs.bits.min(literal) + codes::gamma_len(extras) + extra_bits > bound {
            return None;
        }
    }
    runs.run_of(false, (reference.len() - ri) as u64);
    let cost = fixed + runs.finish().min(literal) + codes::gamma_len(extras) + extra_bits;
    (shared && cost <= bound).then_some(cost)
}

/// Copy-mask and extras of one list against another, as the writer
/// materialises them for the parent selection chose.
#[derive(Default)]
struct DiffScratch {
    mask: Vec<bool>,
    extras: Vec<u32>,
}

/// Splits `target` into a copy bit vector over `reference` and the extras,
/// both written over `out`'s previous contents.
fn diff_into(reference: &[u32], target: &[u32], out: &mut DiffScratch) {
    out.mask.clear();
    out.mask.resize(reference.len(), false);
    out.extras.clear();
    let mut ri = 0usize;
    for &t in target {
        while ri < reference.len() && reference[ri] < t {
            ri += 1;
        }
        if ri < reference.len() && reference[ri] == t {
            out.mask[ri] = true;
            ri += 1;
        } else {
            out.extras.push(t);
        }
    }
}

/// Size in bits of [`write_bounded_gap_list`]'s output.
pub(crate) fn bounded_gap_list_len(list: &[u32], universe: u64) -> u64 {
    let mut total = codes::gamma_len(list.len() as u64);
    let mut prev: Option<u32> = None;
    for &x in list {
        total += match prev {
            None => codes::minimal_binary_len(u64::from(x), universe.max(1)),
            Some(p) => codes::gamma_len(u64::from(x - p - 1)),
        };
        prev = Some(x);
    }
    total
}

/// A gap list: γ(len), then the first element minimal-binary coded over
/// the known universe (γ would spend ~2·log₂ bits on it) and every later
/// one as the γ-coded gap from its predecessor.
pub(crate) fn write_bounded_gap_list(w: &mut BitWriter, list: &[u32], universe: u64) {
    codes::write_gamma(w, list.len() as u64);
    let mut prev: Option<u32> = None;
    for &x in list {
        match prev {
            None => codes::write_minimal_binary(w, u64::from(x), universe.max(1)),
            Some(p) => {
                assert!(x > p, "gap list must be strictly ascending");
                codes::write_gamma(w, u64::from(x - p - 1));
            }
        }
        prev = Some(x);
    }
}

/// Reads up to `count` ascending entries (first minimal-binary, then
/// gaps, all from one window) and hands each to `sink`, which returns
/// whether to read on: one that returns `false` leaves the window after
/// the entry it was handed, and the rest of the list unread. Every entry
/// read must lie inside the universe.
fn read_ascending_entries(
    w: &mut Window<'_, '_>,
    count: u64,
    universe: u64,
    mut sink: impl FnMut(u32) -> bool,
) -> Result<()> {
    if count == 0 {
        return Ok(());
    }
    let bound = universe.max(1);
    let mut entry = |x: u64| {
        if x >= bound {
            return Err(SNodeError::Corrupt("list entry outside its universe"));
        }
        let x32 = u32::try_from(x).map_err(|_| SNodeError::Corrupt("list entry overflows u32"))?;
        Ok(sink(x32))
    };
    let mut prev = w.read_minimal_binary(bound)?;
    if !entry(prev)? {
        return Ok(());
    }
    for _ in 1..count {
        let gap = w.read_gamma()?;
        let x = (gap.checked_add(prev + 1)).ok_or(SNodeError::Corrupt("gap overflow"))?;
        if !entry(x)? {
            return Ok(());
        }
        prev = x;
    }
    Ok(())
}

/// Reads the γ-coded length of a gap list over `universe`. A strictly
/// ascending list inside `0..universe` has no more entries than that, and
/// every entry past the first takes a bit at least: a larger count is
/// refused here, before anything is sized by it.
fn read_list_count(w: &mut Window<'_, '_>, universe: u64) -> Result<u64> {
    let count = w.read_gamma()?;
    if count > universe.max(1) {
        return Err(SNodeError::Corrupt("list count exceeds its universe"));
    }
    if count > w.remaining() + 1 {
        return Err(SNodeError::Corrupt("list count exceeds what its bits hold"));
    }
    Ok(count)
}

/// Reads a list written by [`write_bounded_gap_list`] into `out` (cleared
/// first), which grows to the list's length at most.
pub(crate) fn read_bounded_gap_list_into(
    w: &mut Window<'_, '_>,
    universe: u64,
    out: &mut Vec<u32>,
) -> Result<()> {
    out.clear();
    let count = read_list_count(w, universe)?;
    out.reserve_exact(count as usize);
    read_ascending_entries(w, count, universe, |x| {
        out.push(x);
        true
    })
}

/// Reads a list written by [`write_bounded_gap_list`] onto the end of
/// `out`, with every check of [`read_bounded_gap_list_into`]. What it
/// appended before an error stays for the caller to cut off.
pub(crate) fn append_bounded_gap_list(
    w: &mut Window<'_, '_>,
    universe: u64,
    out: &mut Vec<u32>,
) -> Result<()> {
    let count = read_list_count(w, universe)?;
    out.reserve(count as usize);
    read_ascending_entries(w, count, universe, |x| {
        out.push(x);
        true
    })
}

/// Reads a list written by [`write_bounded_gap_list`], with every check
/// of [`read_bounded_gap_list_into`] on what it reads, handing each entry
/// to `sink` until it returns `false`: the entries after that one are
/// left unread.
pub(crate) fn read_gap_list_while(
    w: &mut Window<'_, '_>,
    universe: u64,
    sink: impl FnMut(u32) -> bool,
) -> Result<()> {
    let count = read_list_count(w, universe)?;
    read_ascending_entries(w, count, universe, sink)
}

/// The entry of a list written by [`write_bounded_gap_list`] if it holds
/// exactly one, read with every check of [`read_bounded_gap_list_into`];
/// `None`, its entries unread, for a list of any other length.
pub(crate) fn read_sole_entry(w: &mut Window<'_, '_>, universe: u64) -> Result<Option<u32>> {
    if read_list_count(w, universe)? != 1 {
        return Ok(None);
    }
    let mut entry = None;
    read_ascending_entries(w, 1, universe, |x| {
        entry = Some(x);
        true
    })?;
    Ok(entry)
}

/// [`append_bounded_gap_list`] onto `arena` as a section at `width` (which
/// holds `universe`); returns its length.
pub(crate) fn append_gap_section(
    w: &mut Window<'_, '_>,
    universe: u64,
    arena: &mut Vec<u8>,
    width: Width,
) -> Result<u32> {
    let count = read_list_count(w, universe)?;
    section::reserve(arena, width, count as usize);
    read_ascending_entries(w, count, universe, |x| {
        section::push(arena, width, x);
        true
    })?;
    // Distinct entries below a `u32` universe.
    Ok(count as u32)
}

/// Walks the rest of one payload — after its mode bit and parent field —
/// with every check of the decoder that needs no second list to compare
/// with, building nothing. Returns the length of the list it encodes: the
/// set bits of its copy-mask over the parent's `reference_len` entries, if
/// it has a parent, plus its extras.
fn scan_payload(w: &mut Window<'_, '_>, reference_len: Option<u32>, universe: u64) -> Result<u32> {
    let copied = match reference_len {
        Some(m) => rle::count_bitvec_ones(w, m as usize)?,
        None => 0,
    };
    let extras = read_list_count(w, universe)?;
    read_ascending_entries(w, extras, universe, |_| true)?;
    u32::try_from(copied + extras).map_err(|_| SNodeError::Corrupt("list length overflows u32"))
}

// --- Reference selection --------------------------------------------------

/// What reference selection decides for a list collection.
struct Selection {
    /// The reference chosen per list (`None` = plain).
    parents: Vec<Option<u32>>,
    /// What selection priced each list's payload at: its [`plain_cost`],
    /// or the cost of the reference chosen with the parent field at its
    /// longest ([`parent_field_bits`]) — the price the choice was made on,
    /// kept so that nothing has to be diffed again to size the stream.
    priced: Vec<u64>,
}

/// Chooses a parent (reference list) for each list, or `None` for plain:
/// the cheapest of the `w` lists before it whose chain has room, if that
/// beats plain. Restricted to backward edges the affinity graph is
/// acyclic, so this per-list minimum *is* its minimum arborescence.
fn choose_references(lists: FlatLists<'_>, universe: u64, mode: RefMode) -> Selection {
    let n = lists.len();
    let mut priced: Vec<u64> = lists.iter().map(|l| plain_cost(l, universe)).collect();
    let mut parents = vec![None; n];
    match mode {
        RefMode::None => {}
        RefMode::Windowed(w) => {
            let w = w.max(1) as usize;
            let summaries: Vec<ListSummary> = lists.iter().map(ListSummary::of).collect();
            let mut depth = vec![0u32; n];
            for y in 0..n {
                let target = lists.get(y);
                if target.is_empty() {
                    continue; // plain empty list is 2 bits; nothing beats it
                }
                // Nearest candidate first: near lists are the most alike,
                // so the bound the farther ones are priced under falls
                // early. A reference must cost less than plain, and of two
                // that cost the same the lower index wins — a later probe
                // that ties the best replaces it — so the parent is the
                // one an ascending walk keeping each strictly cheaper
                // candidate ends on.
                let mut best = priced[y] - 1;
                for x in (y.saturating_sub(w)..y).rev() {
                    if depth[x] >= MAX_REF_CHAIN || !summaries[x].may_share(&summaries[y]) {
                        continue;
                    }
                    let c = ref_cost_within(lists.get(x), target, n as u64, universe, best);
                    if let Some(c) = c {
                        best = c;
                        parents[y] = Some(x as u32);
                    }
                }
                if let Some(p) = parents[y] {
                    depth[y] = depth[p as usize] + 1;
                    priced[y] = best;
                }
            }
        }
    }
    Selection { parents, priced }
}

/// What selection reads off a list before pricing it against another:
/// two lists share an entry only if their ranges overlap and some residue
/// mod 64 occurs in both. (An empty list has no residue and shares
/// nothing.)
#[derive(Clone, Copy)]
struct ListSummary {
    first: u32,
    last: u32,
    /// Bit `r` is set iff some entry is `r` mod 64.
    residues: u64,
}

impl ListSummary {
    fn of(list: &[u32]) -> Self {
        Self {
            first: list.first().copied().unwrap_or(0),
            last: list.last().copied().unwrap_or(0),
            residues: list.iter().fold(0, |set, &x| set | 1 << (x % 64)),
        }
    }

    /// `false` only if the two lists share no entry.
    #[inline]
    fn may_share(&self, other: &Self) -> bool {
        self.residues & other.residues != 0 && self.first <= other.last && other.first <= self.last
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn round_trip(lists: &[Vec<u32>], universe: u64, mode: RefMode) -> EncodedLists {
        let enc = encode_lists(lists, universe, mode, ListCodec);
        let (data, bits) = (&enc.bytes[..], enc.bit_len);
        let index = ListsIndex::parse_at(data, bits, 0, Universe::Explicit(universe)).unwrap();
        assert_eq!(index.num_lists(), lists.len() as u32);
        assert_eq!(index.universe(), universe);
        // decode_all
        let all = index.decode_all(data, bits).unwrap();
        assert_eq!(all.len(), lists.len());
        for (got, want) in all.iter().zip(lists) {
            assert_eq!(got, want);
        }
        // random access, reversed order
        for i in (0..lists.len() as u32).rev() {
            assert_eq!(index.decode_list(data, bits, i).unwrap(), lists[i as usize]);
        }
        enc
    }

    /// Pseudorandom sorted lists with a mix of dense runs and scattered
    /// entries.
    fn synth_lists(seed: u64, num: usize, universe: u64) -> Vec<Vec<u32>> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            s >> 33
        };
        (0..num)
            .map(|_| {
                let mut l: Vec<u32> = Vec::new();
                for _ in 0..(next() % 6) {
                    // A consecutive run...
                    let start = (next() % universe.max(1)) as u32;
                    let run = (next() % 9) as u32;
                    for v in start..start.saturating_add(run) {
                        if u64::from(v) < universe {
                            l.push(v);
                        }
                    }
                    // ...and some scatter.
                    for _ in 0..(next() % 5) {
                        l.push((next() % universe.max(1)) as u32);
                    }
                }
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect()
    }

    fn modes() -> [RefMode; 4] {
        [
            RefMode::None,
            RefMode::Windowed(1),
            RefMode::Windowed(8),
            RefMode::Windowed(u32::MAX),
        ]
    }

    #[test]
    fn empty_collection() {
        for mode in modes() {
            round_trip(&[], 10, mode);
        }
    }

    #[test]
    fn empty_and_singleton_lists() {
        let lists = vec![vec![], vec![3], vec![], vec![0, 9]];
        for mode in modes() {
            round_trip(&lists, 10, mode);
        }
    }

    #[test]
    fn similar_lists_get_referenced_and_shrink() {
        // 20 lists, each sharing ~90% of a common base.
        let base: Vec<u32> = (0..50).map(|i| i * 7 % 400).collect::<Vec<_>>();
        let mut base = base;
        base.sort_unstable();
        base.dedup();
        let lists: Vec<Vec<u32>> = (0..20u32)
            .map(|i| {
                let mut l = base.clone();
                l.retain(|&x| x % 19 != i % 19);
                l.push(390 + i);
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        let plain = round_trip(&lists, 512, RefMode::None);
        let windowed = round_trip(&lists, 512, RefMode::Windowed(8));
        let all = round_trip(&lists, 512, RefMode::Windowed(u32::MAX));
        for (name, enc) in [("window 8", &windowed), ("window all", &all)] {
            assert!(
                enc.bit_len < plain.bit_len * 6 / 10,
                "{name} ({}) should be well under plain ({})",
                enc.bit_len,
                plain.bit_len
            );
        }
    }

    #[test]
    fn dissimilar_lists_stay_plain_sized() {
        let lists: Vec<Vec<u32>> = (0..10u32)
            .map(|i| (0..8).map(|j| (i * 97 + j * 13) % 1000).collect::<Vec<_>>())
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        let plain = round_trip(&lists, 1000, RefMode::None);
        let windowed = round_trip(&lists, 1000, RefMode::Windowed(8));
        // Reference encoding must never be (much) worse than plain; the
        // directory and mode bits are identical, so sizes should be close.
        assert!(windowed.bit_len <= plain.bit_len);
    }

    #[test]
    fn identical_lists_compress_to_near_nothing() {
        let base: Vec<u32> = (10..40).collect();
        let lists = vec![base.clone(); 30];
        let enc = round_trip(&lists, 64, RefMode::Windowed(4));
        let plain = encode_lists(&lists, 64, RefMode::None, ListCodec);
        // Each referenced copy costs ~18 bits (mode + parent + RLE'd all-ones
        // mask + empty extras) vs ~55 plain, but the per-list directory entry
        // is shared overhead — net ≈ 2x, not the asymptotic |list| ratio.
        assert!(
            enc.bit_len < plain.bit_len * 3 / 5,
            "30 identical lists must shrink well below plain: {} vs {}",
            enc.bit_len,
            plain.bit_len
        );
    }

    #[test]
    fn window_all_chains_through_the_best_backward_reference() {
        // l1 = l0 + an entry; l2 = l1 + an entry, stored out of that order.
        let l0: Vec<u32> = (0..30).map(|i| i * 3).collect();
        let mut l1 = l0.clone();
        l1.push(91);
        l1.sort_unstable();
        let mut l2 = l1.clone();
        l2.push(92);
        l2.sort_unstable();
        let lists = vec![l2.clone(), l0.clone(), l1.clone()];
        let enc = round_trip(&lists, 100, RefMode::Windowed(u32::MAX));
        let index =
            ListsIndex::parse_at(&enc.bytes, enc.bit_len, 0, Universe::Explicit(100)).unwrap();
        // Only backward: l0 is coded against l2, and so is l1 — an entry
        // dropped is a mask run, an entry added (against l0) an extra.
        assert_eq!(
            index.reference_parents(&enc.bytes, enc.bit_len).unwrap(),
            [None, Some(0), Some(0)]
        );
    }

    #[test]
    fn single_list_truncation_is_detected() {
        let lists = vec![vec![1u32, 5, 9]];
        let enc = encode_lists(&lists, 10, RefMode::None, ListCodec);
        for cut in 1..enc.bit_len {
            match ListsIndex::parse_at(&enc.bytes, cut, 0, Universe::Explicit(10)) {
                Err(_) => {}
                Ok(index) => {
                    // Header may parse; decoding must fail or return the
                    // original (never panic, never wrong data silently — a
                    // cut inside the final gamma code of the payload can
                    // only produce an error because lengths are encoded).
                    let _ = index.decode_list(&enc.bytes, cut, 0);
                }
            }
        }
    }

    #[test]
    fn synthetic_lists_round_trip_in_every_mode() {
        let universe = 700u64;
        let lists = synth_lists(0xAB1E, 40, universe);
        for mode in modes() {
            round_trip(&lists, universe, mode);
        }
    }

    #[test]
    fn stream_truncation_and_bit_flips_never_panic() {
        let universe = 300u64;
        let lists = synth_lists(0x5EED, 12, universe);
        let enc = encode_lists(&lists, universe, RefMode::Windowed(4), ListCodec);
        // Truncation at every bit boundary.
        for cut in 0..enc.bit_len {
            if let Ok(index) =
                ListsIndex::parse_at(&enc.bytes, cut, 0, Universe::Explicit(universe))
            {
                for i in 0..index.num_lists() {
                    let _ = index.decode_list(&enc.bytes, cut, i);
                }
            }
        }
        // Single-bit flips: decode either errors or yields sorted lists —
        // never a panic, never an out-of-order list.
        for flip in 0..enc.bit_len.min(512) {
            let mut bytes = enc.bytes.clone();
            bytes[(flip / 8) as usize] ^= 0x80 >> (flip % 8);
            let universe = Universe::Explicit(universe);
            if let Ok(index) = ListsIndex::parse_at(&bytes, enc.bit_len, 0, universe) {
                for i in 0..index.num_lists() {
                    if let Ok(l) = index.decode_list(&bytes, enc.bit_len, i) {
                        assert!(l.windows(2).all(|p| p[0] < p[1]), "flip={flip} list={i}");
                    }
                }
            }
        }
    }

    /// Reference model for [`ref_cost_within`]: every candidate priced in
    /// full, from a mask and extras built fresh by membership tests, not by
    /// a merge.
    fn ref_cost_model(reference: &[u32], target: &[u32], n_lists: u64, universe: u64) -> u64 {
        let mask: Vec<bool> = reference
            .iter()
            .map(|r| target.binary_search(r).is_ok())
            .collect();
        let extras: Vec<u32> = target
            .iter()
            .copied()
            .filter(|t| reference.binary_search(t).is_err())
            .collect();
        let parent_bits = (0..64).find(|&b| n_lists <= 1 << b).unwrap_or(64);
        1 + parent_bits + rle::encoded_len(&mask) + bounded_gap_list_len(&extras, universe)
    }

    /// Reference model for [`choose_references`]: an ascending walk over
    /// the window that prices every candidate in full with
    /// [`ref_cost_model`].
    fn choose_references_model(
        lists: &[Vec<u32>],
        universe: u64,
        mode: RefMode,
    ) -> (Vec<Option<u32>>, Vec<u64>) {
        let n = lists.len();
        let cost = |x: usize, y: usize| ref_cost_model(&lists[x], &lists[y], n as u64, universe);
        let parents: Vec<Option<u32>> = match mode {
            RefMode::None => vec![None; n],
            RefMode::Windowed(w) => {
                let mut parents = vec![None; n];
                let mut depth = vec![0u32; n];
                for y in (0..n).filter(|&y| !lists[y].is_empty()) {
                    let mut best = plain_cost(&lists[y], universe);
                    for x in y.saturating_sub(w.max(1) as usize)..y {
                        if !lists[x].is_empty() && depth[x] < MAX_REF_CHAIN && cost(x, y) < best {
                            best = cost(x, y);
                            parents[y] = Some(x as u32);
                        }
                    }
                    if let Some(p) = parents[y] {
                        depth[y] = depth[p as usize] + 1;
                    }
                }
                parents
            }
        };
        // What the choice was priced at: plain, or against the parent.
        let priced = (0..n)
            .map(|y| match parents[y] {
                None => plain_cost(&lists[y], universe),
                Some(p) => cost(p as usize, y),
            })
            .collect();
        (parents, priced)
    }

    /// Lists drawn with repeats from a small pool, so that a window holds
    /// several candidates of one cost, a few of them with an entry changed.
    fn tied_lists(seed: u64, num: usize, universe: u64) -> Vec<Vec<u32>> {
        let pool = synth_lists(seed, 7, universe);
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            s >> 33
        };
        (0..num)
            .map(|_| {
                let mut l = pool[(next() % 7) as usize].clone();
                if next() % 4 == 0 {
                    l.push((next() % universe) as u32);
                    l.sort_unstable();
                    l.dedup();
                }
                l
            })
            .collect()
    }

    /// Every list its predecessor plus one entry: the nearest candidate is
    /// the cheapest, until its chain is [`MAX_REF_CHAIN`] long.
    fn chained_lists(num: usize) -> Vec<Vec<u32>> {
        (0..num)
            .map(|i| (0..=(i % 40) as u32).map(|j| j * 5).collect())
            .collect()
    }

    #[test]
    fn selection_matches_the_reference_model() {
        let modes = [
            RefMode::None,
            RefMode::Windowed(1),
            RefMode::Windowed(8),
            RefMode::Windowed(32),
            RefMode::Windowed(256),
            RefMode::Windowed(u32::MAX),
        ];
        let cases = [
            (synth_lists(3, 300, 40), 40u64),
            (synth_lists(11, 300, 400), 400),
            (tied_lists(5, 300, 90), 90),
            (tied_lists(6, 300, 4000), 4000),
            (chained_lists(300), 200),
        ];
        for (case, (lists, universe)) in cases.iter().enumerate() {
            for mode in modes {
                let want = choose_references_model(lists, *universe, mode);
                let flat = ListBuf::from_nested(lists);
                let got = choose_references(flat.view(), *universe, mode);
                assert_eq!((got.parents, got.priced), want, "case {case} {mode:?}");
            }
        }
        // The cases are what they are for: candidates tie, and chains
        // reach the cap and stop there.
        let chained = ListBuf::from_nested(&cases[4].0);
        let parents = choose_references(chained.view(), 200, RefMode::Windowed(8)).parents;
        let mut depth = vec![0u32; parents.len()];
        for (y, p) in parents.iter().enumerate() {
            depth[y] = p.map_or(0, |p| depth[p as usize] + 1);
        }
        assert_eq!(depth.iter().max(), Some(&MAX_REF_CHAIN));
        assert!(depth.iter().filter(|&&d| d == MAX_REF_CHAIN).count() > 20);
        let tied = &cases[2].0;
        let ties = (8..tied.len())
            .filter(|&y| (y - 8..y).filter(|&x| tied[x] == tied[y]).count() >= 2)
            .count();
        assert!(ties > 50, "{ties} lists with two copies in their window");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn probe_cost_matches_the_reference_model(
            reference in proptest::collection::btree_set(0u32..90, 0..24),
            target in proptest::collection::btree_set(0u32..90, 0..24),
            dense in proptest::any::<bool>(),
            n_lists in 1u64..600,
            which_bound in 0u8..6,
            random_bound in 0u64..200,
        ) {
            let universe = if dense { 90 } else { 5000 };
            let reference: Vec<u32> = reference.into_iter().collect();
            let target: Vec<u32> = target.into_iter().collect();
            let intersect = target.iter().any(|t| reference.binary_search(t).is_ok());
            let model = ref_cost_model(&reference, &target, n_lists, universe);
            let plain = plain_cost(&target, universe);
            let bound = match which_bound {
                0 => 0,
                1 => plain - 1,
                2 => u64::MAX,
                3 => model,
                4 => model - 1,
                _ => random_bound,
            };
            let got = ref_cost_within(&reference, &target, n_lists, universe, bound);
            let want = (intersect && model <= bound).then_some(model);
            proptest::prop_assert_eq!(got, want, "bound {}", bound);
            if !intersect {
                proptest::prop_assert!(model >= plain);
            }
            // The summaries never rule out a pair that shares an entry.
            let may_share = ListSummary::of(&reference).may_share(&ListSummary::of(&target));
            proptest::prop_assert!(may_share || !intersect);
            // And the diff the writer materialises, over whatever its
            // scratch held, is the payload that was priced.
            let mut diff = DiffScratch::default();
            diff_into(&target, &reference, &mut diff);
            diff_into(&reference, &target, &mut diff);
            let written = 1
                + parent_field_bits(n_lists)
                + rle::encoded_len(&diff.mask)
                + bounded_gap_list_len(&diff.extras, universe);
            proptest::prop_assert_eq!(written, model);
        }
    }

    /// Reference model for [`ListsIndex::parse`]: the loader this crate
    /// used before the offsets-only scan. It decodes every list of a
    /// stream in order — reference lists merged and kept — and notes
    /// where each payload started.
    fn materialising_offsets(
        data: &[u8],
        bit_len: u64,
        universe: u64,
    ) -> Result<(Vec<u32>, Vec<Vec<u32>>)> {
        let mut r = BitReader::with_bit_len(data, bit_len);
        let n = codes::read_gamma(&mut r)?;
        assert!(!r.read_bit()?, "no build sets the retired directory bit");
        let mut offsets = Vec::new();
        let mut lists: Vec<Vec<u32>> = Vec::new();
        for i in 0..n {
            offsets.push(bit_offset_u32(r.position())?);
            let mut list = Vec::new();
            if r.read_bit()? {
                let parent = codes::read_minimal_binary(&mut r, n)? as usize;
                if parent >= i as usize {
                    return Err(SNodeError::Corrupt("model: forward reference"));
                }
                let reference = &lists[parent];
                let mut copied = Vec::new();
                rle::read_bitvec_set_positions(&mut r.window(), reference.len(), |pos| {
                    copied.push(reference[pos]);
                })?;
                let mut extras = Vec::new();
                read_bounded_gap_list_into(&mut r.window(), universe, &mut extras)?;
                merge_sorted_u32(&copied, &extras, universe, &mut list)?;
            } else {
                read_bounded_gap_list_into(&mut r.window(), universe, &mut list)?;
            }
            lists.push(list);
        }
        offsets.push(bit_offset_u32(r.position())?);
        Ok((offsets, lists))
    }

    #[test]
    fn scan_offsets_match_the_materialising_decoder() {
        let universe = 600u64;
        let lists = synth_lists(0x0FF5E7, 48, universe);
        for mode in [
            RefMode::None,
            RefMode::Windowed(8),
            RefMode::Windowed(u32::MAX),
        ] {
            let enc = encode_lists(&lists, universe, mode, ListCodec);
            let index =
                ListsIndex::parse_at(&enc.bytes, enc.bit_len, 0, Universe::Explicit(universe))
                    .unwrap();
            assert_eq!(index.end_bit(), enc.bit_len, "{mode:?}");
            assert_eq!(
                index.decode_all(&enc.bytes, enc.bit_len).unwrap(),
                lists,
                "{mode:?}"
            );
            let (offsets, decoded) =
                materialising_offsets(&enc.bytes, enc.bit_len, universe).unwrap();
            assert_eq!(
                index.offsets.view().iter().collect::<Vec<_>>(),
                offsets,
                "{mode:?}"
            );
            assert_eq!(decoded, lists);
        }
    }

    /// Offsets are stored at the width the graph's bit length needs, and
    /// on both sides of 2⁸ and 2¹⁶ bits — four bytes an offset past the
    /// second — they are the `u32` model's and decode the lists that went
    /// in.
    #[test]
    fn offsets_at_every_width_are_the_u32_models() {
        let mut widths = std::collections::BTreeSet::new();
        let mut check = |lists: &[Vec<u32>], mode: RefMode| {
            let n = lists.len() as u64;
            let enc = encode_lists(lists, n, mode, ListCodec);
            let index =
                ListsIndex::parse(&enc.bytes, enc.bit_len, Universe::SameAsCount, ListCodec);
            let index = index.unwrap();
            let width = index.offsets.width();
            assert_eq!(width, offset_width(enc.bit_len), "{} bits", enc.bit_len);
            widths.insert(width);
            let (offsets, decoded) = materialising_offsets(&enc.bytes, enc.bit_len, n).unwrap();
            assert!(index.offsets.view().iter().eq(offsets.iter().copied()));
            assert_eq!(index.heap_bytes(), offsets.len() * width.bytes());
            assert_eq!(decoded, lists);
            assert_eq!(index.decode_all(&enc.bytes, enc.bit_len).unwrap(), lists);
        };
        // An empty list takes two bits: 115–126 of them straddle 256 bits
        // of intranode graph, 32 747–32 758 straddle 65 536.
        for n in (115..127).chain(32_747..32_759) {
            check(&vec![Vec::new(); n], RefMode::None);
        }
        check(&synth_lists(7, 3_000, 3_000), RefMode::Windowed(8));
        let widths: Vec<Width> = widths.into_iter().collect();
        assert_eq!(widths, [Width::One, Width::Two, Width::Four]);
    }

    /// What the writer of the deleted all-pairs selection produced for
    /// `lists` with the given parents, forward ones among them: the
    /// directory bit set, a γ length per payload, then the payloads.
    pub(crate) fn retired_directory_stream(
        w: &mut BitWriter,
        lists: &[Vec<u32>],
        parents: &[Option<u32>],
        universe: u64,
    ) {
        let n = lists.len() as u64;
        let payloads: Vec<(Vec<u8>, u64)> = (lists.iter().zip(parents))
            .map(|(list, parent)| {
                let mut p = BitWriter::new();
                p.write_bit(parent.is_some());
                let mut diff = DiffScratch::default();
                let extras = match parent {
                    None => list,
                    Some(x) => {
                        codes::write_minimal_binary(&mut p, u64::from(*x), n);
                        diff_into(&lists[*x as usize], list, &mut diff);
                        rle::write_bitvec(&mut p, &diff.mask);
                        &diff.extras
                    }
                };
                write_bounded_gap_list(&mut p, extras, universe);
                p.finish()
            })
            .collect();
        codes::write_gamma(w, n);
        w.write_bit(true);
        for (_, bits) in &payloads {
            codes::write_gamma(w, *bits);
        }
        for (bytes, bits) in &payloads {
            w.append(bytes, *bits);
        }
    }

    pub(crate) fn is_retired_form(e: &SNodeError) -> bool {
        matches!(e, SNodeError::Corrupt(m) if m.contains("retired reference mode: rebuild"))
    }

    /// The directory bit is still read, and refused: in a well-formed
    /// stream of the retired form, and after a count — of one list, of 2³¹
    /// — with nothing behind it, where a reader that sized or scanned
    /// anything first would report the stream's end instead.
    #[test]
    fn a_stream_with_the_directory_bit_set_is_a_retired_form() {
        let lists = vec![vec![1u32, 4, 7], vec![1, 4, 7, 9], vec![2]];
        let mut w = BitWriter::new();
        retired_directory_stream(&mut w, &lists, &[Some(1), None, None], 10);
        let (bytes, bit_len) = w.finish();
        for universe in [Universe::Explicit(10), Universe::SameAsCount] {
            let got = ListsIndex::parse_at(&bytes, bit_len, 0, universe);
            assert!(got.as_ref().is_err_and(is_retired_form), "{got:?}");
            let got = ListsIndex::load(&bytes, bit_len, universe);
            assert!(got.as_ref().is_err_and(is_retired_form), "{got:?}");
        }
        // The same lists as today's writer stores them are read.
        let enc = encode_lists(&lists, 10, RefMode::Windowed(2), ListCodec);
        let (_, back) = ListsIndex::load(&enc.bytes, enc.bit_len, Universe::Explicit(10)).unwrap();
        assert_eq!(back, lists);

        for count in [1u64, 1 << 31] {
            let mut w = BitWriter::new();
            codes::write_gamma(&mut w, count);
            w.write_bit(true);
            let (bytes, bit_len) = w.finish();
            let got = ListsIndex::parse_at(&bytes, bit_len, 0, Universe::SameAsCount);
            assert!(got.as_ref().is_err_and(is_retired_form), "{count}: {got:?}");
        }
    }

    /// What a scan of damaged bytes may do: refuse them, or hand back a
    /// directory no larger than the stream could hold and from which every
    /// list decodes or fails cleanly.
    fn scan_then_decode_everything(data: &[u8], bit_len: u64, universe: Universe) {
        let Ok(index) = ListsIndex::parse_at(data, bit_len, 0, universe) else {
            return;
        };
        assert!(
            u64::from(index.num_lists()) <= bit_len,
            "every list costs the stream at least a bit"
        );
        assert_eq!(index.offsets.len(), index.num_lists() as usize + 1);
        assert!(index.offsets.view().iter().all(|o| u64::from(o) <= bit_len));
        // One set of buffers for the whole directory, as a handle keeps.
        let (mut scratch, mut list) = (DecodeScratch::default(), Vec::new());
        for i in 0..index.num_lists() {
            let decoded = index.decode_list_into(data, bit_len, i, &mut scratch, &mut list);
            if decoded.is_ok() {
                assert!(
                    list.windows(2).all(|p| p[0] < p[1]),
                    "list {i} out of order"
                );
                assert!(list.iter().all(|&x| u64::from(x) < index.universe().max(1)));
            }
        }
        scratch.assert_bounded(&list, index.universe(), u64::from(index.num_lists()));
    }

    #[test]
    fn scan_of_bit_flipped_streams_is_corrupt_or_decodable() {
        let universe = 200u64;
        let lists = synth_lists(0xF11B, 10, universe);
        for mode in [
            RefMode::None,
            RefMode::Windowed(4),
            RefMode::Windowed(u32::MAX),
        ] {
            let enc = encode_lists(&lists, universe, mode, ListCodec);
            for flip in 0..enc.bit_len {
                let mut bytes = enc.bytes.clone();
                bytes[(flip / 8) as usize] ^= 0x80 >> (flip % 8);
                for u in [Universe::Explicit(universe), Universe::SameAsCount] {
                    scan_then_decode_everything(&bytes, enc.bit_len, u);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn scan_of_byte_soup_is_corrupt_or_decodable(
            soup in proptest::collection::vec(proptest::any::<u8>(), 0..160),
            cut in 0u64..8,
            universe in 0u64..3000,
            same_as_count in proptest::any::<bool>(),
        ) {
            let bit_len = (soup.len() as u64 * 8).saturating_sub(cut);
            let universe = if same_as_count {
                Universe::SameAsCount
            } else {
                Universe::Explicit(universe)
            };
            scan_then_decode_everything(&soup, bit_len, universe);
        }
    }

    /// A count no list over its universe can have is refused before a
    /// buffer is sized by it: the caller's keeps the capacity it had.
    /// `num` lists over their own count, the first holding about two in
    /// three of it and each other a few entries away from one of the three
    /// before it: most are coded against a reference.
    fn related_lists(seed: u64, num: usize) -> Vec<Vec<u32>> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        let mut lists: Vec<Vec<u32>> = Vec::with_capacity(num);
        for i in 0..num {
            let mut list: std::collections::BTreeSet<u32> = match i {
                0 => (0..num as u32).filter(|_| next() % 3 > 0).collect(),
                _ => lists[i - 1 - next() % i.min(3)].iter().copied().collect(),
            };
            for _ in 0..next() % 4 {
                let x = (next() % num) as u32;
                if !list.remove(&x) {
                    list.insert(x);
                }
            }
            lists.push(list.into_iter().collect());
        }
        lists
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// A directory scanned through list `last` decodes every list up
        /// to it, and the one after it, as the whole directory does — for
        /// every bound, over lists most of which are coded against a
        /// reference — and the ones past those are out of range. On a
        /// stream cut short or with a bit flipped the bounded scan never
        /// panics, fails only where the whole scan fails (it reads a
        /// prefix of what that reads), and decodes what it decodes.
        #[test]
        fn a_scan_through_a_bound_decodes_what_the_whole_scan_does(
            seed in proptest::any::<u64>(),
            num in 1usize..40,
            window in 1u32..6,
            damage in proptest::any::<u64>(),
        ) {
            let lists = related_lists(seed, num);
            let enc = encode_lists(&lists, num as u64, RefMode::Windowed(window), ListCodec);
            let parents = ListsIndex::parse(&enc.bytes, enc.bit_len, Universe::SameAsCount, ListCodec)
                .unwrap()
                .reference_parents(&enc.bytes, enc.bit_len)
                .unwrap();
            proptest::prop_assert!(num < 10 || parents.iter().any(Option::is_some));
            let mut flipped = enc.bytes.clone();
            let at = (damage >> 8) % enc.bit_len;
            flipped[(at / 8) as usize] ^= 0x80 >> (at % 8);
            let cut = damage % (enc.bit_len + 1);
            let streams = [(&enc.bytes, enc.bit_len), (&flipped, enc.bit_len), (&enc.bytes, cut)];
            let (mut scratch, mut got, mut want) = (DecodeScratch::default(), Vec::new(), Vec::new());
            for (round, &(bytes, bit_len)) in streams.iter().enumerate() {
                let whole = ListsIndex::parse(bytes, bit_len, Universe::SameAsCount, ListCodec);
                for last in 0..=num as u32 {
                    let bounded = ListsIndex::parse_through(bytes, bit_len, Universe::SameAsCount, last);
                    let (Ok(bounded), Ok(whole)) = (&bounded, &whole) else {
                        proptest::prop_assert!(bounded.is_ok() || whole.is_err(), "round {}", round);
                        continue;
                    };
                    proptest::prop_assert_eq!(bounded.num_lists(), whole.num_lists());
                    for i in 0..whole.num_lists() {
                        let mine = bounded.decode_list_into(bytes, bit_len, i, &mut scratch, &mut got);
                        if i > last.saturating_add(1) {
                            proptest::prop_assert!(mine.is_err(), "list {} past {}", i, last);
                            continue;
                        }
                        let theirs = whole.decode_list_into(bytes, bit_len, i, &mut scratch, &mut want);
                        proptest::prop_assert_eq!(mine.is_ok(), theirs.is_ok(), "list {}", i);
                        proptest::prop_assert_eq!(&got, &want, "list {} through {}", i, last);
                        if round == 0 {
                            proptest::prop_assert_eq!(&got, &lists[i as usize]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forged_list_count_is_corrupt_before_anything_is_reserved() {
        let forged =
            |e: &SNodeError| matches!(e, SNodeError::Corrupt("list count exceeds its universe"));
        for (count, refused) in [(1u64 << 30, true), (11, true), (10, false)] {
            let mut w = BitWriter::new();
            codes::write_gamma(&mut w, count);
            w.write_bits(0, 64);
            let (bytes, bit_len) = w.finish();
            let mut out: Vec<u32> = Vec::with_capacity(3);
            let mut r = BitReader::with_bit_len(&bytes, bit_len);
            let got = read_bounded_gap_list_into(&mut r.window(), 10, &mut out);
            assert_eq!(got.as_ref().is_err_and(forged), refused, "{count}: {got:?}");
            assert!(got.is_err(), "64 zero bits are no ten ascending entries");
            if refused {
                assert_eq!(out.capacity(), 3, "{count}");
            }

            // The same count as the extras of a one-list stream: the scan
            // behind `parse` refuses it too.
            let mut w = BitWriter::new();
            codes::write_gamma(&mut w, 1); // one list
            w.write_bit(false); // the retired directory bit
            w.write_bit(false); // plain
            codes::write_gamma(&mut w, count);
            w.write_bits(0, 64);
            let (bytes, bit_len) = w.finish();
            let got = ListsIndex::parse_at(&bytes, bit_len, 0, Universe::Explicit(10));
            assert_eq!(got.as_ref().is_err_and(forged), refused, "{count}: {got:?}");
            assert!(got.is_err());
        }
    }

    #[test]
    fn entries_outside_the_universe_are_corrupt_in_scan_and_decode() {
        // [1, 5, 9] in a universe of 10: the last gap is γ(3) = 00100, and
        // flipping its final bit makes it γ(4), i.e. an entry of 10.
        let lists = vec![vec![1u32, 5, 9]];
        let enc = encode_lists(&lists, 10, RefMode::None, ListCodec);
        let clean =
            ListsIndex::parse_at(&enc.bytes, enc.bit_len, 0, Universe::Explicit(10)).unwrap();
        let (mut scan_caught, mut decode_caught) = (false, false);
        let outside =
            |e: &SNodeError| matches!(e, SNodeError::Corrupt("list entry outside its universe"));
        for flip in 0..enc.bit_len {
            let mut bytes = enc.bytes.clone();
            bytes[(flip / 8) as usize] ^= 0x80 >> (flip % 8);
            let scanned = ListsIndex::parse_at(&bytes, enc.bit_len, 0, Universe::Explicit(10));
            scan_caught |= scanned.as_ref().is_err_and(outside);
            // The clean directory over the flipped bytes: the decoder on
            // its own, without the scan's checks before it.
            match clean.decode_list(&bytes, enc.bit_len, 0) {
                Ok(list) => assert!(list.iter().all(|&x| x < 10), "flip {flip}: {list:?}"),
                Err(e) => decode_caught |= outside(&e),
            }
        }
        assert!(scan_caught && decode_caught);
    }
}
