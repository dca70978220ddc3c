//! Canonical Huffman codes.
//!
//! The paper uses Huffman codes in two places: the supernode graph is encoded
//! by assigning short codes to high-in-degree supernodes (§3.3), and the
//! "Plain Huffman" baseline of §4 does the same for page identifiers. Both
//! need codes over large alphabets, driven by observed frequencies, and
//! rebuildable from disk — which is exactly what *canonical* Huffman codes
//! provide: only the code lengths need to be stored, and decoding works from
//! a per-length `first_code` table without materialising a tree.
//!
//! Code lengths are limited to [`MAX_CODE_LEN`] bits using the classic
//! Kraft-sum repair (as in zlib): overlong codes are clamped and the Kraft
//! deficit is paid for by lengthening the cheapest short codes. This bounds
//! decoder state and keeps pathological (Fibonacci-like) frequency
//! distributions safe.

use crate::{codes, BitError, BitReader, BitWriter, Result};

/// Upper bound on the length of any codeword.
pub const MAX_CODE_LEN: u32 = 48;

/// Symbols are dense indexes into the frequency table the code was built from.
pub type Symbol = u32;

/// An encoder-side canonical Huffman code: a `(codeword, length)` pair per
/// symbol.
///
/// Symbols whose frequency was zero receive no codeword; attempting to encode
/// one panics (it indicates a bug in the caller, not bad data).
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// Code length in bits per symbol; 0 means "symbol has no code".
    lengths: Vec<u32>,
    /// Canonical codeword per symbol (valid iff `lengths[s] > 0`).
    words: Vec<u64>,
}

impl HuffmanCode {
    /// Builds a canonical code from symbol frequencies.
    ///
    /// Zero-frequency symbols get no code. If only one symbol has non-zero
    /// frequency it receives a 1-bit code so the output remains a valid
    /// prefix code.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let lengths = code_lengths(freqs);
        let words = canonical_codewords(&lengths);
        Self { lengths, words }
    }

    /// Rebuilds the encoder from explicit code lengths (e.g. read from disk).
    pub fn from_lengths(lengths: Vec<u32>) -> Result<Self> {
        validate_lengths(&lengths)?;
        let words = canonical_codewords(&lengths);
        Ok(Self { lengths, words })
    }

    /// Number of symbols in the alphabet (including uncoded ones).
    pub fn num_symbols(&self) -> usize {
        self.lengths.len()
    }

    /// The per-symbol code length table (0 = symbol has no code).
    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    /// Code length of `sym` in bits, or 0 if the symbol has no code.
    #[inline]
    pub fn len_of(&self, sym: Symbol) -> u32 {
        self.lengths[sym as usize]
    }

    /// Appends the codeword for `sym`.
    ///
    /// # Panics
    /// Panics if `sym` has no codeword (its build-time frequency was zero).
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, sym: Symbol) {
        let len = self.lengths[sym as usize];
        assert!(len > 0, "symbol {sym} has no Huffman code");
        w.write_bits(self.words[sym as usize], len);
    }

    /// Serialises the code as its length table (γ-coded run of lengths).
    ///
    /// The layout is: γ(num_symbols), then one γ-coded length per symbol.
    /// Lengths compress well because canonical codes have long runs of equal
    /// lengths when symbols are sorted by frequency rank.
    pub fn write_lengths(&self, w: &mut BitWriter) {
        codes::write_gamma(w, self.lengths.len() as u64);
        for &l in &self.lengths {
            codes::write_gamma(w, u64::from(l));
        }
    }

    /// Reads a length table written by [`HuffmanCode::write_lengths`].
    pub fn read_lengths(r: &mut BitReader<'_>) -> Result<Self> {
        let n = codes::read_gamma(r)?;
        if n > u32::MAX as u64 {
            return Err(BitError::BadCodeTable {
                what: "alphabet too large",
            });
        }
        // `n` is untrusted; clamp the reservation so a corrupt count cannot
        // force a giant allocation before the per-symbol reads fail.
        let mut lengths = Vec::with_capacity((n as usize).min(1 << 20));
        for _ in 0..n {
            let l = codes::read_gamma(r)?;
            if l > u64::from(MAX_CODE_LEN) {
                return Err(BitError::BadCodeTable {
                    what: "code length exceeds MAX_CODE_LEN",
                });
            }
            lengths.push(l as u32);
        }
        Self::from_lengths(lengths)
    }

    /// Builds the matching decoder.
    pub fn decoder(&self) -> HuffmanDecoder {
        HuffmanDecoder::from_lengths(&self.lengths)
    }

    /// Total encoded size in bits of a message with the build-time
    /// frequencies (useful for size accounting without encoding).
    pub fn weighted_length(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .zip(&self.lengths)
            .map(|(&f, &l)| f * u64::from(l))
            .sum()
    }
}

/// Table-driven canonical Huffman decoder.
///
/// A decode takes one peeked 64-bit window of the stream. A table over its
/// first `FAST_BITS` (12) bits resolves every codeword that short in one
/// probe; a longer one (or one within a codeword of the stream's end) is
/// found by the canonical compare, one length at a time, on the same window
/// — codes are at most [`MAX_CODE_LEN`] bits, and a window holds at least
/// 57 stream bits unless the stream ends sooner.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// `first_code[l]` = canonical value of the first codeword of length `l`.
    first_code: Vec<u64>,
    /// `first_index[l]` = index into `sorted_symbols` of that codeword.
    first_index: Vec<u32>,
    /// `count[l]` = codewords of length `l`.
    count: Vec<u32>,
    /// Symbols sorted by (length, symbol) — canonical order.
    sorted_symbols: Vec<Symbol>,
    /// Smallest code length present (0 if the code is empty).
    min_len: u32,
    /// Largest code length present.
    max_len: u32,
    /// Width of `fast` in bits: `FAST_BITS`, or less for a code whose
    /// longest codeword is shorter (at least 1).
    fast_bits: u32,
    /// `fast[prefix]` = (symbol, length) of the codeword of at most
    /// `fast_bits` bits that `prefix` starts with; length 0 when none does.
    fast: Vec<(Symbol, u8)>,
}

/// Width of the first-level decode table in bits.
const FAST_BITS: u32 = 12;

impl HuffmanDecoder {
    /// Builds a decoder from the per-symbol code lengths.
    pub fn from_lengths(lengths: &[u32]) -> Self {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let mut count = vec![0u32; (max_len + 1) as usize];
        for &l in lengths {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let min_len = (1..=max_len).find(|&l| count[l as usize] > 0).unwrap_or(0);

        // Canonical first codes per length.
        let mut first_code = vec![0u64; (max_len + 1) as usize];
        let mut first_index = vec![0u32; (max_len + 1) as usize];
        let mut code = 0u64;
        let mut index = 0u32;
        for l in 1..=max_len {
            code <<= 1;
            first_code[l as usize] = code;
            first_index[l as usize] = index;
            code += u64::from(count[l as usize]);
            index += count[l as usize];
        }

        // Symbols in canonical order: by length, then by symbol id.
        let mut sorted: Vec<Symbol> = (0..lengths.len() as u32)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        sorted.sort_by_key(|&s| (lengths[s as usize], s));

        let fast_bits = FAST_BITS.min(max_len.max(1));
        let mut fast = vec![(0u32, 0u8); 1usize << fast_bits];
        let words = canonical_codewords(lengths);
        for (sym, (&len, &word)) in lengths.iter().zip(&words).enumerate() {
            if len == 0 || len > fast_bits {
                continue;
            }
            let shift = fast_bits - len;
            let base = (word << shift) as usize;
            fast[base..base + (1usize << shift)].fill((sym as Symbol, len as u8));
        }

        Self {
            first_code,
            first_index,
            count,
            sorted_symbols: sorted,
            min_len,
            max_len,
            fast_bits,
            fast,
        }
    }

    /// Decodes one symbol. On an error the reader has not moved.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<Symbol> {
        let (window, in_view) = r.peek();
        let (sym, len) = self
            .decode_window(window, in_view)
            .map_err(|e| past(e, r.position()))?;
        r.advance(len);
        Ok(sym)
    }

    /// The symbol whose codeword `window` starts with, of whose bits
    /// `in_view` are stream bits, and the codeword's length. The table
    /// resolves a codeword of up to `fast_bits`, the canonical compare a
    /// longer one. An `UnexpectedEof` position counts from the window's
    /// top ([`past`] places it); any other error stands whatever follows
    /// the window.
    #[inline]
    pub(crate) fn decode_window(&self, window: u64, in_view: u32) -> Result<(Symbol, u32)> {
        let (sym, len) = self.fast[(window >> (64 - self.fast_bits)) as usize];
        if len != 0 && u32::from(len) <= in_view {
            return Ok((sym, u32::from(len)));
        }
        self.decode_long(window, in_view)
    }

    /// The canonical compare over `window`: every length from the first
    /// the table could not resolve, up to the longest.
    #[inline(never)]
    fn decode_long(&self, window: u64, in_view: u32) -> Result<(Symbol, u32)> {
        if self.max_len == 0 {
            return Err(BitError::BadCodeTable {
                what: "decoding with an empty code",
            });
        }
        // With the whole table prefix in view, no codeword that short
        // matched; otherwise the stream ends within it.
        let first = match in_view >= self.fast_bits {
            true => self.fast_bits + 1,
            false => self.min_len,
        };
        for len in first.max(self.min_len)..=self.max_len {
            if len > in_view {
                return Err(BitError::UnexpectedEof {
                    position: u64::from(in_view),
                });
            }
            let l = len as usize;
            let rank = (window >> (64 - len)).wrapping_sub(self.first_code[l]);
            if rank < u64::from(self.count[l]) {
                let sym = self.sorted_symbols[self.first_index[l] as usize + rank as usize];
                return Ok((sym, len));
            }
        }
        Err(BitError::Corrupt {
            what: "invalid Huffman codeword",
        })
    }
}

/// `e` from a decode at `at`: an `UnexpectedEof` that
/// [`HuffmanDecoder::decode_window`] placed from the window's top is
/// placed from the stream's start.
pub(crate) fn past(e: BitError, at: u64) -> BitError {
    match e {
        BitError::UnexpectedEof { position } => BitError::UnexpectedEof {
            position: at + position,
        },
        e => e,
    }
}

/// Computes length-limited Huffman code lengths from frequencies.
fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let mut present: Vec<(u64, u32)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(s, &f)| (f, s as u32))
        .collect();
    let mut lengths = vec![0u32; freqs.len()];
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0].1 as usize] = 1;
            return lengths;
        }
        _ => {}
    }
    present.sort_unstable();

    // Two-queue Huffman over the sorted leaves: O(n) merging after the sort.
    // Internal nodes record their two children so lengths can be assigned by
    // a final top-down pass.
    #[derive(Clone, Copy)]
    enum Node {
        Leaf(u32),
        Internal(u32, u32),
    }
    let n = present.len();
    let mut nodes: Vec<Node> = present.iter().map(|&(_, s)| Node::Leaf(s)).collect();
    let mut weights: Vec<u64> = present.iter().map(|&(f, _)| f).collect();
    // leaves queue = indexes 0..n in `nodes`; internals appended after.
    let mut leaf_head = 0usize;
    let mut int_head = n;
    while nodes.len() - int_head + (n - leaf_head) > 1 {
        let mut take = || -> u32 {
            let leaf_ok = leaf_head < n;
            let int_ok = int_head < nodes.len();
            let use_leaf = match (leaf_ok, int_ok) {
                (true, true) => weights[leaf_head] <= weights[int_head],
                (true, false) => true,
                (false, true) => false,
                (false, false) => unreachable!("queues exhausted"),
            };
            if use_leaf {
                leaf_head += 1;
                (leaf_head - 1) as u32
            } else {
                int_head += 1;
                (int_head - 1) as u32
            }
        };
        let a = take();
        let b = take();
        let w = weights[a as usize] + weights[b as usize];
        nodes.push(Node::Internal(a, b));
        weights.push(w);
    }

    // Depth assignment by traversal from the root (the last node created).
    let root = nodes.len() - 1;
    let mut depth = vec![0u32; nodes.len()];
    for i in (0..nodes.len()).rev() {
        match nodes[i] {
            Node::Leaf(sym) => {
                lengths[sym as usize] = depth[i].max(1);
            }
            Node::Internal(a, b) => {
                let d = if i == root { 0 } else { depth[i] };
                depth[a as usize] = d + 1;
                depth[b as usize] = d + 1;
            }
        }
    }

    limit_lengths(&mut lengths, MAX_CODE_LEN);
    lengths
}

/// Clamps code lengths to `limit` bits and repairs the Kraft sum, zlib-style.
fn limit_lengths(lengths: &mut [u32], limit: u32) {
    let over: bool = lengths.iter().any(|&l| l > limit);
    if !over {
        return;
    }
    // Kraft units in terms of 2^-limit.
    let unit = |l: u32| 1u64 << (limit - l);
    for l in lengths.iter_mut() {
        if *l > limit {
            *l = limit;
        }
    }
    let budget = 1u64 << limit;
    let mut used: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit(l)).sum();
    // Lengthen the longest codes that still have room until the sum fits.
    while used > budget {
        // Find a symbol with the largest unit (smallest length) below limit…
        // Actually: lengthening any code with l < limit frees unit(l)/2.
        // Greedily lengthen codes at length limit-1, limit-2, … (cheapest
        // distortion first is to lengthen the *longest* possible codes).
        let mut best: Option<usize> = None;
        for (i, &l) in lengths.iter().enumerate() {
            if l > 0 && l < limit {
                match best {
                    Some(b) if lengths[b] >= l => {}
                    _ => best = Some(i),
                }
            }
        }
        let Some(i) = best else {
            // Unreachable: an alphabet larger than 2^MAX_CODE_LEN would be
            // needed, and callers never build one.
            break;
        };
        used -= unit(lengths[i]) / 2;
        lengths[i] += 1;
    }
}

/// Assigns canonical codewords given lengths (0 = no code).
fn canonical_codewords(lengths: &[u32]) -> Vec<u64> {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    let mut count = vec![0u64; (max_len + 1) as usize];
    for &l in lengths {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = vec![0u64; (max_len + 2) as usize];
    let mut code = 0u64;
    for l in 1..=max_len {
        code <<= 1;
        next[l as usize] = code;
        code += count[l as usize];
    }
    // Within a length, symbols are ordered by id — matching the decoder.
    let mut order: Vec<u32> = (0..lengths.len() as u32)
        .filter(|&s| lengths[s as usize] > 0)
        .collect();
    order.sort_by_key(|&s| (lengths[s as usize], s));
    let mut words = vec![0u64; lengths.len()];
    for s in order {
        let l = lengths[s as usize] as usize;
        words[s as usize] = next[l];
        next[l] += 1;
    }
    words
}

/// Checks that a length table defines a decodable (sub-)prefix code.
fn validate_lengths(lengths: &[u32]) -> Result<()> {
    let mut kraft = 0f64;
    let mut any = false;
    for &l in lengths {
        if l == 0 {
            continue;
        }
        any = true;
        if l > MAX_CODE_LEN {
            return Err(BitError::BadCodeTable {
                what: "length exceeds MAX_CODE_LEN",
            });
        }
        kraft += (0.5f64).powi(l as i32);
    }
    if any && kraft > 1.0 + 1e-9 {
        return Err(BitError::BadCodeTable {
            what: "Kraft inequality violated",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(freqs: &[u64], message: &[Symbol]) {
        let code = HuffmanCode::from_frequencies(freqs);
        let mut w = BitWriter::new();
        for &s in message {
            code.encode(&mut w, s);
        }
        let (bytes, bits) = w.finish();
        let dec = code.decoder();
        let mut r = BitReader::with_bit_len(&bytes, bits);
        for &s in message {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn two_symbols() {
        round_trip(&[5, 3], &[0, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let code = HuffmanCode::from_frequencies(&[0, 7, 0]);
        assert_eq!(code.len_of(1), 1);
        round_trip(&[0, 7, 0], &[1, 1, 1]);
    }

    #[test]
    fn skewed_distribution_gives_short_codes_to_frequent_symbols() {
        let freqs = [1000, 500, 100, 10, 1];
        let code = HuffmanCode::from_frequencies(&freqs);
        for win in (0..5).collect::<Vec<_>>().windows(2) {
            assert!(
                code.len_of(win[0]) <= code.len_of(win[1]),
                "more frequent symbol must not have a longer code"
            );
        }
        round_trip(&freqs, &[0, 4, 2, 1, 3, 0, 0, 2]);
    }

    #[test]
    fn uniform_distribution_is_near_fixed_width() {
        let freqs = vec![10u64; 16];
        let code = HuffmanCode::from_frequencies(&freqs);
        for s in 0..16 {
            assert_eq!(code.len_of(s), 4);
        }
    }

    #[test]
    fn fibonacci_frequencies_are_length_limited() {
        // Fibonacci weights force maximal skew (depth n-1 unlimited).
        let mut freqs = vec![1u64, 1];
        for i in 2..90 {
            let next = freqs[i - 1] + freqs[i - 2];
            freqs.push(next.min(u64::MAX / 2));
        }
        let code = HuffmanCode::from_frequencies(&freqs);
        let max = (0..freqs.len() as u32).map(|s| code.len_of(s)).max();
        assert!(max.unwrap() <= MAX_CODE_LEN);
        // Still a valid prefix code after limiting.
        let msg: Vec<Symbol> = (0..freqs.len() as u32).collect();
        round_trip(&freqs, &msg);
    }

    #[test]
    fn lengths_serialise_and_rebuild() {
        let freqs = [9u64, 0, 4, 4, 2, 1, 0, 30];
        let code = HuffmanCode::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        code.write_lengths(&mut w);
        // Encode a message after the table, as the on-disk format does.
        let msg = [7u32, 0, 2, 3, 7, 5, 4];
        for &s in &msg {
            code.encode(&mut w, s);
        }
        let (bytes, bits) = w.finish();
        let mut r = BitReader::with_bit_len(&bytes, bits);
        let rebuilt = HuffmanCode::read_lengths(&mut r).unwrap();
        let dec = rebuilt.decoder();
        for &s in &msg {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn decoding_garbage_reports_corruption() {
        let code = HuffmanCode::from_frequencies(&[1, 1, 1]).decoder();
        // lengths: one symbol at len 1, two at len 2 → codeword "11" exists?
        // canonical: sym0 len... whatever; an all-ones stream long enough is
        // either decodable or errors, but must not panic.
        let bytes = [0xFFu8; 2];
        let mut r = BitReader::new(&bytes);
        let mut decoded = 0;
        while r.remaining() > 0 {
            match code.decode(&mut r) {
                Ok(_) => decoded += 1,
                Err(_) => break,
            }
            if decoded > 100 {
                break;
            }
        }
    }

    #[test]
    fn weighted_length_matches_encoded_size() {
        let freqs = [13u64, 7, 7, 3, 1];
        let code = HuffmanCode::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        for (s, &f) in freqs.iter().enumerate() {
            for _ in 0..f {
                code.encode(&mut w, s as Symbol);
            }
        }
        assert_eq!(w.bit_len(), code.weighted_length(&freqs));
    }

    #[test]
    fn large_random_alphabet_round_trips() {
        // Zipf-ish frequencies over 2000 symbols.
        let freqs: Vec<u64> = (0..2000u64).map(|i| 1_000_000 / (i + 1)).collect();
        let msg: Vec<Symbol> = (0..2000).map(|i| (i * 7919) % 2000).collect();
        round_trip(&freqs, &msg);
    }

    #[test]
    fn empty_code_rejects_decode() {
        let dec = HuffmanDecoder::from_lengths(&[0, 0, 0]);
        let bytes = [0u8];
        let mut r = BitReader::new(&bytes);
        assert!(dec.decode(&mut r).is_err());
    }
}
