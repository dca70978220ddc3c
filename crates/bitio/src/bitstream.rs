//! MSB-first bit streams over in-memory byte buffers.
//!
//! The writer collects bits a 64-bit word at a time and hands back a
//! `Vec<u8>` (see [`BitWriter`] for its invariants); the reader consumes
//! bits from a `&[u8]`. Bits within a byte are ordered most-significant
//! first so that the byte sequence reads like the bit sequence written,
//! which keeps on-disk dumps inspectable with `xxd`.

use crate::huffman::{self, HuffmanDecoder, Symbol};
use crate::{codes, BitError, Result};

/// Append-only bit sink.
///
/// Bits are packed MSB-first. [`BitWriter::finish`] pads the final partial
/// byte with zero bits and returns the bytes together with the exact bit
/// length, so readers never confuse padding with payload.
///
/// Writes accumulate in one 64-bit word and reach the byte buffer a word
/// at a time. The invariants every method keeps:
///
/// * `buf` holds whole words only (`buf.len() % 8 == 0`), each already in
///   stream order;
/// * `acc` holds the `used` bits written since the last word went out,
///   aligned to its most significant end, and zeros below them;
/// * `used < 64`: a full word is flushed by the write that fills it.
///
/// So the stream is `buf` followed by the top `used` bits of `acc`, and a
/// write is a shift and an OR unless it completes a word.
///
/// # Examples
/// ```
/// use wg_bitio::{BitReader, BitWriter};
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bit(true);
/// let (bytes, bits) = w.finish();
/// assert_eq!(bits, 4);
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert!(r.read_bit().unwrap());
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    acc: u64,
    used: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with capacity for roughly `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits / 8 + 8),
            ..Self::default()
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8 + u64::from(self.used)
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends the low `n` bits of `value`, most significant of those first.
    ///
    /// # Panics
    /// Panics if `n > 64`, or (debug builds) if `value` has bits set above
    /// position `n`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        debug_assert!(
            n == 64 || value < (1u64 << n),
            "value {value} does not fit in {n} bits"
        );
        if n == 0 {
            return;
        }
        let free = 64 - self.used; // 1..=64
        if n < free {
            self.acc |= value << (free - n);
            self.used += n;
            return;
        }
        // The write fills the word: its first `free` bits complete it and
        // the other `over` (0..=63) start the next.
        let over = n - free;
        self.buf
            .extend_from_slice(&(self.acc | value >> over).to_be_bytes());
        self.acc = if over == 0 { 0 } else { value << (64 - over) };
        self.used = over;
    }

    /// Appends `n` zero bits.
    #[inline]
    pub fn write_zeros(&mut self, mut n: u64) {
        while n >= 64 {
            self.write_bits(0, 64);
            n -= 64;
        }
        self.write_bits(0, n as u32);
    }

    /// Appends the first `bit_len` bits of `bytes` — what another writer
    /// finished with — a word at a time, whatever this writer's alignment.
    ///
    /// # Panics
    /// Panics if `bytes` holds fewer than `bit_len` bits.
    pub fn append(&mut self, bytes: &[u8], bit_len: u64) {
        let (words, tail) =
            bytes[..bit_len.div_ceil(8) as usize].split_at((bit_len / 64 * 8) as usize);
        for word in words.as_chunks::<8>().0 {
            self.write_bits(u64::from_be_bytes(*word), 64);
        }
        let tail_bits = (bit_len % 64) as u32;
        if tail_bits > 0 {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_bits(u64::from_be_bytes(last) >> (64 - tail_bits), tail_bits);
        }
    }

    /// Pads the final byte with zeros and returns `(bytes, exact_bit_len)`.
    pub fn finish(mut self) -> (Vec<u8>, u64) {
        let bits = self.bit_len();
        let pending = self.used.div_ceil(8) as usize;
        self.buf
            .extend_from_slice(&self.acc.to_be_bytes()[..pending]);
        (self.buf, bits)
    }
}

/// Bit-granular cursor over a byte slice.
///
/// The reader tracks its position in bits and fails with
/// [`BitError::UnexpectedEof`] when asked to read past `bit_len`.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Current position in bits.
    pos: u64,
    /// Total number of valid bits (may be less than `buf.len() * 8`).
    bit_len: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over all bits of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            bit_len: buf.len() as u64 * 8,
        }
    }

    /// Creates a reader over the first `bit_len` bits of `buf`.
    ///
    /// # Panics
    /// Panics if `bit_len` exceeds the buffer size in bits.
    pub fn with_bit_len(buf: &'a [u8], bit_len: u64) -> Self {
        assert!(bit_len <= buf.len() as u64 * 8, "bit_len exceeds buffer");
        Self {
            buf,
            pos: 0,
            bit_len,
        }
    }

    /// Current position in bits from the start of the stream.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Number of bits remaining.
    pub fn remaining(&self) -> u64 {
        self.bit_len - self.pos
    }

    /// Repositions the cursor to an absolute bit offset.
    pub fn seek(&mut self, bit_pos: u64) -> Result<()> {
        if bit_pos > self.bit_len {
            return Err(BitError::UnexpectedEof { position: bit_pos });
        }
        self.pos = bit_pos;
        Ok(())
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        if self.pos >= self.bit_len {
            return Err(BitError::UnexpectedEof { position: self.pos });
        }
        let byte = self.buf[(self.pos / 8) as usize];
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// The 64 bits starting at byte `byte`, big-endian (stream order), with
    /// zeros where the buffer has ended. Shifting the result left by
    /// `pos % 8` aligns bit `pos` with the word's most significant bit
    /// and leaves `64 - pos % 8` stream bits in view.
    #[inline]
    fn load_word(&self, byte: usize) -> u64 {
        let rest = self.buf.get(byte..).unwrap_or(&[]);
        match rest.first_chunk::<8>() {
            Some(chunk) => u64::from_be_bytes(*chunk),
            None => {
                let mut tail = [0u8; 8];
                tail[..rest.len()].copy_from_slice(rest);
                u64::from_be_bytes(tail)
            }
        }
    }

    /// The bits ahead of the cursor, aligned to the top of a word, and how
    /// many of them are stream bits (up to 64; fewer than 57 only within
    /// eight bytes of the end). What the word holds beyond that count is
    /// unspecified. Lets a decoder take a whole short codeword from one
    /// load; pair with [`BitReader::advance`].
    #[inline]
    pub(crate) fn peek(&self) -> (u64, u32) {
        let offset = (self.pos % 8) as u32;
        let in_view = u64::from(64 - offset).min(self.bit_len - self.pos);
        (
            self.load_word((self.pos / 8) as usize) << offset,
            in_view as u32,
        )
    }

    /// Moves the cursor over `n` bits that a [`BitReader::peek`] at this
    /// position reported as stream bits.
    #[inline]
    pub(crate) fn advance(&mut self, n: u32) {
        debug_assert!(self.pos + u64::from(n) <= self.bit_len);
        self.pos += u64::from(n);
    }

    /// Reads `n` bits MSB-first into the low bits of a `u64`.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        if self.pos + u64::from(n) > self.bit_len {
            return Err(BitError::UnexpectedEof { position: self.pos });
        }
        if n == 0 {
            return Ok(0);
        }
        let byte = (self.pos / 8) as usize;
        let offset = (self.pos % 8) as u32;
        let mut out = (self.load_word(byte) << offset) >> (64 - n);
        let in_view = 64 - offset;
        if n > in_view {
            // Only an unaligned read of 58..=64 bits gets here: its last
            // `n - in_view` bits are the top of the ninth byte, which the
            // EOF check above has shown to exist.
            out |= u64::from(self.buf[byte + 8]) >> (8 - (n - in_view));
        }
        self.pos += u64::from(n);
        Ok(out)
    }

    /// Counts and consumes consecutive zero bits up to (not including) the
    /// next one bit, then consumes that one bit. Returns the zero count.
    ///
    /// This is the primitive behind unary decoding: one `leading_zeros` per
    /// 64-bit window instead of a loop over bytes.
    #[inline]
    pub fn read_unary(&mut self) -> Result<u64> {
        let mut count = 0u64;
        while self.pos < self.bit_len {
            // `in_view` stops at `bit_len`, so a one bit found inside it
            // is a stream bit, not padding.
            let (ahead, in_view) = self.peek();
            let zeros = ahead.leading_zeros();
            if zeros < in_view {
                self.advance(zeros + 1); // consume the terminating 1 bit
                return Ok(count + u64::from(zeros));
            }
            count += u64::from(in_view);
            self.advance(in_view);
        }
        Err(BitError::UnexpectedEof { position: self.pos })
    }

    /// A [`Window`] over the bits ahead of the cursor, for decoding a run
    /// of codes. The reader stands where the window's reads have brought
    /// it, whenever the window is dropped.
    #[inline]
    pub fn window(&mut self) -> Window<'_, 'a> {
        Window {
            r: self,
            bits: 0,
            in_view: 0,
        }
    }
}

/// A [`BitReader`] cursor that decodes from a 64-bit window held in a
/// register: the stream bits ahead of the cursor, loaded in one word and
/// then shifted past each code read from it. A read that does not fit
/// what is left of the window reloads it at the cursor (a code of up to
/// 57 bits always fits a fresh one unless the stream ends sooner), so a
/// run of short codes costs one load per ≤ 64 bits where the reader's own
/// reads load once a code. A read that does not fit a fresh window
/// either is the reader's own.
///
/// Every read returns what the same read on the reader returns — value,
/// error and the position it leaves — and the reader's position moves
/// with each read, so [`Window::position`] is always the reader's.
/// `tests/reader_model.rs` holds both to a bit-at-a-time model.
#[derive(Debug)]
pub struct Window<'r, 'a> {
    r: &'r mut BitReader<'a>,
    /// The stream from the cursor on, aligned to the most significant
    /// end; what lies below the top `in_view` bits is unspecified.
    bits: u64,
    /// How many of `bits` are stream bits (0: load before reading).
    in_view: u32,
}

impl Window<'_, '_> {
    /// Current position in bits from the start of the stream.
    #[inline]
    pub fn position(&self) -> u64 {
        self.r.pos
    }

    /// Number of bits remaining in the stream.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.r.remaining()
    }

    /// Loads the window at the cursor.
    #[inline]
    fn refill(&mut self) {
        (self.bits, self.in_view) = self.r.peek();
    }

    /// Moves the cursor over the top `n` bits of the window, which must
    /// be stream bits.
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.in_view);
        // A shift by the word's width is no shift at all in a release
        // build: 64 consumed bits leave nothing.
        self.bits = self.bits.checked_shl(n).unwrap_or(0);
        self.in_view -= n;
        self.r.pos += u64::from(n);
    }

    /// The reader's own read, which leaves the window to be loaded again.
    #[inline]
    fn by_reader<T>(&mut self, read: impl FnOnce(&mut BitReader<'_>) -> Result<T>) -> Result<T> {
        self.in_view = 0;
        read(self.r)
    }

    /// Whether the window holds `n` stream bits, once loaded again at the
    /// cursor if it held fewer.
    #[inline]
    fn holds(&mut self, n: u32) -> bool {
        if n <= self.in_view {
            return true;
        }
        self.refill();
        n <= self.in_view
    }

    /// [`BitReader::read_bits`].
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        if !self.holds(n) {
            return self.by_reader(|r| r.read_bits(n));
        }
        let value = match n {
            0 => 0,
            n => self.bits >> (64 - n),
        };
        self.consume(n);
        Ok(value)
    }

    /// [`BitReader::read_bit`].
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_bits(1)? == 1)
    }

    /// The γ code at the top of the window, if all of it is in view.
    #[inline]
    fn gamma_in_view(&mut self) -> Option<u64> {
        let b = self.bits.leading_zeros();
        if 2 * b >= self.in_view {
            return None;
        }
        // `b` zeros and the `b + 1` bits of `v`: at most 63 bits, as at
        // least one bit of the window's 64 is not consumed.
        let v = self.bits >> (63 - 2 * b);
        self.bits <<= 2 * b + 1;
        self.in_view -= 2 * b + 1;
        self.r.pos += u64::from(2 * b + 1);
        Some(v - 1)
    }

    /// [`codes::read_gamma`].
    #[inline]
    pub fn read_gamma(&mut self) -> Result<u64> {
        if let Some(v) = self.gamma_in_view() {
            return Ok(v);
        }
        self.refill();
        match self.gamma_in_view() {
            Some(v) => Ok(v),
            None => self.by_reader(codes::read_gamma),
        }
    }

    /// [`codes::read_minimal_binary`].
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn read_minimal_binary(&mut self, n: u64) -> Result<u64> {
        assert!(n > 0, "universe must be non-empty");
        if n == 1 {
            return Ok(0);
        }
        let b = 64 - (n - 1).leading_zeros();
        let cutoff = codes::cutoff(n, b);
        let hi = self.read_bits(b - 1)?;
        if hi < cutoff {
            return Ok(hi);
        }
        let x = (hi << 1) + self.read_bits(1)? - cutoff;
        if x >= n {
            return Err(BitError::Corrupt {
                what: "minimal binary value out of range",
            });
        }
        Ok(x)
    }

    /// Decodes one symbol of `code` from the window, as
    /// [`HuffmanDecoder::decode`] does from the reader: a codeword that
    /// runs past the window is decoded from a fresh one.
    #[inline]
    pub fn read_huffman(&mut self, code: &HuffmanDecoder) -> Result<Symbol> {
        let found = match code.decode_window(self.bits, self.in_view) {
            Err(BitError::UnexpectedEof { .. }) => {
                self.refill();
                code.decode_window(self.bits, self.in_view)
            }
            found => found,
        };
        let (sym, len) = found.map_err(|e| huffman::past(e, self.r.pos))?;
        self.consume(len);
        Ok(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 9);
        let mut r = BitReader::with_bit_len(&bytes, bits);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn multi_bit_writes_cross_byte_boundaries() {
        let mut w = BitWriter::new();
        w.write_bits(0b1101, 4);
        w.write_bits(0b10110011101, 11);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 80);
        let mut r = BitReader::with_bit_len(&bytes, bits);
        assert_eq!(r.read_bits(4).unwrap(), 0b1101);
        assert_eq!(r.read_bits(11).unwrap(), 0b10110011101);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        assert_eq!(w.bit_len(), 0);
        w.write_bit(true);
        w.write_bits(0, 0);
        assert_eq!(w.bit_len(), 1);
    }

    #[test]
    fn unary_fast_path_handles_long_runs() {
        let mut w = BitWriter::new();
        w.write_zeros(1000);
        w.write_bit(true);
        w.write_bits(0b11, 2);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::with_bit_len(&bytes, bits);
        assert_eq!(r.read_unary().unwrap(), 1000);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
    }

    #[test]
    fn unary_eof_is_error_not_panic() {
        let mut w = BitWriter::new();
        w.write_zeros(13);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::with_bit_len(&bytes, bits);
        assert!(matches!(
            r.read_unary(),
            Err(BitError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn seek_and_position_agree() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::with_bit_len(&bytes, bits);
        r.seek(16).unwrap();
        assert_eq!(r.read_bits(16).unwrap(), 0xBEEF);
        assert!(r.seek(33).is_err());
        r.seek(0).unwrap();
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn append_preserves_bit_sequence() {
        let mut a = BitWriter::new();
        a.write_bits(0b10110, 5);
        let (ab, al) = a.finish();
        let mut b = BitWriter::new();
        b.write_bits(0b111, 3);
        b.append(&ab, al);
        let (bb, bl) = b.finish();
        assert_eq!(bl, 8);
        let mut r = BitReader::with_bit_len(&bb, bl);
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
        assert_eq!(r.read_bits(5).unwrap(), 0b10110);
    }

    #[test]
    fn reader_respects_explicit_bit_len() {
        let bytes = [0xFF, 0xFF];
        let mut r = BitReader::with_bit_len(&bytes, 3);
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
        assert!(r.read_bit().is_err());
    }
}
