//! Run-length coding of bit vectors.
//!
//! Reference encoding (§3.1 of the paper) represents the shared part of an
//! adjacency list as a bit vector over the reference list; §3.3 notes that
//! such vectors are stored with "run length encoding (RLE) bit vectors"
//! wherever that is smaller. This module provides both forms behind one
//! header bit, always choosing the cheaper encoding:
//!
//! * **Literal**: the raw bits.
//! * **RLE**: the first bit value, then γ-coded run lengths (each ≥ 1,
//!   stored as `run − 1`) alternating values until `len` bits are covered.

use crate::{codes, BitError, BitWriter, Result, Window};

/// Returns the size in bits of the RLE form of `bits` (excluding the 1-bit
/// format header).
pub fn rle_len(bits: &[bool]) -> u64 {
    if bits.is_empty() {
        return 1; // just the initial-value bit
    }
    let mut total = 1u64; // initial value bit
    let mut run = 1u64;
    for w in bits.windows(2) {
        if w[0] == w[1] {
            run += 1;
        } else {
            total += codes::gamma_len(run - 1);
            run = 1;
        }
    }
    total += codes::gamma_len(run - 1);
    total
}

/// Size in bits of the encoded vector, including the header bit, under the
/// cheaper of the literal and RLE forms.
pub fn encoded_len(bits: &[bool]) -> u64 {
    1 + rle_len(bits).min(bits.len() as u64)
}

/// Writes `bits` using whichever of literal/RLE forms is smaller.
///
/// The length of the vector is **not** stored; the decoder must be told how
/// many bits to expect (callers always know it — it is the size of the
/// reference adjacency list).
pub fn write_bitvec(w: &mut BitWriter, bits: &[bool]) {
    let literal = bits.len() as u64;
    let rle = rle_len(bits);
    if rle < literal {
        w.write_bit(true); // RLE marker
        write_rle(w, bits);
    } else {
        w.write_bit(false); // literal marker
        for &b in bits {
            w.write_bit(b);
        }
    }
}

fn write_rle(w: &mut BitWriter, bits: &[bool]) {
    if bits.is_empty() {
        w.write_bit(false); // arbitrary initial value for an empty vector
        return;
    }
    w.write_bit(bits[0]);
    let mut run = 1u64;
    for i in 1..bits.len() {
        if bits[i] == bits[i - 1] {
            run += 1;
        } else {
            codes::write_gamma(w, run - 1);
            run = 1;
        }
    }
    codes::write_gamma(w, run - 1);
}

/// Reads a bit vector of exactly `len` bits written by [`write_bitvec`] a
/// word at a time, without materialising it: `on_word(at, word)` receives
/// up to 64 of its bits in stream order — bit `63 - k` of `word` is bit
/// `at + k` of the vector, and bits past the vector's end are zero. A
/// literal vector arrives in one [`Window::read_bits`] per 56 bits, a run
/// of ones as words of ones, and a run of zeros not at all, so a caller
/// that wants the set bits counts them with `count_ones` and walks them
/// with `leading_zeros`. An RLE vector's runs are γ codes read from the
/// same window.
///
/// A literal vector cut short by the end of the stream calls `on_word`
/// for the bits there are, then fails where a bit-by-bit read would have:
/// at the stream's end, with the cursor there.
fn read_bitvec_words(
    w: &mut Window<'_, '_>,
    len: usize,
    mut on_word: impl FnMut(usize, u64),
) -> Result<()> {
    if !w.read_bit()? {
        let there = len.min(usize::try_from(w.remaining()).unwrap_or(usize::MAX));
        let mut at = 0;
        while at < there {
            // What a fresh window always holds of what is left.
            let n = (there - at).min(56);
            let word = w.read_bits(n as u32)? << (64 - n);
            if word != 0 {
                on_word(at, word);
            }
            at += n;
        }
        if there < len {
            return Err(BitError::UnexpectedEof {
                position: w.position(),
            });
        }
        return Ok(());
    }
    let mut value = w.read_bit()?;
    let mut at = 0usize;
    while at < len {
        let run = w.read_gamma()? + 1;
        if run > (len - at) as u64 {
            return Err(BitError::Corrupt {
                what: "RLE run overruns declared bit-vector length",
            });
        }
        let end = at + run as usize;
        if value {
            for from in (at..end).step_by(64) {
                on_word(from, u64::MAX << (64 - (end - from).min(64)));
            }
        }
        at = end;
        value = !value;
    }
    Ok(())
}

/// Reads a bit vector of exactly `len` bits written by [`write_bitvec`],
/// invoking `on_set(i)` for each set bit in ascending order instead of
/// materialising the vector — the hot path when applying a reference
/// encoding copy-mask. The word walker above, one set bit at a time.
pub fn read_bitvec_set_positions(
    w: &mut Window<'_, '_>,
    len: usize,
    mut on_set: impl FnMut(usize),
) -> Result<()> {
    read_bitvec_words(w, len, |at, mut word| {
        while word != 0 {
            let k = word.leading_zeros();
            on_set(at + k as usize);
            word ^= 1 << (63 - k);
        }
    })
}

/// Reads a bit vector of exactly `len` bits written by [`write_bitvec`]
/// and returns how many of its bits are set, a word at a time, with the
/// checks of [`read_bitvec_set_positions`].
pub fn count_bitvec_ones(w: &mut Window<'_, '_>, len: usize) -> Result<u64> {
    let mut ones = 0u64;
    read_bitvec_words(w, len, |_, word| ones += u64::from(word.count_ones()))?;
    Ok(ones)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitReader;

    fn round_trip(bits: &[bool]) {
        let mut w = BitWriter::new();
        write_bitvec(&mut w, bits);
        let (bytes, blen) = w.finish();
        assert_eq!(blen, encoded_len(bits), "encoded_len must match encoding");
        let mut r = BitReader::with_bit_len(&bytes, blen);
        let mut set = Vec::new();
        read_bitvec_set_positions(&mut r.window(), bits.len(), |i| set.push(i)).unwrap();
        let expect: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(set, expect);
        assert_eq!(r.remaining(), 0);
        let mut r = BitReader::with_bit_len(&bytes, blen);
        assert_eq!(
            count_bitvec_ones(&mut r.window(), bits.len()).unwrap(),
            expect.len() as u64
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_vector() {
        round_trip(&[]);
    }

    #[test]
    fn short_vectors() {
        round_trip(&[true]);
        round_trip(&[false]);
        round_trip(&[true, false, true]);
        round_trip(&[false, false, true, true, false]);
    }

    #[test]
    fn long_runs_choose_rle() {
        let mut bits = vec![true; 300];
        bits.extend(vec![false; 300]);
        bits.push(true);
        let mut w = BitWriter::new();
        write_bitvec(&mut w, &bits);
        assert!(
            w.bit_len() < 64,
            "601-bit vector with 3 runs should RLE to a few dozen bits, got {}",
            w.bit_len()
        );
        round_trip(&bits);
    }

    #[test]
    fn alternating_bits_choose_literal() {
        let bits: Vec<bool> = (0..128).map(|i| i % 2 == 0).collect();
        let mut w = BitWriter::new();
        write_bitvec(&mut w, &bits);
        assert_eq!(w.bit_len(), 1 + 128, "alternating vector must stay literal");
        round_trip(&bits);
    }

    #[test]
    fn pseudorandom_vectors_round_trip() {
        let mut state = 0x9E3779B97F4A7C15u64;
        for len in [1usize, 7, 8, 9, 63, 64, 65, 500] {
            let bits: Vec<bool> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 62) & 1 == 1
                })
                .collect();
            round_trip(&bits);
        }
    }

    #[test]
    fn overrunning_rle_is_rejected() {
        // Manually craft an RLE stream whose run exceeds the declared length.
        let mut w = BitWriter::new();
        w.write_bit(true); // RLE marker
        w.write_bit(true); // initial value
        codes::write_gamma(&mut w, 9); // run of 10
        let (bytes, blen) = w.finish();
        let mut r = BitReader::with_bit_len(&bytes, blen);
        assert!(read_bitvec_set_positions(&mut r.window(), 5, |_| {}).is_err());
    }

    #[test]
    fn truncated_literal_fails_at_the_stream_end() {
        let mut w = BitWriter::new();
        w.write_bit(false); // literal marker
        for i in 0..70 {
            w.write_bit(i % 3 == 0);
        }
        let (bytes, blen) = w.finish();
        let mut r = BitReader::with_bit_len(&bytes, blen);
        let mut set = Vec::new();
        let got = read_bitvec_set_positions(&mut r.window(), 100, |i| set.push(i));
        assert_eq!(got, Err(BitError::UnexpectedEof { position: blen }));
        assert_eq!(r.position(), blen);
        assert_eq!(set, (0..70).step_by(3).collect::<Vec<_>>());
    }
}
