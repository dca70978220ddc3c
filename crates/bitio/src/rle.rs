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

use crate::{codes, BitError, BitReader, BitWriter, Result};

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

/// Reads a bit vector of exactly `len` bits written by [`write_bitvec`],
/// invoking `on_set(i)` for each set bit instead of materialising the
/// vector — the hot path when applying a reference encoding copy-mask.
pub fn read_bitvec_set_positions(
    r: &mut BitReader<'_>,
    len: usize,
    mut on_set: impl FnMut(usize),
) -> Result<()> {
    let rle = r.read_bit()?;
    if !rle {
        for i in 0..len {
            if r.read_bit()? {
                on_set(i);
            }
        }
        return Ok(());
    }
    let mut value = r.read_bit()?;
    let mut i = 0usize;
    while i < len {
        let run = codes::read_gamma(r)? + 1;
        if i + run as usize > len {
            return Err(BitError::Corrupt {
                what: "RLE run overruns declared bit-vector length",
            });
        }
        if value {
            for j in i..i + run as usize {
                on_set(j);
            }
        }
        i += run as usize;
        value = !value;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(bits: &[bool]) {
        let mut w = BitWriter::new();
        write_bitvec(&mut w, bits);
        let (bytes, blen) = w.finish();
        assert_eq!(blen, encoded_len(bits), "encoded_len must match encoding");
        let mut r = BitReader::with_bit_len(&bytes, blen);
        let mut set = Vec::new();
        read_bitvec_set_positions(&mut r, bits.len(), |i| set.push(i)).unwrap();
        let expect: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(set, expect);
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
        assert!(read_bitvec_set_positions(&mut r, 5, |_| {}).is_err());
    }
}
