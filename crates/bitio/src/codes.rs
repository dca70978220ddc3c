//! Instantaneous integer codes: unary, Elias γ, Elias δ, and
//! minimal-binary ("truncated binary") codes.
//!
//! All codes in this module are defined over **non-negative** integers
//! (`u64`). Elias codes classically code `x ≥ 1`; we follow the common
//! convention of coding `x + 1` so that 0 is representable, which is what
//! adjacency-gap coding needs (two equal consecutive ids never occur, but a
//! gap of zero *does* occur for the first element offset and residual deltas).

use crate::{BitError, BitReader, BitWriter, Result};

/// Writes `x` in unary: `x` zero bits followed by a one bit.
#[inline]
pub fn write_unary(w: &mut BitWriter, x: u64) {
    w.write_zeros(x);
    w.write_bit(true);
}

/// Reads a unary-coded value.
#[inline]
pub fn read_unary(r: &mut BitReader<'_>) -> Result<u64> {
    r.read_unary()
}

/// Number of bits used by the γ code for `x` (codes `x + 1`).
#[inline]
pub fn gamma_len(x: u64) -> u64 {
    let v = x + 1;
    let b = 63 - u64::from(v.leading_zeros());
    2 * b + 1
}

/// Writes `x` with the Elias γ code (codes `x + 1`).
///
/// γ(v) for v ≥ 1 is ⌊log₂ v⌋ zeros, then v's binary representation
/// (which starts with a 1 bit).
#[inline]
pub fn write_gamma(w: &mut BitWriter, x: u64) {
    let v = x.wrapping_add(1);
    assert!(v != 0, "gamma code domain is 0..=u64::MAX-1");
    let b = 63 - v.leading_zeros(); // floor(log2 v)
    if b < 32 {
        // The zeros are `v`'s own leading zeros in a field of `2b + 1`.
        w.write_bits(v, 2 * b + 1);
    } else {
        w.write_zeros(u64::from(b));
        w.write_bits(v, b + 1);
    }
}

/// Reads an Elias-γ-coded value.
#[inline]
pub fn read_gamma(r: &mut BitReader<'_>) -> Result<u64> {
    // A codeword is `b` zeros, then the `b + 1` bits of `v`. When all
    // `2b + 1` bits are in view — every gap a graph produces, except at the
    // very end of a stream — the top of the window *is* `v`.
    let (ahead, in_view) = r.peek();
    let b = ahead.leading_zeros();
    if 2 * b < in_view {
        r.advance(2 * b + 1);
        return Ok((ahead >> (63 - 2 * b)) - 1);
    }
    let b = r.read_unary()?; // zeros before the leading 1 of v
    if b > 63 {
        return Err(BitError::Corrupt {
            what: "gamma length prefix exceeds 63",
        });
    }
    let rest = r.read_bits(b as u32)?;
    let v = (1u64 << b) | rest;
    Ok(v - 1)
}

/// Number of bits used by the δ code for `x` (codes `x + 1`).
#[inline]
pub fn delta_len(x: u64) -> u64 {
    let v = x + 1;
    let b = 63 - u64::from(v.leading_zeros());
    gamma_len(b) + b
}

/// Writes `x` with the Elias δ code (codes `x + 1`).
///
/// δ(v) codes ⌊log₂ v⌋ + 1 in γ, then the b low-order bits of v.
#[inline]
pub fn write_delta(w: &mut BitWriter, x: u64) {
    let v = x.wrapping_add(1);
    assert!(v != 0, "delta code domain is 0..=u64::MAX-1");
    let b = 63 - u64::from(v.leading_zeros());
    write_gamma(w, b);
    if b > 0 {
        w.write_bits(v & ((1u64 << b) - 1), b as u32);
    }
}

/// Reads an Elias-δ-coded value.
#[inline]
pub fn read_delta(r: &mut BitReader<'_>) -> Result<u64> {
    let b = read_gamma(r)?;
    if b > 63 {
        return Err(BitError::Corrupt {
            what: "delta length prefix exceeds 63",
        });
    }
    let low = if b > 0 { r.read_bits(b as u32)? } else { 0 };
    Ok(((1u64 << b) | low) - 1)
}

/// Number of bits used by the minimal binary code for `x` in a universe of
/// size `n` (`0 ≤ x < n`).
#[inline]
pub fn minimal_binary_len(x: u64, n: u64) -> u64 {
    assert!(n > 0 && x < n, "minimal binary domain violated");
    if n == 1 {
        return 0;
    }
    let b = 64 - (n - 1).leading_zeros(); // ceil(log2 n)
    let cutoff = cutoff(n, b);
    if x < cutoff {
        u64::from(b) - 1
    } else {
        u64::from(b)
    }
}

/// `2^b − n`, the count of short codewords. For `b == 64` the power of
/// two itself overflows `u64`, but the difference (`2^64 − n`) still
/// fits because `n ≥ 1` — `wrapping_neg` computes exactly that.
#[inline]
pub(crate) fn cutoff(n: u64, b: u32) -> u64 {
    if b == 64 {
        n.wrapping_neg()
    } else {
        (1u64 << b) - n
    }
}

/// Writes `x` (`0 ≤ x < n`) with the minimal binary (truncated binary) code.
///
/// Values below `2^⌈log₂ n⌉ − n` take ⌈log₂ n⌉ − 1 bits, the rest take
/// ⌈log₂ n⌉ bits. For `n` a power of two this is plain fixed-width binary.
/// For `n == 1` the code is empty.
#[inline]
pub fn write_minimal_binary(w: &mut BitWriter, x: u64, n: u64) {
    assert!(n > 0, "universe must be non-empty");
    assert!(x < n, "value {x} outside universe of size {n}");
    if n == 1 {
        return;
    }
    let b = 64 - (n - 1).leading_zeros(); // ceil(log2 n)
    let cutoff = cutoff(n, b);
    if x < cutoff {
        w.write_bits(x, b - 1);
    } else {
        // x + cutoff < n + (2^b − n) = 2^b, so this cannot overflow.
        w.write_bits(x + cutoff, b);
    }
}

/// Reads a minimal-binary-coded value from a universe of size `n`: one
/// [`crate::Window::read_minimal_binary`].
///
/// # Panics
/// Panics if `n == 0`.
#[inline]
pub fn read_minimal_binary(r: &mut BitReader<'_>, n: u64) -> Result<u64> {
    r.window().read_minimal_binary(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_one(
        write: impl Fn(&mut BitWriter, u64),
        read: impl Fn(&mut BitReader<'_>) -> Result<u64>,
        values: &[u64],
    ) {
        let mut w = BitWriter::new();
        for &v in values {
            write(&mut w, v);
        }
        let (bytes, bits) = w.finish();
        let mut r = BitReader::with_bit_len(&bytes, bits);
        for &v in values {
            assert_eq!(read(&mut r).unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    const SAMPLES: &[u64] = &[
        0,
        1,
        2,
        3,
        4,
        7,
        8,
        15,
        16,
        100,
        127,
        128,
        1000,
        65535,
        65536,
        1 << 32,
        (1 << 40) + 12345,
        u64::MAX - 1,
    ];

    #[test]
    fn unary_round_trip_small() {
        round_trip_one(write_unary, read_unary, &[0, 1, 2, 3, 10, 63, 64, 200]);
    }

    #[test]
    fn gamma_round_trip() {
        round_trip_one(write_gamma, read_gamma, SAMPLES);
    }

    #[test]
    fn delta_round_trip() {
        round_trip_one(write_delta, read_delta, SAMPLES);
    }

    #[test]
    fn minimal_binary_round_trip_all_universes() {
        for n in 1u64..=40 {
            let values: Vec<u64> = (0..n).collect();
            round_trip_one(
                |w, v| write_minimal_binary(w, v, n),
                |r| read_minimal_binary(r, n),
                &values,
            );
        }
    }

    #[test]
    fn minimal_binary_power_of_two_is_fixed_width() {
        for &n in &[2u64, 4, 8, 256, 1024] {
            let b = n.trailing_zeros() as u64;
            for x in [0, n / 2, n - 1] {
                assert_eq!(minimal_binary_len(x, n), b, "n={n} x={x}");
            }
        }
    }

    #[test]
    fn len_functions_match_actual_encoding() {
        for &v in SAMPLES {
            let mut w = BitWriter::new();
            write_gamma(&mut w, v);
            assert_eq!(w.bit_len(), gamma_len(v), "gamma len mismatch for {v}");

            let mut w = BitWriter::new();
            write_delta(&mut w, v);
            assert_eq!(w.bit_len(), delta_len(v), "delta len mismatch for {v}");
        }
        for n in 1u64..32 {
            for x in 0..n {
                let mut w = BitWriter::new();
                write_minimal_binary(&mut w, x, n);
                assert_eq!(w.bit_len(), minimal_binary_len(x, n), "n={n} x={x}");
            }
        }
    }

    #[test]
    fn gamma_known_codewords() {
        // gamma codes value+1: value 0 -> v=1 -> "1"
        let mut w = BitWriter::new();
        write_gamma(&mut w, 0);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 1);
        assert_eq!(bytes[0] >> 7, 1);
        // value 3 -> v=4 -> "00100"
        let mut w = BitWriter::new();
        write_gamma(&mut w, 3);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 5);
        assert_eq!(bytes[0] >> 3, 0b00100);
    }

    #[test]
    fn delta_shorter_than_gamma_for_large_values() {
        let v = (1u64 << 40) + 999;
        assert!(delta_len(v) < gamma_len(v));
    }

    #[test]
    fn truncated_streams_error_cleanly() {
        let mut w = BitWriter::new();
        write_delta(&mut w, 123_456_789);
        let (bytes, bits) = w.finish();
        // Chop off the tail and make sure decoding errors instead of panicking.
        for cut in 1..bits {
            let mut r = BitReader::with_bit_len(&bytes, cut);
            match read_delta(&mut r) {
                Err(_) => {}
                Ok(v) => panic!("decoded {v} from a truncated stream of {cut} bits"),
            }
        }
    }
}
