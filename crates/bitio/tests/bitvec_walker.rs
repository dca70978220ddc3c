//! Differential test of the word-at-a-time bit-vector walker, through the
//! two readers built on it (`rle::read_bitvec_set_positions` and
//! `rle::count_bitvec_ones`), against a bit-at-a-time reference: over
//! literal and RLE masks of every length 0–200, whole, cut short and read
//! against a declared length that overruns or falls short of what was
//! written, both must report the same set positions, the same popcount,
//! the same `Ok`/`Err` and stand at the same position afterwards.

use proptest::prelude::*;
use wg_bitio::{codes, rle, BitError, BitReader, BitWriter};

/// The walker's contract, one `read_bit` per literal bit and one call per
/// set bit inside a run.
fn reference(
    r: &mut BitReader<'_>,
    len: usize,
    mut on_set: impl FnMut(usize),
) -> Result<(), BitError> {
    if !r.read_bit()? {
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
        if run > (len - i) as u64 {
            return Err(BitError::Corrupt {
                what: "RLE run overruns declared bit-vector length",
            });
        }
        if value {
            (i..i + run as usize).for_each(&mut on_set);
        }
        i += run as usize;
        value = !value;
    }
    Ok(())
}

/// `bits` in the RLE form if `rle`, else literal (whichever is larger),
/// followed by `tail`: bits a stream would go on with.
fn encode(bits: &[bool], rle: bool, tail: &[bool]) -> (Vec<u8>, u64) {
    let mut w = BitWriter::new();
    w.write_bit(rle);
    if rle {
        w.write_bit(bits.first().copied().unwrap_or(false));
        let mut run = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            run += 1;
            if bits.get(i + 1) != Some(&b) {
                codes::write_gamma(&mut w, run - 1);
                run = 0;
            }
        }
    } else {
        bits.iter().for_each(|&b| w.write_bit(b));
    }
    tail.iter().for_each(|&b| w.write_bit(b));
    w.finish()
}

/// Reads the first `bit_len` bits of `bytes` as a vector of `len` bits
/// with the reference and with both walker readers, and checks that they
/// agree.
fn agree(bytes: &[u8], bit_len: u64, len: usize) -> Result<(), TestCaseError> {
    let mut want = Vec::new();
    let mut r = BitReader::with_bit_len(bytes, bit_len);
    let verdict = reference(&mut r, len, |i| want.push(i));
    let cursor = r.position();

    let mut got = Vec::new();
    let mut r = BitReader::with_bit_len(bytes, bit_len);
    prop_assert_eq!(
        rle::read_bitvec_set_positions(&mut r.window(), len, |i| got.push(i)),
        verdict.clone()
    );
    prop_assert_eq!(&got, &want, "set positions");
    prop_assert_eq!(r.position(), cursor, "cursor");

    let mut r = BitReader::with_bit_len(bytes, bit_len);
    let count = rle::count_bitvec_ones(&mut r.window(), len);
    prop_assert_eq!(count.clone().map(|_| ()), verdict);
    if let Ok(ones) = count {
        prop_assert_eq!(ones, want.len() as u64, "popcount");
    }
    prop_assert_eq!(r.position(), cursor, "cursor after counting");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_walker_reads_what_a_bit_at_a_time_reader_reads(
        bits in prop::collection::vec(any::<bool>(), 0..=200),
        rle in any::<bool>(),
        tail in prop::collection::vec(any::<bool>(), 0..70),
        declared in 0usize..=6,
        cut in 0u64..100,
        truncate in any::<bool>(),
    ) {
        let (bytes, bit_len) = encode(&bits, rle, &tail);
        let bit_len = if truncate { bit_len.saturating_sub(cut) } else { bit_len };
        let len = (bits.len() + declared).saturating_sub(3);
        agree(&bytes, bit_len, len)?;
    }
}

/// Every length 0–200, both forms, whole and cut at every eighth bit.
#[test]
fn every_length_in_both_forms_agrees() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for len in 0..=200usize {
        for density in [1u64, 8, 15] {
            let bits: Vec<bool> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 60 < density
                })
                .collect();
            for rle in [false, true] {
                let (bytes, bit_len) = encode(&bits, rle, &[true, false, true]);
                for end in (0..=bit_len).rev().step_by(8) {
                    agree(&bytes, end, len).unwrap();
                }
            }
        }
    }
}
