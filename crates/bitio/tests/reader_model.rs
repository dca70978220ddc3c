//! Differential test of [`BitReader`] against a bit-at-a-time reference
//! model: over random buffers, unaligned seeks and truncated bit lengths
//! both must return the same values, fail with the same
//! `UnexpectedEof { position }`, and stand at the same position afterwards.

use proptest::prelude::*;
use proptest::TestRng;
use wg_bitio::{codes, BitError, BitReader};

/// The reader's contract, one bit per step.
struct Model<'a> {
    buf: &'a [u8],
    pos: u64,
    bit_len: u64,
}

impl Model<'_> {
    fn bit(&self, at: u64) -> u64 {
        u64::from(self.buf[(at / 8) as usize] >> (7 - at % 8) & 1)
    }

    fn read_bits(&mut self, n: u32) -> Result<u64, BitError> {
        if self.pos + u64::from(n) > self.bit_len {
            return Err(BitError::UnexpectedEof { position: self.pos });
        }
        let mut out = 0u64;
        for _ in 0..n {
            out = out << 1 | self.bit(self.pos);
            self.pos += 1;
        }
        Ok(out)
    }

    fn read_unary(&mut self) -> Result<u64, BitError> {
        let mut zeros = 0u64;
        while self.pos < self.bit_len {
            let one = self.bit(self.pos) == 1;
            self.pos += 1;
            if one {
                return Ok(zeros);
            }
            zeros += 1;
        }
        Err(BitError::UnexpectedEof { position: self.pos })
    }

    /// γ by its definition: a unary length, then that many bits.
    fn read_gamma(&mut self) -> Result<u64, BitError> {
        let b = self.read_unary()?;
        if b > 63 {
            return Err(BitError::Corrupt {
                what: "gamma length prefix exceeds 63",
            });
        }
        Ok(((1u64 << b) | self.read_bits(b as u32)?) - 1)
    }
}

/// Byte soup thinned so that long zero runs (unary across several
/// windows) and dense stretches both occur.
fn buffer(seed: u64, len: usize, zero_share: u64) -> Vec<u8> {
    let mut rng = TestRng::deterministic("reader_model::buffer", seed as u32);
    (0..len)
        .map(|_| {
            let x = rng.next_u64();
            if x % 8 < zero_share {
                0
            } else {
                (x >> 8) as u8
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reader_matches_bit_at_a_time_model(
        seed in any::<u64>(),
        len in 0usize..40,
        zero_share in 0u64..8,
        cut in 0u64..16,
        ops in prop::collection::vec((0u8..5, 0u32..=64, any::<u64>()), 1..60),
    ) {
        let buf = buffer(seed, len, zero_share);
        let bit_len = (buf.len() as u64 * 8).saturating_sub(cut);
        let mut reader = BitReader::with_bit_len(&buf, bit_len);
        let mut model = Model { buf: &buf, pos: 0, bit_len };
        for (op, n, target) in ops {
            match op {
                0 => prop_assert_eq!(reader.read_bits(n), model.read_bits(n)),
                1 => prop_assert_eq!(reader.read_unary(), model.read_unary()),
                2 => prop_assert_eq!(reader.read_bit().map(u64::from), model.read_bits(1)),
                3 => prop_assert_eq!(codes::read_gamma(&mut reader), model.read_gamma()),
                _ => {
                    // Seek anywhere up to one past the end (the one case
                    // that must be refused).
                    let to = target % (bit_len + 2);
                    let ok = reader.seek(to).is_ok();
                    prop_assert_eq!(ok, to <= bit_len);
                    if ok {
                        model.pos = to;
                    }
                }
            }
            prop_assert_eq!(reader.position(), model.pos);
        }
    }
}
