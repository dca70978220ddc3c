//! Differential test of [`BitReader`] and of its [`Window`] (runs of
//! codes read from one register window) against a bit-at-a-time reference
//! model: over random buffers, γ-coded streams, unaligned seeks and
//! truncated bit lengths both must return the same values, fail with the same
//! `UnexpectedEof { position }` or `Corrupt`, and stand at the same
//! position afterwards.

use proptest::prelude::*;
use proptest::TestRng;
use wg_bitio::{codes, rle, BitError, BitReader, BitWriter, Window};

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

    /// Minimal binary over `0..n` by its definition: `⌈log₂ n⌉ − 1` bits,
    /// and one more for the values at or past the cutoff.
    fn read_minimal_binary(&mut self, n: u64) -> Result<u64, BitError> {
        if n == 1 {
            return Ok(0);
        }
        let b = 64 - (n - 1).leading_zeros();
        let cutoff = if b == 64 {
            n.wrapping_neg()
        } else {
            (1 << b) - n
        };
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

    /// A bit vector of `len` bits, one bit or one run at a time: its set
    /// positions go to `set` as they are read.
    fn read_mask(&mut self, len: usize, set: &mut Vec<usize>) -> Result<(), BitError> {
        if self.read_bits(1)? == 0 {
            for i in 0..len {
                if self.read_bits(1)? == 1 {
                    set.push(i);
                }
            }
            return Ok(());
        }
        let mut value = self.read_bits(1)? == 1;
        let mut i = 0usize;
        while i < len {
            let run = self.read_gamma()? + 1;
            if run > (len - i) as u64 {
                return Err(BitError::Corrupt {
                    what: "RLE run overruns declared bit-vector length",
                });
            }
            if value {
                set.extend(i..i + run as usize);
            }
            i += run as usize;
            value = !value;
        }
        Ok(())
    }
}

/// Every `Corrupt` a read through a window can raise is one the reader's
/// own reads raise: a window adds no message of its own.
fn known<T>(got: &Result<T, BitError>) -> bool {
    const KNOWN: [&str; 3] = [
        "gamma length prefix exceeds 63",
        "minimal binary value out of range",
        "RLE run overruns declared bit-vector length",
    ];
    match got {
        Err(BitError::Corrupt { what }) => KNOWN.contains(what),
        _ => true,
    }
}

/// `count` γ codes read through one `window`, and what they gave.
fn window_run(window: &mut Window<'_, '_>, count: u64) -> (Vec<u64>, Result<(), BitError>) {
    let mut got = Vec::new();
    for _ in 0..count {
        match window.read_gamma() {
            Ok(v) => got.push(v),
            Err(e) => return (got, Err(e)),
        }
    }
    (got, Ok(()))
}

/// The same, one code at a time on the model.
fn model_run(model: &mut Model<'_>, count: u64) -> (Vec<u64>, Result<(), BitError>) {
    let mut got = Vec::new();
    for _ in 0..count {
        match model.read_gamma() {
            Ok(v) => got.push(v),
            Err(e) => return (got, Err(e)),
        }
    }
    (got, Ok(()))
}

/// A stream of γ codes of values of every width up to 64 bits — so codes
/// of up to 127 bits, past any window — with a short tail of noise.
fn gamma_stream(seed: u64, codes_n: usize) -> (Vec<u8>, u64) {
    let mut rng = TestRng::deterministic("reader_model::gamma_stream", seed as u32);
    let mut w = BitWriter::new();
    for _ in 0..codes_n {
        let x = rng.next_u64();
        let width = match x % 4 {
            0 => (x >> 2) % 65, // any width
            _ => (x >> 2) % 12, // the gaps a graph produces
        };
        let v = match width {
            0 => 0,
            w => rng.next_u64() >> (64 - w),
        };
        codes::write_gamma(&mut w, v.min(u64::MAX - 1));
    }
    w.write_bits(rng.next_u64() & 0x7F, 7);
    w.finish()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Batches of mixed reads through one window each, between seeks of
    /// the reader: every read, run and mask must match the model.
    #[test]
    fn window_matches_bit_at_a_time_model(
        seed in any::<u64>(),
        len in 0usize..40,
        zero_share in 0u64..8,
        cut in 0u64..16,
        batches in prop::collection::vec(
            (any::<u64>(), prop::collection::vec((0u8..6, 0u32..=64, any::<u64>()), 1..24)),
            1..8,
        ),
    ) {
        let buf = buffer(seed, len, zero_share);
        let bit_len = (buf.len() as u64 * 8).saturating_sub(cut);
        let mut reader = BitReader::with_bit_len(&buf, bit_len);
        let mut model = Model { buf: &buf, pos: 0, bit_len };
        for (seek, ops) in batches {
            let to = seek % (bit_len + 1);
            reader.seek(to).unwrap();
            model.pos = to;
            let mut window = reader.window();
            for (op, n, arg) in ops {
                match op {
                    0 => {
                        let got = window.read_bits(n);
                        prop_assert_eq!(got, model.read_bits(n));
                    }
                    1 => {
                        let got = window.read_bit().map(u64::from);
                        prop_assert_eq!(got, model.read_bits(1));
                    }
                    2 => {
                        let got = window.read_gamma();
                        prop_assert!(known(&got));
                        prop_assert_eq!(got, model.read_gamma());
                    }
                    3 => {
                        // Universes of every width, 1 and 2^64 − 1 included.
                        let universe = (arg >> (n % 64)).max(1);
                        let got = window.read_minimal_binary(universe);
                        prop_assert!(known(&got));
                        prop_assert_eq!(got, model.read_minimal_binary(universe));
                    }
                    4 => {
                        let count = u64::from(n % 12);
                        let (got, done) = window_run(&mut window, count);
                        prop_assert!(known(&done));
                        prop_assert_eq!((got, done), model_run(&mut model, count));
                    }
                    _ => {
                        let mask_len = (arg % 200) as usize;
                        let mut got = Vec::new();
                        let done = rle::read_bitvec_set_positions(&mut window, mask_len, |i| {
                            got.push(i);
                        });
                        prop_assert!(known(&done));
                        let mut want = Vec::new();
                        let want_done = model.read_mask(mask_len, &mut want);
                        prop_assert_eq!((got, done), (want, want_done));
                    }
                }
                prop_assert_eq!(window.position(), model.pos);
            }
        }
    }

    /// Runs over γ-coded streams cut anywhere: codes longer than 32 bits
    /// and than a window, codes that straddle a refill or the stream's
    /// end, and runs of no codes.
    #[test]
    fn gamma_runs_match_the_model_on_coded_streams(
        seed in any::<u64>(),
        codes_n in 0usize..120,
        cut in any::<u64>(),
    ) {
        let (bytes, bits) = gamma_stream(seed, codes_n);
        let bit_len = cut % (bits + 1);
        let count = codes_n as u64 + 1;

        let mut reader = BitReader::with_bit_len(&bytes, bit_len);
        let mut model = Model { buf: &bytes, pos: 0, bit_len };
        let got = window_run(&mut reader.window(), count);
        prop_assert_eq!(got, model_run(&mut model, count));
        prop_assert_eq!(reader.position(), model.pos);

        // An empty run reads nothing, even at the stream's end.
        for at in [0, bit_len / 2, bit_len] {
            let mut reader = BitReader::with_bit_len(&bytes, bit_len);
            reader.seek(at).unwrap();
            let mut window = reader.window();
            prop_assert_eq!(window_run(&mut window, 0), (Vec::new(), Ok(())));
            prop_assert_eq!(window.position(), at);
        }
    }
}
