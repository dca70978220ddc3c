//! Property-based tests: every codec in `wg-bitio` must round-trip arbitrary
//! inputs exactly, interleaved heterogeneous streams must decode in
//! order, and the word-buffered [`BitWriter`] must produce the stream a
//! bit-at-a-time writer does.

use proptest::prelude::*;
use wg_bitio::{codes, rle, BitReader, BitWriter, HuffmanCode};

/// The writer's contract, one bit per step.
#[derive(Default, Clone)]
struct WriterModel {
    bits: Vec<bool>,
}

impl WriterModel {
    fn write_bits(&mut self, value: u64, n: u32) {
        self.bits.extend((0..n).rev().map(|i| value >> i & 1 == 1));
    }

    /// The first `bit_len` bits of `bytes`.
    fn append(&mut self, bytes: &[u8], bit_len: u64) {
        let bit = |at: u64| bytes[(at / 8) as usize] >> (7 - at % 8) & 1 == 1;
        self.bits.extend((0..bit_len).map(bit));
    }

    /// What `finish` returns: MSB-first bytes, the last one zero-padded.
    fn finish(&self) -> (Vec<u8>, u64) {
        let mut bytes = vec![0u8; self.bits.len().div_ceil(8)];
        for (at, _) in self.bits.iter().enumerate().filter(|(_, &bit)| bit) {
            bytes[at / 8] |= 0x80 >> (at % 8);
        }
        (bytes, self.bits.len() as u64)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every operation of the writer, interleaved, against the model: the
    /// same `bit_len` after each, and the same stream whenever it is
    /// finished — which a clone does without ending the writer, so the
    /// pending word is checked at every alignment it can have.
    #[test]
    fn writer_matches_bit_at_a_time_model(
        ops in prop::collection::vec((0u8..5, any::<u64>(), 0u32..=64), 1..80),
    ) {
        let mut writer = BitWriter::new();
        let mut model = WriterModel::default();
        for (op, value, n) in ops {
            // Up to 256 bits: a few whole words and a tail of any length.
            let len = (value >> 7) % 257;
            match op {
                0 => {
                    writer.write_bit(value & 1 == 1);
                    model.write_bits(value & 1, 1);
                }
                1 => {
                    let value = if n == 64 { value } else { value & ((1 << n) - 1) };
                    writer.write_bits(value, n);
                    model.write_bits(value, n);
                }
                2 => {
                    writer.write_zeros(len);
                    (0..len).for_each(|_| model.write_bits(0, 1));
                }
                3 => {
                    // Another writer's output, `len` bits of it, onto this
                    // one wherever it stands.
                    let mut other = BitWriter::new();
                    (0..4).for_each(|i| other.write_bits(value.rotate_left(i * 16), 64));
                    let (bytes, bit_len) = other.finish();
                    prop_assert_eq!(bit_len, 256);
                    writer.append(&bytes, len);
                    model.append(&bytes, len);
                }
                _ => {
                    let small = value % 1000;
                    codes::write_gamma(&mut writer, small);
                    let width = 64 - (small + 1).leading_zeros();
                    model.write_bits(0, width - 1);
                    model.write_bits(small + 1, width);
                }
            }
            prop_assert_eq!(writer.bit_len(), model.bits.len() as u64);
            prop_assert_eq!(writer.clone().finish(), model.finish());
        }
    }

    #[test]
    fn gamma_round_trips(v in 0u64..=u64::MAX - 1) {
        let mut w = BitWriter::new();
        codes::write_gamma(&mut w, v);
        let (bytes, bits) = w.finish();
        prop_assert_eq!(bits, codes::gamma_len(v));
        let mut r = BitReader::with_bit_len(&bytes, bits);
        prop_assert_eq!(codes::read_gamma(&mut r).unwrap(), v);
    }

    #[test]
    fn delta_round_trips(v in 0u64..=u64::MAX - 1) {
        let mut w = BitWriter::new();
        codes::write_delta(&mut w, v);
        let (bytes, bits) = w.finish();
        prop_assert_eq!(bits, codes::delta_len(v));
        let mut r = BitReader::with_bit_len(&bytes, bits);
        prop_assert_eq!(codes::read_delta(&mut r).unwrap(), v);
    }

    #[test]
    fn minimal_binary_round_trips(n in 1u64..100_000, seed in any::<u64>()) {
        let x = seed % n;
        let mut w = BitWriter::new();
        codes::write_minimal_binary(&mut w, x, n);
        let (bytes, bits) = w.finish();
        prop_assert_eq!(bits, codes::minimal_binary_len(x, n));
        let mut r = BitReader::with_bit_len(&bytes, bits);
        prop_assert_eq!(codes::read_minimal_binary(&mut r, n).unwrap(), x);
    }

    #[test]
    fn mixed_streams_decode_in_order(values in prop::collection::vec(0u64..1_000_000, 0..200)) {
        let mut w = BitWriter::new();
        for (i, &v) in values.iter().enumerate() {
            match i % 3 {
                0 => codes::write_gamma(&mut w, v),
                1 => codes::write_delta(&mut w, v),
                _ => codes::write_unary(&mut w, v % 257),
            }
        }
        let (bytes, bits) = w.finish();
        let mut r = BitReader::with_bit_len(&bytes, bits);
        for (i, &v) in values.iter().enumerate() {
            let got = match i % 3 {
                0 => codes::read_gamma(&mut r).unwrap(),
                1 => codes::read_delta(&mut r).unwrap(),
                _ => codes::read_unary(&mut r).unwrap(),
            };
            let want = if i % 3 == 2 { v % 257 } else { v };
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bitvec_round_trips(bits in prop::collection::vec(any::<bool>(), 0..512)) {
        let mut w = BitWriter::new();
        rle::write_bitvec(&mut w, &bits);
        let (bytes, blen) = w.finish();
        prop_assert_eq!(blen, rle::encoded_len(&bits));
        let mut r = BitReader::with_bit_len(&bytes, blen);
        let mut decoded = vec![false; bits.len()];
        rle::read_bitvec_set_positions(&mut r.window(), bits.len(), |i| decoded[i] = true).unwrap();
        prop_assert_eq!(decoded, bits);
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn huffman_round_trips_random_alphabets(
        freqs in prop::collection::vec(0u64..10_000, 1..200),
        picks in prop::collection::vec(any::<u32>(), 0..500),
    ) {
        let coded: Vec<u32> = freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(s, _)| s as u32)
            .collect();
        prop_assume!(!coded.is_empty());
        let code = HuffmanCode::from_frequencies(&freqs);
        let msg: Vec<u32> = picks.iter().map(|&p| coded[p as usize % coded.len()]).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            code.encode(&mut w, s);
        }
        let (bytes, bits) = w.finish();
        let dec = code.decoder();
        let mut r = BitReader::with_bit_len(&bytes, bits);
        for &s in &msg {
            prop_assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn huffman_table_survives_serialisation(
        freqs in prop::collection::vec(0u64..1_000, 1..100),
    ) {
        prop_assume!(freqs.iter().any(|&f| f > 0));
        let code = HuffmanCode::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        code.write_lengths(&mut w);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::with_bit_len(&bytes, bits);
        let rebuilt = HuffmanCode::read_lengths(&mut r).unwrap();
        for s in 0..freqs.len() as u32 {
            prop_assert_eq!(code.len_of(s), rebuilt.len_of(s));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_decoders(data in prop::collection::vec(any::<u8>(), 0..64)) {
        // Decoding random garbage may error; it must never panic.
        let mut r = BitReader::new(&data);
        let _ = codes::read_gamma(&mut r);
        let mut r = BitReader::new(&data);
        let _ = codes::read_delta(&mut r);
        let mut r = BitReader::new(&data);
        let _ = rle::read_bitvec_set_positions(&mut r.window(), 40, |i| assert!(i < 40));
        let mut r = BitReader::new(&data);
        let _ = HuffmanCode::read_lengths(&mut r);
    }
}
