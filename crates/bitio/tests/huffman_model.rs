//! Differential test of [`HuffmanDecoder`] against a bit-at-a-time
//! reference model: over random length tables (complete and incomplete,
//! with codewords up to [`MAX_CODE_LEN`] bits, so well past the decoder's
//! first-level table), streams of codewords followed by garbage bits and
//! cut at every bit, both must decode the same symbols, fail with the same
//! error, and stand at the same position after every step — read from the
//! reader one symbol at a time and through one [`wg_bitio::Window`].

use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashMap;
use wg_bitio::huffman::MAX_CODE_LEN;
use wg_bitio::{BitError, BitReader, BitWriter, HuffmanCode, HuffmanDecoder};

/// The canonical code by its definition, decoded one bit at a time.
struct Model {
    /// `(length, codeword)` → symbol.
    words: HashMap<(u32, u64), u32>,
    /// Per symbol its `(length, codeword)`, length 0 for none.
    codes: Vec<(u32, u64)>,
    max_len: u32,
}

impl Model {
    /// Canonical assignment: by length, then symbol, each codeword the
    /// previous one plus one, shifted left at each longer length.
    fn new(lengths: &[u32]) -> Self {
        let mut order: Vec<u32> = (0..lengths.len() as u32)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));
        let (mut codes, mut words) = (vec![(0, 0); lengths.len()], HashMap::new());
        let (mut code, mut len) = (0u64, 0u32);
        for (i, &s) in order.iter().enumerate() {
            let l = lengths[s as usize];
            if i > 0 {
                code += 1;
            }
            code <<= l - len;
            len = l;
            codes[s as usize] = (l, code);
            words.insert((l, code), s);
        }
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        Self {
            words,
            codes,
            max_len,
        }
    }

    fn decode(&self, buf: &[u8], bit_len: u64, pos: &mut u64) -> Result<u32, BitError> {
        if self.max_len == 0 {
            return Err(BitError::BadCodeTable {
                what: "decoding with an empty code",
            });
        }
        let mut code = 0u64;
        for len in 1..=self.max_len {
            let at = *pos + u64::from(len) - 1;
            if at >= bit_len {
                return Err(BitError::UnexpectedEof { position: bit_len });
            }
            code = code << 1 | u64::from(buf[(at / 8) as usize] >> (7 - at % 8) & 1);
            if let Some(&sym) = self.words.get(&(len, code)) {
                *pos += u64::from(len);
                return Ok(sym);
            }
        }
        Err(BitError::Corrupt {
            what: "invalid Huffman codeword",
        })
    }
}

/// Lengths of up to `max` bits for `n` symbols (the shorter of two uniform
/// draws), about one in eight with no codeword, lengthened at random until the Kraft sum is at most one. Left
/// incomplete more often than not, so garbage finds invalid codewords.
fn random_lengths(rng: &mut TestRng, n: usize, max: u32) -> Vec<u32> {
    let mut lengths: Vec<u32> = (0..n)
        .map(|_| match rng.next_u64() % 8 {
            0 => 0,
            _ => 1 + (rng.next_u64() % u64::from(max)).min(rng.next_u64() % u64::from(max)) as u32,
        })
        .collect();
    let unit = |l: u32| 1u128 << (MAX_CODE_LEN - l);
    let kraft =
        |lengths: &[u32]| -> u128 { lengths.iter().filter(|&&l| l > 0).map(|&l| unit(l)).sum() };
    while kraft(&lengths) > unit(0) {
        let i = (rng.next_u64() % n as u64) as usize;
        match lengths[i] {
            0 => {}
            l if l < max => lengths[i] += 1,
            _ => lengths[i] = 0,
        }
    }
    lengths
}

/// A complete code over skewed frequencies: Fibonacci-like runs (capped,
/// so that their sums fit a `u64`) give codewords up to the length limit.
fn skewed_lengths(rng: &mut TestRng, n: usize) -> Vec<u32> {
    let (mut a, mut b) = (1u64, 1u64);
    let freqs: Vec<u64> = (0..n)
        .map(|_| match rng.next_u64() % 3 {
            0 => 0,
            _ => {
                (a, b) = (b, (a + b).min(1 << 40));
                a
            }
        })
        .collect();
    HuffmanCode::from_frequencies(&freqs).lengths().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decoder_matches_bit_at_a_time_model(
        seed in any::<u64>(),
        n in 1usize..400,
        max in 1u32..=MAX_CODE_LEN,
        skewed in any::<bool>(),
        message in 0usize..24,
        garbage in 0u32..=64,
    ) {
        let mut rng = TestRng::deterministic("huffman_model::tables", seed as u32);
        let lengths = match skewed {
            true => skewed_lengths(&mut rng, n),
            false => random_lengths(&mut rng, n, max),
        };
        let model = Model::new(&lengths);
        let decoder = HuffmanDecoder::from_lengths(&lengths);
        prop_assert!(HuffmanCode::from_lengths(lengths.clone()).is_ok());

        // Codewords of random coded symbols, then garbage bits.
        let coded: Vec<u32> = (0..lengths.len() as u32)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        let mut w = BitWriter::new();
        for _ in 0..message.min(coded.len() * 4) {
            let (len, code) = model.codes[coded[(rng.next_u64() % coded.len() as u64) as usize] as usize];
            w.write_bits(code, len);
        }
        let noise = rng.next_u64();
        w.write_bits(if garbage == 64 { noise } else { noise & ((1 << garbage) - 1) }, garbage);
        let (bytes, bits) = w.finish();

        for cut in 0..=bits {
            let mut reader = BitReader::with_bit_len(&bytes, cut);
            let mut pos = 0u64;
            loop {
                let want = model.decode(&bytes, cut, &mut pos);
                prop_assert_eq!(decoder.decode(&mut reader), want.clone());
                prop_assert_eq!(reader.position(), pos);
                if want.is_err() {
                    break;
                }
            }
            // The same stream through one register window.
            let mut reader = BitReader::with_bit_len(&bytes, cut);
            let mut window = reader.window();
            let mut pos = 0u64;
            loop {
                let want = model.decode(&bytes, cut, &mut pos);
                prop_assert_eq!(window.read_huffman(&decoder), want.clone());
                prop_assert_eq!(window.position(), pos);
                if want.is_err() {
                    break;
                }
            }
        }
    }
}
