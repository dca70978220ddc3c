//! A fixed piece of synthetic work, timed all through a run, that says how
//! fast the machine was while the run's numbers were taken.
//!
//! The benchmark runs on a few cores of a shared host whose other tenants
//! slow everything by a third to a half for tens of minutes at a time
//! (`README.md` has the measurements): no estimator inside a run sees
//! through a state that outlasts the run, so two sets of runs of the same
//! code, taken half an hour apart, differed by more than any bound the
//! contract allows. The yardstick is read in the same run, the same two
//! ways the program's timings are taken — the least of an item's
//! repetitions, and a typical whole pass — and each timing is reported at
//! the speed at which the yardstick reads its reference value.
//!
//! It touches nothing of the program under test — a change to the
//! program cannot move it — and mixes what the program does: bit-at-a-time
//! code reads, hashing, sorting, and scattered reads of a table larger
//! than the cache.

use crate::stats::SplitMix64;
use std::collections::HashMap;
use std::time::Instant;

/// What the yardstick reads on the quiet 2-vCPU box the benchmark was
/// built on: where the reported timings equal the measured ones.
const REFERENCE_LEAST_US: f64 = 32.3;
const REFERENCE_TYPICAL_MS: f64 = 5.33;

/// Values per item and phase.
const N: usize = 600;
const ITEMS: usize = 128;
/// The table the scattered reads go to: 4 MiB of `u32`.
const TABLE: usize = 1 << 20;

struct Item {
    /// `N` Elias-γ coded values, packed most significant bit first.
    bits: Vec<u8>,
    keys: Vec<u32>,
}

pub struct Yardstick {
    items: Vec<Item>,
    table: Vec<u32>,
    /// Per item, the least time of its repetitions, in ns.
    best_ns: Vec<u64>,
    /// Per pass, the time of the whole pass, in ns.
    pass_ns: Vec<u64>,
    sink: u64,
}

fn gamma_bits(values: &[u32]) -> Vec<u8> {
    let mut bits = Vec::new();
    let (mut cur, mut filled) = (0u8, 0u8);
    let mut push = |b: u8| {
        cur = (cur << 1) | b;
        filled += 1;
        if filled == 8 {
            bits.push(cur);
            (cur, filled) = (0, 0);
        }
    };
    for &v in values {
        let len = 31 - v.leading_zeros();
        (0..len).for_each(|_| push(0));
        (0..=len).rev().for_each(|i| push(((v >> i) & 1) as u8));
    }
    (0..8).for_each(|_| push(1));
    bits
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0x5eed);
        let items = (0..ITEMS)
            .map(|_| {
                let values: Vec<u32> = (0..N).map(|_| rng.below(200) + 1).collect();
                Item {
                    bits: gamma_bits(&values),
                    keys: (0..N).map(|_| rng.next_u64() as u32).collect(),
                }
            })
            .collect();
        Self {
            items,
            table: (0..TABLE as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect(),
            best_ns: vec![u64::MAX; ITEMS],
            pass_ns: Vec::new(),
            sink: 0,
        }
    }

    fn work(item: &Item, table: &[u32]) -> u64 {
        let bit = |p: usize| (item.bits[p >> 3] >> (7 - (p & 7))) & 1;
        let (mut pos, mut sum) = (0usize, 0u64);
        for _ in 0..N {
            let mut len = 0;
            while bit(pos) == 0 {
                len += 1;
                pos += 1;
            }
            let mut v = 0u32;
            for _ in 0..=len {
                v = (v << 1) | u32::from(bit(pos));
                pos += 1;
            }
            sum += u64::from(v);
        }
        let mut map: HashMap<u32, u32> = HashMap::with_capacity(N);
        for (i, &k) in item.keys.iter().enumerate() {
            map.insert(k, i as u32);
        }
        for &k in &item.keys {
            sum += u64::from(map[&k]);
        }
        let mut sorted = item.keys.clone();
        sorted.sort_unstable();
        let mut at = sorted[N / 2] as usize % TABLE;
        for &k in &sorted[..64] {
            at = (table[at] ^ k) as usize % TABLE;
        }
        sum + at as u64
    }

    /// One pass over the items. A `counted` pass also times each item
    /// alone and keeps its least time: the callers count one pass for
    /// every pass over their own probes, so that an item has as many
    /// repetitions to find a quiet moment in as a probe has.
    pub fn pass(&mut self, counted: bool) {
        let t0 = Instant::now();
        for (item, best) in self.items.iter().zip(&mut self.best_ns) {
            let t = Instant::now();
            self.sink ^= std::hint::black_box(Self::work(item, &self.table));
            if counted {
                *best = (*best).min(t.elapsed().as_nanos() as u64);
            }
        }
        self.pass_ns.push(t0.elapsed().as_nanos() as u64);
    }

    /// The median over the items of each item's least time, in µs.
    pub fn least_us(&self) -> f64 {
        let mut v = self.best_ns.clone();
        v.sort_unstable();
        v[v.len() / 2] as f64 / 1e3
    }

    /// The median whole pass, in ms.
    pub fn typical_ms(&self) -> f64 {
        let passes: Vec<f64> = self.pass_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        crate::stats::median(&passes)
    }

    /// How much slower than the reference the machine was for a timing
    /// that is the least of many short repetitions.
    pub fn least_factor(&self) -> f64 {
        self.least_us() / REFERENCE_LEAST_US
    }

    /// How much slower than the reference the machine was for a timing of
    /// a long piece of work, which no quiet moment covers.
    pub fn typical_factor(&self) -> f64 {
        self.typical_ms() / REFERENCE_TYPICAL_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_bits_are_unary_length_then_binary_value() {
        // 1 → "1", 2 → "010", 5 → "00101", then closing ones up to a byte.
        assert_eq!(gamma_bits(&[1, 2, 5]), [0b1010_0010, 0b1111_1111]);
    }

    #[test]
    fn factors_are_readings_over_the_reference() {
        let mut y = Yardstick::new();
        y.pass(false);
        assert!(y.least_us() > 1e9, "nothing counted yet");
        y.pass(true);
        y.pass(true);
        assert!(y.least_us() > 0.0 && y.least_us() < 1e6);
        assert_eq!(y.pass_ns.len(), 3);
        assert!((y.least_factor() * REFERENCE_LEAST_US - y.least_us()).abs() < 1e-9);
        assert!((y.typical_factor() * REFERENCE_TYPICAL_MS - y.typical_ms()).abs() < 1e-9);
    }
}
