//! Seeded input generation and the summary statistics every metric uses.

/// SplitMix64: the one generator behind the corpus seed and every probe
/// and op sequence, so a `--seed` fixes the whole run's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻³² for
    /// every page count the workloads use.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }

    /// An independent stream for sub-sequence `k` of the same seed (one
    /// per client thread, one per purpose).
    pub fn fork(&self, k: u64) -> Self {
        let mut s = Self(self.0 ^ k.wrapping_mul(0xd6e8_feb8_6659_fd93));
        s.next_u64();
        s
    }
}

/// `n` uniform-random page ids below `num_pages`.
pub fn uniform_pages(rng: &mut SplitMix64, num_pages: u32, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.below(num_pages)).collect()
}

/// `n` page ids below `num_pages`, evenly spaced from a random offset
/// and then shuffled: a systematic sample. Page ids run supernode by
/// supernode, and what a probe costs is mostly its supernode's doing
/// (how many graphs it has, how large they are), so even spacing gives
/// every seed the same mix of cheap and dear pages, where `n`
/// independent draws would differ in how many of the few dear ones they
/// caught — the seed, not the program, would move p50 by several per
/// cent and the tail by more. The shuffle keeps neighbours in id order
/// (often the same supernode) from being asked back to back.
pub fn systematic_pages(rng: &mut SplitMix64, num_pages: u32, n: usize) -> Vec<u32> {
    let stride = f64::from(num_pages) / n.max(1) as f64;
    let offset = rng.next_u64() as f64 / (u64::MAX as f64 + 1.0) * stride;
    let mut pages: Vec<u32> = (0..n)
        .map(|k| ((offset + k as f64 * stride) as u32).min(num_pages - 1))
        .collect();
    for i in (1..pages.len()).rev() {
        pages.swap(i, rng.below(i as u32 + 1) as usize);
    }
    pages
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here is the
/// spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        ((q3 - q1) / m).abs()
    }
}

/// Percentile `p` of an ascending sample, or `None` unless at least ten
/// samples lie beyond it — a tail read off fewer is one outlier, not a
/// percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let idx = ((n as f64) * p).ceil() as usize;
    let idx = idx.clamp(1, n.max(1)) - 1;
    (n > 0 && n - 1 - idx >= 10).then(|| sorted[idx])
}

/// The highest of p99, p90, p75 and p50 the sample supports under the
/// ten-beyond rule, with its label; the plain median of a tiny sample.
pub fn highest_percentile(sorted: &[u64]) -> (&'static str, u64) {
    for (label, p) in [("p99", 0.99), ("p90", 0.90), ("p75", 0.75), ("p50", 0.50)] {
        if let Some(v) = percentile(sorted, p) {
            return (label, v);
        }
    }
    ("p50*", sorted.get(sorted.len() / 2).copied().unwrap_or(0))
}

/// p50 of an ascending sample (any size ≥ 1).
pub fn p50(sorted: &[u64]) -> u64 {
    sorted.get(sorted.len() / 2).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_systematic_sample_is_seeded_evenly_spaced_and_shuffled() {
        let draw = |seed| systematic_pages(&mut SplitMix64::new(seed), 100_000, 1_000);
        let (a, b) = (draw(7), draw(8));
        assert_eq!(a, draw(7));
        assert_ne!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_ne!(sorted, a, "the sample is shuffled");
        assert!(sorted.windows(2).all(|w| w[1] - w[0] == 100));
        assert!(sorted[0] < 100 && sorted[999] >= 99_900);
        // More pages asked for than there are: still in range.
        assert!(systematic_pages(&mut SplitMix64::new(1), 10, 25)
            .iter()
            .all(|&p| p < 10));
    }

    #[test]
    fn splitmix_is_deterministic_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Reference value of the published SplitMix64 for seed 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
        let f1 = SplitMix64::new(42).fork(1).next_u64();
        let f2 = SplitMix64::new(42).fork(2).next_u64();
        assert_ne!(f1, f2);
        assert_eq!(f1, SplitMix64::new(42).fork(1).next_u64());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<u64> = (1..=1000).collect();
        // p99 of 1000: index 989, ten samples (991..=1000) beyond.
        assert_eq!(percentile(&s, 0.99), Some(990));
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&s, 0.99), None);
        assert_eq!(highest_percentile(&s).0, "p90");
        let s: Vec<u64> = (1..=21).collect();
        assert_eq!(highest_percentile(&s), ("p50", 11));
        let s: Vec<u64> = (1..=5).collect();
        assert_eq!(highest_percentile(&s), ("p50*", 3));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
