//! Metric primitives: counters, gauges, and fixed-log2-bucket histograms.
//!
//! Every primitive is a cheap cloneable handle (`Arc` around atomics), so a
//! hot path resolves its metric once — at construction or via a
//! `OnceLock` — and each event costs one relaxed atomic add. Handles work
//! identically whether or not they are registered in a [`Registry`]
//! (registration just shares the same `Arc` under a name).
//!
//! [`Registry`]: crate::registry::Registry

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Whether two handles share the same underlying cell.
    pub fn same_cell(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A signed gauge: a value that is *set*, not accumulated.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `b >= 1` holds values whose bit length is `b`, i.e. the range
/// `[2^(b-1), 2^b)`. Bucket 64 therefore holds `[2^63, u64::MAX]` — every
/// `u64` maps to exactly one bucket and saturation is impossible by
/// construction.
pub const HIST_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-log2-bucket histogram of `u64` samples.
///
/// Log2 buckets trade resolution for a representation that needs no
/// configuration, no allocation, and no locking: reference-chain depths,
/// span durations in nanoseconds, and queue waits all fit the same 65
/// buckets. `sum` saturates instead of wrapping so a long-running process
/// cannot report a nonsensical mean.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, unregistered, empty histogram.
    pub fn new() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Bucket index of `v`: 0 for 0, else `v`'s bit length.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `b` (0 for buckets 0 and 1).
    pub fn bucket_lower_bound(b: usize) -> u64 {
        if b <= 1 {
            b as u64
        } else {
            1u64 << (b - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // Saturating accumulate: fetch_update loops only under contention.
        let _ = self
            .0
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Count in bucket `b` (0 when out of range).
    fn bucket_count(&self, b: usize) -> u64 {
        self.0
            .buckets
            .get(b)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// `(lower_bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..HIST_BUCKETS)
            .filter_map(|b| {
                let c = self.bucket_count(b);
                (c > 0).then(|| (Self::bucket_lower_bound(b), c))
            })
            .collect()
    }

    /// Resets all buckets and accumulators.
    pub fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
    }
}

/// The shared cache-statistics group: one struct serves every cache in the
/// workspace (the decoded-graph cache in `wg-snode`, the buffer pool in
/// `wg-store`), replacing the two formerly independent stat structs. The
/// historical `stats()` APIs remain as thin views over these counters.
#[derive(Debug, Clone, Default)]
pub struct CacheMetrics {
    /// Lookups satisfied from the cache.
    pub hits: Counter,
    /// Lookups that required a load/fetch.
    pub misses: Counter,
    /// Entries evicted to make room.
    pub evictions: Counter,
    /// Bytes brought into the cache over its lifetime (load traffic).
    pub bytes_loaded: Counter,
}

impl CacheMetrics {
    /// A private, unregistered group (the default for library users).
    pub fn unregistered() -> Self {
        Self::default()
    }

    /// A group whose counters are registered in `reg` under
    /// `{prefix}.hits`, `{prefix}.misses`, `{prefix}.evictions`,
    /// `{prefix}.bytes_loaded`. Instances sharing a prefix share counters.
    pub fn registered(reg: &crate::registry::Registry, prefix: &str) -> Self {
        Self {
            hits: reg.counter(&format!("{prefix}.hits")),
            misses: reg.counter(&format!("{prefix}.misses")),
            evictions: reg.counter(&format!("{prefix}.evictions")),
            bytes_loaded: reg.counter(&format!("{prefix}.bytes_loaded")),
        }
    }

    /// Registered in the global registry when the process-wide metrics
    /// flag is up at construction time, private otherwise. This is how
    /// caches become registry views under `--metrics` without polluting
    /// each other in ordinary test runs.
    pub fn auto(prefix: &str) -> Self {
        if crate::span::metrics_enabled() {
            Self::registered(crate::registry::global(), prefix)
        } else {
            Self::unregistered()
        }
    }

    /// Resets all four counters.
    pub fn reset(&self) {
        self.hits.reset();
        self.misses.reset();
        self.evictions.reset();
        self.bytes_loaded.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 6, "clones share the cell");
        assert!(c.same_cell(&c2));
        c.reset();
        assert_eq!(c2.get(), 0);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_of_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }
}
