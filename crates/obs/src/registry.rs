//! The metrics registry: hierarchical dotted names → metric handles, with
//! deterministic snapshot rendering.
//!
//! Names follow a `crate.subsystem.quantity` convention
//! (`core.cache.hits`, `store.pager.page_reads`, `query.q3.wall_ns`).
//! Lookup is get-or-create and type-checked: asking for an existing name
//! with a different metric kind returns a *fresh unregistered* handle
//! instead of panicking, so a misnamed instrument degrades to a private
//! counter rather than taking down a query run.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A thread-safe map from dotted metric names to metric handles.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// The process-wide registry used by `--metrics` and the CLI snapshots.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        // Metric updates are plain atomic stores, so a panic while holding
        // the lock cannot leave the map logically corrupt — recover it.
        self.metrics.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Returns the counter registered under `name`, creating it if absent.
    /// If `name` is taken by a different metric kind, returns a fresh
    /// unregistered counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    /// If `name` is taken by a different metric kind, returns a fresh
    /// unregistered gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Returns the histogram registered under `name`, creating it if
    /// absent. If `name` is taken by a different metric kind, returns a
    /// fresh unregistered histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::new(),
        }
    }

    /// A point-in-time copy of every registered metric, in name order.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.lock();
        let entries = m
            .iter()
            .map(|(name, metric)| {
                let v = match metric {
                    Metric::Counter(c) => SnapValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.nonzero_buckets(),
                    },
                };
                (name.clone(), v)
            })
            .collect();
        Snapshot { entries }
    }

    /// Resets every registered metric to zero/empty (names stay
    /// registered, handles stay valid).
    pub fn reset(&self) {
        let m = self.lock();
        for metric in m.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.set(0),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram, with only non-empty buckets materialised.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Saturating sum of samples.
        sum: u64,
        /// `(bucket_lower_bound, count)` pairs, ascending, non-empty only.
        buckets: Vec<(u64, u64)>,
    },
}

/// A deterministic point-in-time view of a [`Registry`]: entries are
/// sorted by name, and both renderings emit them in that order so two
/// snapshots of identical state produce byte-identical output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, SnapValue)>,
}

impl Snapshot {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&SnapValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The value of counter `name`, or 0 if absent / not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(SnapValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// How much counter `name` grew since `before` was taken. Saturates
    /// at zero if the counter was reset in between.
    pub fn counter_delta(&self, before: &Snapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(before.counter(name))
    }

    /// Plain-text rendering: one `name = value` line per metric,
    /// histograms as `count/sum/mean` plus a compact bucket list.
    pub fn to_text(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, v) in &self.entries {
            match v {
                SnapValue::Counter(c) => {
                    out.push_str(&format!("{name:<width$} = {c}\n"));
                }
                SnapValue::Gauge(g) => {
                    out.push_str(&format!("{name:<width$} = {g}\n"));
                }
                SnapValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let mean = if *count > 0 {
                        *sum as f64 / *count as f64
                    } else {
                        0.0
                    };
                    out.push_str(&format!(
                        "{name:<width$} = count {count}, sum {sum}, mean {mean:.1}\n"
                    ));
                    if !buckets.is_empty() {
                        let parts: Vec<String> = buckets
                            .iter()
                            .map(|(lb, c)| format!(">={lb}: {c}"))
                            .collect();
                        out.push_str(&format!("{:<width$}   [{}]\n", "", parts.join(", ")));
                    }
                }
            }
        }
        out
    }

    /// JSON rendering with one metric per line (stable order), so tests
    /// can filter time-valued lines (`*_ns`, `*_secs`) and diff the rest.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, v)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let key = crate::json_escape(name);
            match v {
                SnapValue::Counter(c) => {
                    out.push_str(&format!("  \"{key}\": {c}{comma}\n"));
                }
                SnapValue::Gauge(g) => {
                    out.push_str(&format!("  \"{key}\": {g}{comma}\n"));
                }
                SnapValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let bs: Vec<String> = buckets
                        .iter()
                        .map(|(lb, c)| format!("[{lb},{c}]"))
                        .collect();
                    out.push_str(&format!(
                        "  \"{key}\": {{\"count\":{count},\"sum\":{sum},\"buckets\":[{}]}}{comma}\n",
                        bs.join(",")
                    ));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_cell() {
        let r = Registry::new();
        let a = r.counter("x.y");
        let b = r.counter("x.y");
        a.add(3);
        assert_eq!(b.get(), 3);
        assert!(a.same_cell(&b));
    }

    #[test]
    fn kind_mismatch_degrades_to_private() {
        let r = Registry::new();
        let _c = r.counter("dual");
        let h = r.histogram("dual");
        h.record(5);
        // The registered metric is still the counter, untouched.
        assert_eq!(r.snapshot().counter("dual"), 0);
    }

    #[test]
    fn snapshot_sorted_and_stable() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.gauge("c.three").set(-3);
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2);
        let names: Vec<&str> = s1.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.one", "b.two", "c.three"]);
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(s1.to_text(), s2.to_text());
    }

    #[test]
    fn counter_delta() {
        let r = Registry::new();
        let c = r.counter("d");
        c.add(5);
        let before = r.snapshot();
        c.add(7);
        let after = r.snapshot();
        assert_eq!(after.counter_delta(&before, "d"), 7);
        assert_eq!(after.counter_delta(&before, "missing"), 0);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("k");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.snapshot().counter("k"), 1);
    }
}
