//! Observed workload execution: runs Queries 1–6 under the metrics
//! registry and reports, per query, the paper's Table 3 quantities —
//! wall time, supernodes visited, intranode/superedge lists decoded,
//! cache hits/misses, and pages fetched.
//!
//! Attribution works by snapshot differencing: the global registry is
//! snapshotted before and after each query and the counter deltas are the
//! query's cost. Counters only land in the global registry when
//! [`wg_obs::metrics_enabled`] was up as the representations were opened,
//! so callers (the CLI's `--metrics`) must raise the flag *before*
//! calling [`run_observed`]. With metrics off the report still carries
//! wall time, navigation calls, and result fingerprints.

use crate::queries::QueryEnv;
use crate::queries::{query1, query2, query3, query4, query5, query6, QueryOutput, Workload};
use crate::reps::{Scheme, SchemeSet};
use crate::Result;
use wg_obs::{record_span, Snapshot, Stopwatch};

/// Per-query observation: result shape plus metric deltas.
#[derive(Debug, Clone)]
pub struct QueryObservation {
    /// Query label (`q1` … `q6`).
    pub query: &'static str,
    /// Wall-clock time of the whole query, nanoseconds.
    pub wall_ns: u64,
    /// Wall-clock time inside the graph representation, nanoseconds.
    pub nav_ns: u64,
    /// Adjacency-list fetches performed.
    pub nav_calls: u64,
    /// Adjacency entries returned.
    pub edges_touched: u64,
    /// Supernodes visited (S-Node navigation only; 0 for baselines).
    pub supernodes_visited: u64,
    /// Intranode lists decoded.
    pub intra_lists_decoded: u64,
    /// Superedge lists decoded.
    pub super_lists_decoded: u64,
    /// Graph lookups answered once for a whole frontier batch group
    /// instead of once per page (S-Node only).
    pub batched_lookups: u64,
    /// Cache hits (graph cache + buffer pools).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Pages fetched from disk (the paper's disk-cost unit).
    pub pages_fetched: u64,
    /// Integrity checksum verifications that failed during this query.
    pub integrity_failures: u64,
    /// Supernodes newly quarantined during this query (degraded mode).
    pub quarantined_supernodes: u64,
    /// Adjacency-list parts skipped due to quarantine during this query.
    pub skipped_edges: u64,
    /// Result rows produced.
    pub rows: u64,
    /// FNV-1a fingerprint of the result rows (determinism check).
    pub fingerprint: u64,
}

/// The whole workload's observations for one scheme.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Scheme the workload ran against.
    pub scheme: &'static str,
    /// One observation per query, in Q1–Q6 order.
    pub queries: Vec<QueryObservation>,
    /// Degradation summary across the whole workload (forward plus
    /// transpose representations), for schemes that support graceful
    /// degradation; `None` otherwise. All-zero on clean directories.
    pub degraded: Option<wg_snode::DegradedReport>,
}

/// FNV-1a over the result rows: keys and score bit patterns, in order.
pub fn fingerprint_rows(rows: &[(u64, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(k, score) in rows {
        eat(k);
        eat(score.to_bits());
    }
    h
}

/// Sums a counter delta over several registry names (a quantity like
/// "cache hits" spans the core graph cache and the store buffer pool).
fn delta_sum(after: &Snapshot, before: &Snapshot, names: &[&str]) -> u64 {
    names.iter().map(|n| after.counter_delta(before, n)).sum()
}

fn observe(
    label: &'static str,
    run: impl FnOnce() -> Result<QueryOutput>,
) -> Result<QueryObservation> {
    let reg = wg_obs::global();
    let before = reg.snapshot();
    let sw = Stopwatch::start();
    let out = run()?;
    let wall_ns = record_span(&format!("query.{label}"), "query", &sw);
    let after = reg.snapshot();
    Ok(QueryObservation {
        query: label,
        wall_ns,
        nav_ns: u64::try_from(out.nav.nav_time.as_nanos()).unwrap_or(u64::MAX),
        nav_calls: out.nav.nav_calls,
        edges_touched: out.nav.edges_touched,
        supernodes_visited: after.counter_delta(&before, "core.nav.supernodes_visited"),
        intra_lists_decoded: after.counter_delta(&before, "core.nav.intra_lists_decoded"),
        super_lists_decoded: after.counter_delta(&before, "core.nav.super_lists_decoded"),
        batched_lookups: after.counter_delta(&before, "core.nav.batched_lookups"),
        cache_hits: delta_sum(&after, &before, &["core.cache.hits", "store.buffer.hits"]),
        cache_misses: delta_sum(
            &after,
            &before,
            &["core.cache.misses", "store.buffer.misses"],
        ),
        pages_fetched: delta_sum(
            &after,
            &before,
            &[
                "core.disk.pages_fetched",
                "store.pager.page_reads",
                "store.files.pages_fetched",
            ],
        ),
        integrity_failures: after.counter_delta(&before, "integrity.failures"),
        quarantined_supernodes: after.counter_delta(&before, "integrity.quarantined_supernodes"),
        skipped_edges: after.counter_delta(&before, "integrity.skipped_edges"),
        rows: out.rows.len() as u64,
        fingerprint: fingerprint_rows(&out.rows),
    })
}

/// Runs the full six-query workload against freshly opened (cold)
/// representations of `scheme`, observing each query.
pub fn run_observed(
    env: QueryEnv<'_>,
    set: &SchemeSet,
    scheme: Scheme,
    workload: &Workload,
) -> Result<WorkloadReport> {
    let fwd = set.open(scheme)?;
    let back = set.open_transpose(scheme)?;
    let queries = vec![
        observe("q1", || query1(env, fwd.as_ref(), &workload.q1))?,
        observe("q2", || query2(env, fwd.as_ref(), &workload.q2))?,
        observe("q3", || {
            query3(env, fwd.as_ref(), back.as_ref(), &workload.q3)
        })?,
        observe("q4", || query4(env, back.as_ref(), &workload.q4))?,
        observe("q5", || query5(env, fwd.as_ref(), &workload.q5))?,
        observe("q6", || query6(env, fwd.as_ref(), &workload.q6))?,
    ];
    let degraded = match (fwd.degraded(), back.degraded()) {
        (Some(f), Some(b)) => Some(wg_snode::DegradedReport {
            quarantined_supernodes: f.quarantined_supernodes + b.quarantined_supernodes,
            skipped_edges: f.skipped_edges + b.skipped_edges,
            retries: f.retries + b.retries,
        }),
        (one, other) => one.or(other),
    };
    Ok(WorkloadReport {
        scheme: scheme.name(),
        queries,
        degraded,
    })
}

impl QueryObservation {
    /// The deterministic (time-free) fields as sorted `(key, value)`
    /// pairs — what two identical runs must reproduce exactly.
    pub fn deterministic_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("batched_lookups", self.batched_lookups),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("edges_touched", self.edges_touched),
            ("fingerprint", self.fingerprint),
            ("integrity_failures", self.integrity_failures),
            ("intra_lists_decoded", self.intra_lists_decoded),
            ("nav_calls", self.nav_calls),
            ("pages_fetched", self.pages_fetched),
            ("quarantined_supernodes", self.quarantined_supernodes),
            ("rows", self.rows),
            ("skipped_edges", self.skipped_edges),
            ("super_lists_decoded", self.super_lists_decoded),
            ("supernodes_visited", self.supernodes_visited),
        ]
    }
}

impl WorkloadReport {
    /// JSON rendering, one field per line, deterministic fields first in
    /// each query object and every time-valued field (`*_ns`) on its own
    /// line — so tests can strip timing lines and diff the rest.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scheme\": \"{}\",\n", self.scheme));
        out.push_str("  \"queries\": {\n");
        for (qi, q) in self.queries.iter().enumerate() {
            let comma = if qi + 1 < self.queries.len() { "," } else { "" };
            out.push_str(&format!("    \"{}\": {{\n", q.query));
            for (k, v) in q.deterministic_fields() {
                out.push_str(&format!("      \"{k}\": {v},\n"));
            }
            out.push_str(&format!("      \"nav_ns\": {},\n", q.nav_ns));
            out.push_str(&format!("      \"wall_ns\": {}\n", q.wall_ns));
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  }");
        if let Some(d) = &self.degraded {
            out.push_str(&format!(
                ",\n  \"degraded\": {{\"quarantined_supernodes\": {}, \"skipped_edges\": {}, \
                 \"retries\": {}}}",
                d.quarantined_supernodes, d.skipped_edges, d.retries
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_and_value_sensitive() {
        let a = vec![(1u64, 0.5f64), (2, 1.0)];
        let b = vec![(2u64, 1.0f64), (1, 0.5)];
        let c = vec![(1u64, 0.5f64), (2, 1.5)];
        assert_ne!(fingerprint_rows(&a), fingerprint_rows(&b));
        assert_ne!(fingerprint_rows(&a), fingerprint_rows(&c));
        assert_eq!(fingerprint_rows(&a), fingerprint_rows(&a.clone()));
        assert_ne!(fingerprint_rows(&[]), 0);
    }
}
