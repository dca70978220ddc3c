//! **wg-obs** — the workspace's unified observability layer.
//!
//! The paper's entire evaluation is measurement: Table 2/3 compare
//! bits-per-edge, pages fetched, and navigation time per query. Every such
//! quantity in this workspace flows through the machinery here instead of
//! ad-hoc per-module stat structs:
//!
//! * [`metrics`] — atomic [`Counter`]s, [`Gauge`]s, and fixed-log2-bucket
//!   [`Histogram`]s, cheap enough for hot paths (one relaxed atomic add).
//! * [`registry`] — a thread-safe [`Registry`] mapping hierarchical dotted
//!   names to metrics, with deterministic [`Snapshot`] rendering as text
//!   and JSON (stable key order, so tests and CI can diff output).
//! * [`span`] — [`Stopwatch`] (the only sanctioned wrapper around
//!   `std::time::Instant`; clippy's `disallowed_methods` bans raw
//!   `Instant::now` everywhere else) and [`record_span`], which feeds a
//!   histogram and the trace buffer at once.
//! * [`trace`] — an optional bounded ring buffer of Chrome trace events,
//!   serialisable to a `chrome://tracing`-loadable JSON file.
//!
//! # Enablement model
//!
//! Instrumentation comes in two tiers:
//!
//! * **Instance metrics** (cache hit/miss counters, pager I/O counts)
//!   replace bookkeeping the workspace always did; they are plain relaxed
//!   atomic increments and are always on. When the process-wide metrics
//!   flag ([`set_metrics_enabled`]) is up at construction time, instances
//!   register their counters in the [`global`] registry so snapshots see
//!   them; otherwise they stay private to the instance.
//! * **Shared measurements** (span timers, decode-depth histograms,
//!   worker busy time) are gated on [`metrics_enabled`] /
//!   [`trace_enabled`] so the default build pays one relaxed bool load,
//!   nothing more.
//!
//! Those two flags — metrics and trace — are the only process-global
//! switches; nothing here times individual requests or locks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The sanctioned home of locks and atomics: `disallowed_types` stays allowed.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod metrics;
pub mod procstat;
pub mod registry;
pub mod span;
pub mod trace;

pub use metrics::{CacheMetrics, Counter, Gauge, Histogram, HIST_BUCKETS};
pub use procstat::{sample_self, MemSample, RssGauge};
pub use registry::{global, Registry, SnapValue, Snapshot};
pub use span::{metrics_enabled, record_span, record_span_args, set_metrics_enabled, Stopwatch};
pub use trace::{
    enable_trace, take_trace, trace_enabled, trace_to_json, write_trace_file, TraceEvent,
};

/// Escapes a string for inclusion in a JSON double-quoted literal.
///
/// Metric and span names are dotted identifiers in practice, but snapshots
/// must never emit malformed JSON whatever the caller passed.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
