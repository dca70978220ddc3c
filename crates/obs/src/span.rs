//! Span timing: the process-wide metrics flag, the [`Stopwatch`], and
//! [`record_span`] which feeds a histogram and the trace ring at once.
//!
//! `Stopwatch` is the one sanctioned wrapper around `std::time::Instant`
//! in this workspace — clippy's `disallowed_methods` (SN211, `clippy.toml`)
//! rejects `Instant::now` anywhere else outside test code, so every
//! duration anyone measures can flow into the registry and trace buffer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns process-wide metrics collection on or off. The CLI raises this
/// before opening any representation so construction-time registration
/// (e.g. `CacheMetrics::auto`) sees it.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether process-wide metrics collection is on. A single relaxed load —
/// cheap enough to guard every instrumentation site.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// The process's trace epoch, anchored by the first timestamp that asks
/// for it. Trace events share this epoch so their timestamps are mutually
/// comparable.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// A monotonic timer. Construction is a single clock read — the
/// trace-epoch-relative start a trace event needs is derived lazily in
/// [`Stopwatch::start_us`], so the per-list instrumentation on the decode
/// path never pays for a timestamp nobody renders.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[allow(clippy::disallowed_methods)] // The one sanctioned clock read.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed wall time since construction.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds since construction (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        let n = self.elapsed().as_nanos();
        u64::try_from(n).unwrap_or(u64::MAX)
    }

    /// Trace-epoch-relative start time in microseconds (0 for a stopwatch
    /// started before the first trace timestamp anchored the epoch).
    pub fn start_us(&self) -> u64 {
        let epoch = *EPOCH.get_or_init(|| self.start);
        self.start.saturating_duration_since(epoch).as_micros() as u64
    }
}

/// Finishes the span begun by `sw`: records its duration into the global
/// histogram `{name}_ns` (when metrics are enabled) and appends a complete
/// trace event under category `cat` (when tracing is enabled). Returns the
/// elapsed nanoseconds either way, so callers can keep their own
/// bookkeeping from the same measurement.
pub fn record_span(name: &str, cat: &str, sw: &Stopwatch) -> u64 {
    record_span_args(name, cat, sw, &[])
}

/// [`record_span`], with string args attached to the trace event (e.g.
/// the serve path's request op-code and cache shard id). Args only cost
/// when tracing is enabled; the histogram side is identical.
pub fn record_span_args(name: &str, cat: &str, sw: &Stopwatch, args: &[(&str, &str)]) -> u64 {
    let ns = sw.elapsed_ns();
    if metrics_enabled() {
        crate::registry::global()
            .histogram(&format!("{name}_ns"))
            .record(ns);
    }
    if crate::trace::trace_enabled() {
        crate::trace::push_event_args(name, cat, sw.start_us(), ns / 1_000, args);
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed_ns() >= 1_000_000);
    }

    #[test]
    fn start_us_is_epoch_relative_and_monotonic() {
        let a = Stopwatch::start();
        let b = Stopwatch::start();
        assert!(b.start_us() >= a.start_us());
    }
}
