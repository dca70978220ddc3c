//! Work-pool concurrency layer for the build pipeline.
//!
//! Construction cost is dominated by one embarrassingly-parallel stage,
//! per-supernode reference encoding (§5 of the paper's pipeline), so this
//! module provides the one primitive it needs: map a function over an index
//! space on a bounded pool of workers and return the results **in input
//! order**. Every helper here is deterministic by construction: scheduling
//! decides only *when* an item is computed, never *what* is computed or
//! where its result lands, so a build that consumes these results is
//! byte-identical across thread counts.
//!
//! Built on [`std::thread::scope`] (workers borrow the caller's data; no
//! `'static` bounds, no detached threads) plus [`parking_lot::Mutex`] for
//! result collection. Work is distributed dynamically through an atomic
//! cursor rather than pre-chunked ranges, so heavily skewed per-item costs
//! (one giant supernode among thousands of small ones) still balance.

use std::sync::atomic::Ordering;

/// Resolves an effective worker count from a configured value.
///
/// `0` means "auto": the `WGR_THREADS` environment variable if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`],
/// taken once a process (it reads the cgroup's CPU quota from files, about
/// 25 µs, and every directory open asks).
/// Any explicit positive value wins over both.
#[allow(clippy::disallowed_types)] // The machine's parallelism, found once.
pub fn resolve_threads(configured: u32) -> u32 {
    static MACHINE: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("WGR_THREADS") {
        if let Ok(n) = v.trim().parse::<u32>() {
            if n > 0 {
                return n;
            }
        }
    }
    *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u32))
}

/// Maps `f` over `0..n` with up to `threads` workers, returning results in
/// index order.
///
/// With `threads <= 1` (or trivially small `n`) the map runs inline on the
/// caller's thread — no pool, no locks — which is also the reference
/// behaviour the parallel path must reproduce exactly.
///
/// # Panics
/// Propagates a panic from `f` (the scope re-raises it on join).
#[allow(clippy::disallowed_types)] // The build's work cursor and result slot.
pub fn par_map<R, F>(threads: u32, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = (threads as usize).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let collected: parking_lot::Mutex<Vec<(usize, R)>> =
        parking_lot::Mutex::new(Vec::with_capacity(n));
    // Pool instrumentation is resolved once per job, not per item; the
    // disabled path pays a single bool load here and nothing in the loop.
    let obs = wg_obs::metrics_enabled().then(|| {
        let reg = wg_obs::global();
        reg.counter("core.par.jobs").inc();
        (
            reg.histogram("core.par.worker_busy_ns"),
            reg.histogram("core.par.collect_wait_ns"),
            reg.counter("core.par.items_claimed"),
        )
    });
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let busy = wg_obs::Stopwatch::start();
                // Claim one index at a time: items are coarse (a whole
                // supernode) so cursor contention is noise, and dynamic
                // claiming is what absorbs size skew.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                if let Some((worker_busy, collect_wait, items)) = &obs {
                    worker_busy.record(busy.elapsed_ns());
                    items.add(local.len() as u64);
                    let wait = wg_obs::Stopwatch::start();
                    collected.lock().extend(local);
                    collect_wait.record(wait.elapsed_ns());
                } else {
                    collected.lock().extend(local);
                }
            });
        }
    });
    let mut collected = collected.into_inner();
    debug_assert_eq!(collected.len(), n);
    collected.sort_unstable_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1u32, 2, 4, 8] {
            let got = par_map(threads, 100, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_balances_skewed_items() {
        // One expensive item among cheap ones must not change results.
        let got = par_map(4, 50, |i| {
            if i == 3 {
                (0..200_000u64).sum::<u64>() + i as u64
            } else {
                i as u64
            }
        });
        assert_eq!(got[3], (0..200_000u64).sum::<u64>() + 3);
        assert_eq!(got[49], 49);
    }

    #[test]
    fn resolve_threads_explicit_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn concurrent_counter_increments_from_pool() {
        // Obs counters must not lose increments under the work pool's
        // real concurrency (relaxed atomics are sufficient for counts).
        let c = wg_obs::Counter::new();
        let h = wg_obs::Histogram::new();
        par_map(8, 10_000, |i| {
            c.inc();
            h.record(i as u64);
        });
        assert_eq!(c.get(), 10_000);
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), (0..10_000u64).sum::<u64>());
    }
}
