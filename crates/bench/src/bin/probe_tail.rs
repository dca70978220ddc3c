//! The read path's tail and its open cost, per rung of the scale ladder
//! (ROADMAP item 18(a)).
//!
//! For each size (100 and 1 000 paper-millions: 100 000 and 1 000 000
//! pages at the default scale; seed 42) it streams the corpus, builds the
//! directory and records, over the 10 000 probes `golden_build.rs` pins
//! (page `i · 2 654 435 761 mod n`):
//!
//! * `SNode::open_resident`, and a fresh open → its first answer, in ms,
//!   each the best of 20 tries;
//! * one cold pass under a budget of 10 bytes a page (1 MiB-ish at 100 k,
//!   the `nav-100k` ratio) and a warm pass under 256 MiB after a pass that
//!   fills it: p50, p99 and p99.9 over all probes, and bucketed by the size
//!   of the probe's element (supernode), with each bucket's share of the
//!   probes and of the time;
//! * the bytes the cold pass loaded into the cache, by class, and its
//!   hits, misses, evictions and refusals (`GraphCacheStats`);
//! * the `VmRSS` each handle adds to this process at its open and over
//!   its pass (the warm one's fill pass), read from `/proc/self/status`.
//!   The corpus and the build run on a thread of their own, and both
//!   handles are opened before anything else, so that neither reuses heap
//!   another part of the run freed; what glibc reuses anyway makes each
//!   growth a floor on what the handle holds.
//!
//! Usage: `cargo run -p wg-bench --release --bin probe_tail [--scale
//! pages-per-million] [--seed N]`. The committed `results/probe_tail.txt`
//! is its output; CI runs it at `--scale 20` (2 000 and 20 000 pages).

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use std::time::Duration;
use wg_bench::{timed, BenchArgs};
use wg_corpus::CorpusConfig;
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

/// The sizes, in paper-millions.
const RUNGS: [u32; 2] = [100, 1_000];
/// Probes per pass: `golden_build.rs`'s set.
const PROBES: u64 = 10_000;
/// Opens per rung, of which the best is reported.
const OPENS: u32 = 20;
/// The cold budget per page: `nav-100k`'s 1 MiB over 100 k pages.
const COLD_BYTES_PER_PAGE: usize = 10;
/// The warm budget.
const WARM_BUDGET: usize = 256 << 20;
/// Element-size buckets: lower bounds in pages.
const BUCKETS: [u32; 3] = [1, 1_000, 20_000];

fn main() {
    let args = BenchArgs::parse();
    println!(
        "== Probe tail and open cost: seed {}, {PROBES} probes ==",
        args.seed
    );
    println!(
        "(latencies in us; each probe one `out_neighbors_into`; open times the best of {OPENS})"
    );
    for millions in RUNGS {
        rung(&args, args.pages_for(millions));
    }
}

/// One size: build, open, probe, report.
fn rung(args: &BenchArgs, pages: u32) {
    let root = args.work_dir.join(pages.to_string());
    let (corpus, dir) = (root.join("corpus"), root.join("repo"));
    let config = CorpusConfig::scaled(pages, args.seed);
    // On a thread of its own, so that what the corpus and the build free
    // stays in that thread's malloc arena and the handles opened below on
    // this one grow the resident set by what they hold.
    let build = || {
        wg_corpus::stream::stream_corpus(&corpus, &config).expect("stream corpus");
        let input = wg_corpus::textio::read_build_input(&corpus).expect("read corpus");
        let urls = input.urls();
        let repo = RepoInput {
            urls: &urls,
            domains: &input.domains,
            graph: &input.graph,
        };
        let (built, t) = timed(|| build_snode(repo, &SNodeConfig::default(), &dir));
        (built.expect("build").0, t)
    };
    let (stats, built) = std::thread::scope(|s| s.spawn(build).join().expect("build thread"));
    std::fs::remove_dir_all(&corpus).ok();

    let n = u64::from(pages.max(1));
    let probes: Vec<u32> = (0..PROBES)
        .map(|i| (i * 2_654_435_761 % n) as u32)
        .collect();
    let cold_budget = pages as usize * COLD_BYTES_PER_PAGE;
    println!(
        "\n-- {pages} pages: {} supernodes, {} superedges, built in {built:.2?} --",
        stats.num_supernodes, stats.num_superedges
    );

    // Both handles first, on heap nothing has freed into yet, so that the
    // resident set grows by what each holds; then the passes.
    let before = rss();
    let cold = SNode::open_resident(&dir, cold_budget).expect("open cold");
    let cold_opened = rss();
    let warm = SNode::open_resident(&dir, WARM_BUDGET).expect("open warm");
    let warm_opened = rss();
    let sizes: Vec<u32> = (probes.iter())
        .map(|&p| cold.page_range(cold.supernode_of(p)).len() as u32)
        .collect();
    let cold_lat = pass(&cold, &probes);
    let cold_passed = rss();
    pass(&warm, &probes);
    let warm_passed = rss();
    let warm_lat = pass(&warm, &probes);
    let (c, resident) = (cold.cache_stats(), cold.resident_bytes());
    drop((cold, warm));

    // Open, and open → first answer, on fresh handles.
    let (mut open_best, mut first_best) = (Duration::MAX, Duration::MAX);
    let mut out = Vec::new();
    for _ in 0..OPENS {
        let (first, t_first) = timed(|| {
            let (snode, t_open) = timed(|| SNode::open_resident(&dir, cold_budget).expect("open"));
            open_best = open_best.min(t_open);
            if let Some(&p) = probes.first() {
                snode.out_neighbors_into(p, &mut out).expect("first answer");
            }
            snode
        });
        first_best = first_best.min(t_first);
        drop(first);
    }
    println!(
        "open_resident {:.3} ms; open -> first answer {:.3} ms",
        ms(open_best),
        ms(first_best)
    );
    println!("resident index files {} KB", resident.div_ceil(1024));
    report(
        &format!("cold, {cold_budget} B budget, one pass"),
        &cold_lat,
        &sizes,
    );
    let mb = |b: u64| b as f64 / 1e6;
    println!(
        "cold bytes loaded: {:.2} MB = intra {:.2} + super {:.2} + fanout {:.2} MB ({:.0} % fanout); \
         {} hits, {} misses, {} evictions, {} refused",
        mb(c.bytes_loaded),
        mb(c.bytes_loaded_intra),
        mb(c.bytes_loaded_super),
        mb(c.bytes_loaded_fanout),
        100.0 * c.bytes_loaded_fanout as f64 / c.bytes_loaded.max(1) as f64,
        c.hits,
        c.misses,
        c.evictions,
        c.refused
    );
    report("warm, 256 MiB budget, second pass", &warm_lat, &sizes);
    let grew = |from: u64, to: u64| mb(to.saturating_sub(from));
    println!(
        "VmRSS the handles add: cold {:.2} MB at open, {:.2} MB over its pass; \
         warm {:.2} MB at open, {:.2} MB over its fill pass",
        grew(before, cold_opened),
        grew(warm_opened, cold_passed),
        grew(cold_opened, warm_opened),
        grew(cold_passed, warm_passed)
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Each probe's latency in ns, in probe order.
fn pass(snode: &SNode, probes: &[u32]) -> Vec<u64> {
    let mut out = Vec::new();
    (probes.iter())
        .map(|&p| {
            let ((), t) = timed(|| snode.out_neighbors_into(p, &mut out).expect("probe"));
            t.as_nanos() as u64
        })
        .collect()
}

/// A table of percentiles, overall and per element-size bucket.
fn report(title: &str, lat: &[u64], sizes: &[u32]) {
    println!("{title}:");
    println!(
        "  {:<16} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "element pages", "probes", "share", "time", "p50", "p99", "p99.9"
    );
    let total: u64 = lat.iter().sum();
    let line = |name: String, mut v: Vec<u64>| {
        v.sort_unstable();
        let time: u64 = v.iter().sum();
        let share = |x: f64, of: f64| format!("{:.1}%", 100.0 * x / of.max(1.0));
        println!(
            "  {name:<16} {:>7} {:>7} {:>7} {:>9.2} {:>9.2} {:>9.2}",
            v.len(),
            share(v.len() as f64, lat.len() as f64),
            share(time as f64, total as f64),
            percentile(&v, 0.5),
            percentile(&v, 0.99),
            percentile(&v, 0.999)
        );
    };
    line("all".into(), lat.to_vec());
    for (i, &lo) in BUCKETS.iter().enumerate() {
        let hi = BUCKETS.get(i + 1).copied().unwrap_or(u32::MAX);
        let name = match hi {
            u32::MAX => format!(">= {lo}"),
            _ => format!("{lo} - {}", hi - 1),
        };
        let v = (lat.iter().zip(sizes))
            .filter(|&(_, &s)| (lo..hi).contains(&s))
            .map(|(&ns, _)| ns)
            .collect();
        line(name, v);
    }
}

/// The `q` quantile of sorted ns, in us (0 for none).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = ((q * sorted.len() as f64).ceil() as usize).saturating_sub(1);
    sorted[rank.min(last)] as f64 / 1e3
}

/// This process's resident set, in bytes (0 where it cannot be read).
fn rss() -> u64 {
    wg_obs::procstat::sample_self().map_or(0, |m| m.rss_bytes)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
