//! The two workloads and the traced run.
//!
//! Both workloads walk the whole life of a crawl — generate the corpus,
//! build the representation through `wgr build`, open it, answer
//! adjacency-list requests cold and warm — so every run can report every
//! end-to-end metric (the driver requires that). What differs is the size
//! (300 k vs 100 k pages) and with it where the run spends its measured
//! seconds: in builds or in probes. `README.md` says why each exists, and
//! why `wgr serve` is priced in the traced run only.
//!
//! Every timing is the least over repetitions of identical work. The
//! machine this runs on is a few cores of a shared host: the neighbours'
//! load comes and goes in spells of seconds and only ever adds time, so
//! the least of a piece of work's repetitions is the program and the rest
//! is the host. A run is therefore several *rounds*, each one build
//! followed by passes over the same probes, so that every repeated thing
//! is sampled across the whole run.

use crate::layers::{self, BuildRun, Res, Resident, Server, ServerSpec, Shadow, Truth, Wire};
use crate::stats::{
    highest_percentile, median, p50, quartiles, systematic_pages, uniform_pages, SplitMix64,
};
use crate::trace::Tracer;
use crate::yardstick::Yardstick;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 2] = ["build-300k", "nav-100k"];

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("build_peak_rss_mb", "MB"),
    ("bits_per_edge", "bits"),
    ("first_answer_ms", "ms"),
    ("nav_p50_us", "us"),
    ("nav_warm_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ops_per_s", "1/s"),
    ("serving_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("bitio.gamma_decode_ns_per_symbol", "ns"),
    ("bitio.gamma_encode_ns_per_symbol", "ns"),
    ("bitio.huffman_decode_ns_per_symbol", "ns"),
    ("refenc.index_parse_us_per_graph", "us"),
    ("refenc.index_parse_ns_per_byte", "ns"),
    ("refenc.graphs_per_probe", "count"),
    ("refenc.encoded_bytes_per_probe", "bytes"),
    ("refenc.decode_list_ns_per_edge", "ns"),
    ("refenc.decode_all_ns_per_edge", "ns"),
    ("refenc.encode_ns_per_edge", "ns"),
    ("disk.read_blob_ns_per_graph", "ns"),
    ("disk.crc32c_ns_per_byte", "ns"),
    ("disk.open_resident_ms", "ms"),
    ("disk.resident_bytes", "bytes"),
    ("cache.get_hit_ns", "ns"),
    ("cache.insert_evict_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_probe", "count"),
    ("cache.bytes_loaded_per_probe", "bytes"),
    ("nav.scalar_us_per_call", "us"),
    ("nav.warm_us_per_call", "us"),
    ("nav.batch_us_per_page", "us"),
    ("nav.edges_per_probe", "count"),
    ("nav.p99_us", "us"),
    ("nav.shadow_us_per_probe", "us"),
    ("nav.unattributed_share", "ratio"),
    ("corpus.stream_s", "s"),
    ("corpus.read_s", "s"),
    ("build.refine_s", "s"),
    ("build.remap_s", "s"),
    ("build.encode_s", "s"),
    ("build.write_s", "s"),
    ("build.rss_after_read_mb", "MB"),
    ("build.scaling_ratio", "ratio"),
    ("build.bits_intranode_per_edge", "bits"),
    ("build.bits_superedge_per_edge", "bits"),
    ("build.bits_meta_per_edge", "bits"),
    ("build.supernodes", "count"),
    ("build.superedges", "count"),
    ("query.q1_ms", "ms"),
    ("query.q2_ms", "ms"),
    ("query.q3_ms", "ms"),
    ("query.q4_ms", "ms"),
    ("query.q5_ms", "ms"),
    ("query.q6_ms", "ms"),
    ("query.cycle_ms", "ms"),
    ("query.lists_decoded_per_cycle", "count"),
    ("query.pages_fetched_per_cycle", "count"),
    ("serve.ready_s", "s"),
    ("serve.rps", "1/s"),
    ("serve.cycle_p50_ms", "ms"),
    ("serve.nav_p50_us", "us"),
    ("serve.nav_warm_p50_us", "us"),
    ("serve.ping_rtt_us", "us"),
    ("serve.wire_overhead_ms", "ms"),
    ("serve.first_reply_p50_ms", "ms"),
    ("serve.first_reply_p75_ms", "ms"),
    ("serve.tail_ms", "ms"),
    ("serve.overloaded", "count"),
    ("serve.errors", "count"),
    ("serve.telemetry_overhead_share", "ratio"),
    ("serve.rss_mb", "MB"),
    ("obs.trace_overhead_share", "ratio"),
    ("obs.spans", "count"),
    ("obs.shadow_probes", "count"),
];

/// The data set: every run generates the same corpus at the workload's
/// size, and `--seed` draws the probe pages and op sequences over it.
/// Redrawing the corpus per seed was measured first: at 100 k pages the
/// Zipf head of the domain sizes differs enough between seeds to move
/// build_peak_rss_mb by 30 % and op_p99_us by 36 % — no bound the
/// contract allows could hold a metric that the seed itself moves.
const CORPUS_SEED: u64 = 42;
/// Shards of every `wgr build`.
const SHARDS: u32 = 8;
/// The cache budget that makes the working set ≫ cache (§4.3's cap).
const COLD_BUDGET: usize = 1 << 20;
/// A budget every representation here fits in.
const WARM_BUDGET: usize = 256 << 20;
/// Probes of a cold pass: the fewest that carry a p99 with room to spare.
const COLD_PROBES: usize = 1_100;
/// Probes of a warm pass (a warm probe costs a thirtieth of a cold one).
const WARM_PROBES: usize = 4_000;
/// Warm passes after each cold pass.
const WARM_PER_COLD: usize = 2;
/// One shadow probe per this many traced probes …
const SHADOW_EVERY: usize = 10;
/// … but no more than this many in a pass (a shadow probe is ~270 spans).
const SHADOW_MAX: usize = 200;
/// The serve and query layers are priced on at most this many pages.
const SERVE_PAGES_CAP: u32 = 100_000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// The write side is what is measured; the read side verifies it.
    Build,
    /// In-process navigation, cold and warm.
    Nav,
}

#[derive(Debug, Clone, Copy)]
struct Plan {
    kind: Kind,
    pages: u32,
    /// The measured section is this many rounds of `--seconds / rounds`
    /// each; a round is one `wgr build`, then groups of passes until its
    /// share is spent, at least `min_groups`.
    rounds: usize,
    min_groups: usize,
    /// Pages whose `open_resident → first answer` is timed once per cold
    /// pass.
    first_answers: usize,
    /// Untimed cold probes before the first timed pass.
    warmup: usize,
}

fn plan(workload: &str, quick: bool) -> Option<Plan> {
    // Four 300 k builds leave a 40-second run little time to read: two
    // groups of passes a round, however long the builds took.
    // (An open costs 9 ms at 300 k pages and varies little from page to
    // page; at 100 k it is 3 ms and the first probe is a third of it.)
    let (kind, pages, rounds, min_groups, first_answers) = match workload {
        "build-300k" => (Kind::Build, 300_000, 4, 2, 16),
        "nav-100k" => (Kind::Nav, 100_000, 8, 1, 48),
        _ => return None,
    };
    let mut p = Plan {
        kind,
        pages,
        rounds,
        min_groups,
        first_answers,
        warmup: 500,
    };
    if quick {
        p.pages = 5_000;
        p.rounds = 1;
        p.min_groups = 1;
        p.warmup = 100;
    }
    Some(p)
}

pub struct Run<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Flip one byte of the built `index_000.bin` before the probes run.
    pub flip: bool,
    pub wgr: &'a Path,
    /// Scratch directory of this run; the caller removes it.
    pub work: &'a Path,
    /// Where the traced run writes its Chrome trace.
    pub trace_file: Option<&'a Path>,
    pub threads: usize,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count, quartiles and spread behind the value.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Free-form report lines (reconciliation rows).
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Folds a client thread's tallies into the run's.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    fn put(
        &mut self,
        table: &[(&'static str, &'static str)],
        name: &str,
        value: f64,
        note: String,
    ) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note,
        });
    }

    fn e2e(&mut self, name: &str, value: f64, note: String) {
        self.put(&END_TO_END, name, value, note);
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.put(&PER_LAYER, name, value, String::new());
    }

    /// The median over items (pages, clients), with the count and
    /// quartiles printed beside it.
    fn e2e_median(&mut self, name: &str, samples: &[f64], of: &str) {
        let (q1, q3) = quartiles(samples);
        let note = format!(
            "median of {} {of}; q1 {q1:.6} q3 {q3:.6}",
            samples.len()
        );
        self.e2e(name, median(samples), note);
    }
}

fn least(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn run(r: &Run<'_>, trace: bool) -> Res<Outcome> {
    let plan = plan(r.workload, r.quick).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {}",
            r.workload,
            WORKLOADS.join(", ")
        )
    })?;
    if trace {
        return traced(r, &plan);
    }
    in_process(r, &plan)
}

/// Streams the data set into `dir` a few times over (it is identical
/// work: twice above 100 k pages, three times below) and reports the
/// least time, so that `setup_s` is not one sample of the machine's mood.
fn stream_data_set(
    dir: &Path,
    plan: &Plan,
    quick: bool,
    yard: &mut Yardstick,
) -> Res<layers::Streamed> {
    let repeats = match (quick, plan.pages > 100_000) {
        (true, _) => 1,
        (_, true) => 2,
        _ => 3,
    };
    yard.pass(false);
    let mut best = layers::stream_corpus(dir, plan.pages, CORPUS_SEED)?;
    yard.pass(false);
    for _ in 1..repeats {
        let again = layers::stream_corpus(dir, plan.pages, CORPUS_SEED)?;
        yard.pass(false);
        best.secs = best.secs.min(again.secs);
    }
    Ok(best)
}

/// `--threads` of every build: one fewer than the machine's, at most 4.
/// The last core is left to the benchmark's own threads (the memory
/// poller, the load generator) and to whatever else the host runs: a
/// build on every core measured the scheduler (identical 100 k builds on
/// 2 of 2 cores: 1.56–2.25 s).
fn build_threads(r: &Run<'_>) -> u32 {
    r.threads.saturating_sub(1).clamp(1, 4) as u32
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// When round `k` (from 0) of a measured section that began at `start`
/// ends: the rounds share `--seconds` equally, and time one round leaves
/// over goes to the next.
fn round_end(r: &Run<'_>, plan: &Plan, start: Instant, k: usize) -> Instant {
    let share = if r.quick { 0.0 } else { r.seconds / plan.rounds as f64 };
    start + Duration::from_secs_f64(share * (k + 1) as f64)
}

// ---------------------------------------------------------------------
// The in-process read side.

/// Probe pages of a seed with the hash of each true adjacency list.
struct ProbeSet {
    probes: Vec<u32>,
    expected: Vec<u64>,
}

impl ProbeSet {
    fn new(rng: &mut SplitMix64, truth: &Truth, n: usize) -> Self {
        let probes = systematic_pages(rng, truth.graph().num_nodes(), n);
        Self {
            expected: truth.expected(&probes),
            probes,
        }
    }
}

/// One pass over a probe set: every call timed alone, every answer
/// checked outside the timed region. Returns each probe's latency in ns,
/// `u64::MAX` where the answer was wrong or an error.
fn nav_pass(h: &Resident, set: &ProbeSet, out: &mut Outcome) -> Vec<u64> {
    let mut buf = Vec::new();
    let mut time = |(&p, &want): (&u32, &u64)| {
        let t = Instant::now();
        let res = h.probe(p, &mut buf);
        let ns = t.elapsed().as_nanos() as u64;
        out.attempted += 1;
        match res {
            Ok(()) if layers::hash_list(&buf) == want => return ns,
            Ok(()) => out.fail(format!("page {p}: wrong adjacency list")),
            Err(e) => out.fail(format!("page {p}: {e}")),
        }
        u64::MAX
    };
    set.probes
        .iter()
        .zip(&set.expected)
        .map(&mut time)
        .collect()
}

/// The ascending latencies of the probes that were answered correctly.
fn answered(mut lat: Vec<u64>) -> Vec<u64> {
    lat.retain(|&ns| ns != u64::MAX);
    lat.sort_unstable();
    lat
}

/// One handle in its steady state, the probe set it is asked, and per
/// probe the least latency over the passes so far.
struct Lane<'a> {
    handle: Resident,
    set: &'a ProbeSet,
    /// In ns; `u64::MAX`: never answered correctly.
    best_ns: Vec<u64>,
    /// Per pass, the p50 of that pass alone, for the report.
    pass_p50_us: Vec<f64>,
}

impl<'a> Lane<'a> {
    /// Opens `dir` under `budget` and probes `warmup` untimed.
    fn open(dir: &Path, budget: usize, set: &'a ProbeSet, warmup: &[u32]) -> Res<Self> {
        let handle = Resident::open(dir, budget)?;
        let mut buf = Vec::new();
        for &p in warmup {
            handle.probe(p, &mut buf)?;
        }
        Ok(Self {
            handle,
            set,
            best_ns: vec![u64::MAX; set.probes.len()],
            pass_p50_us: Vec::new(),
        })
    }

    fn pass(&mut self, out: &mut Outcome) {
        let lat = nav_pass(&self.handle, self.set, out);
        for (best, &ns) in self.best_ns.iter_mut().zip(&lat) {
            *best = (*best).min(ns);
        }
        self.pass_p50_us.push(p50(&answered(lat)) as f64 / 1e3);
    }

    /// What the report says about the sample behind this lane's numbers.
    fn shape(&self) -> String {
        let (q1, q3) = quartiles(&self.pass_p50_us);
        format!(
            "{} probes, each the best of {} passes (whole-pass p50s: median {:.3} q1 {q1:.3} q3 {q3:.3} us)",
            self.best_ns.iter().filter(|&&ns| ns != u64::MAX).count(),
            self.pass_p50_us.len(),
            median(&self.pass_p50_us)
        )
    }
}

/// Best-of-repetitions latencies on one directory, closed loop, one
/// thread: a cold lane (1 MiB budget, working set ≫ cache) and a warm one
/// (everything fits, filled before the first timed pass).
///
/// Every pass walks the same probes, so a probe's repetitions are the
/// same work: the cold cache has forgotten it long before the next pass
/// (the 1 MiB budget turns over every few dozen probes) and the warm one
/// holds it every time. A probe's latency is the minimum over its
/// repetitions, and the p50, p99 and throughput are taken over those
/// minima — the distribution across *pages* is kept, the interference
/// inside each page's samples is not.
struct Navigator<'a> {
    dir: &'a Path,
    cold: Lane<'a>,
    warm: Lane<'a>,
    /// Pages whose `open_resident → first answer` is timed once per group …
    firsts: &'a ProbeSet,
    /// … and per page the least of those, in ms.
    first_best_ms: Vec<f64>,
}

impl<'a> Navigator<'a> {
    fn new(
        dir: &'a Path,
        [cold, warm, firsts]: [&'a ProbeSet; 3],
        warmup: &[u32],
    ) -> Res<Self> {
        Ok(Self {
            dir,
            cold: Lane::open(dir, COLD_BUDGET, cold, warmup)?,
            warm: Lane::open(dir, WARM_BUDGET, warm, &warm.probes)?,
            firsts,
            first_best_ms: vec![f64::INFINITY; firsts.probes.len()],
        })
    }

    /// A fresh `open_resident` → its first answer, on a handle of its own.
    fn first_answer(&mut self, k: usize, out: &mut Outcome) {
        let (p, want) = (self.firsts.probes[k], self.firsts.expected[k]);
        let mut buf = Vec::new();
        let t = Instant::now();
        let first = Resident::open(self.dir, COLD_BUDGET).and_then(|h| h.probe(p, &mut buf));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match first {
            Ok(()) if layers::hash_list(&buf) == want => {
                self.first_best_ms[k] = self.first_best_ms[k].min(ms);
            }
            Ok(()) => out.fail(format!("first answer for page {p} is wrong")),
            Err(e) => out.fail(format!("open → first answer: {e}")),
        }
    }

    /// One counted pass of the yardstick, the first answers, one cold
    /// pass, the warm passes.
    fn group(&mut self, yard: &mut Yardstick, out: &mut Outcome) {
        yard.pass(true);
        for k in 0..self.first_best_ms.len() {
            self.first_answer(k, out);
        }
        self.cold.pass(out);
        for _ in 0..WARM_PER_COLD {
            self.warm.pass(out);
        }
    }

    /// Groups of passes until `end`, at least `min_groups`; a group is
    /// not begun if one like the last would run past `end`.
    fn run_until(
        &mut self,
        end: Instant,
        min_groups: usize,
        yard: &mut Yardstick,
        out: &mut Outcome,
    ) {
        let mut groups = 0usize;
        let mut last = Duration::ZERO;
        while groups < min_groups || Instant::now() + last <= end {
            let t = Instant::now();
            self.group(yard, out);
            last = t.elapsed();
            groups += 1;
        }
    }
}

/// `build-300k`, `nav-100k`: stream → rounds of (`wgr build` → passes
/// over one `open_resident` handle per budget), the yardstick read all
/// the way through.
fn in_process(r: &Run<'_>, plan: &Plan) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut yard = Yardstick::new();
    let corpus = r.work.join("corpus");
    let dir = r.work.join("snode");
    let again = r.work.join("snode-again");
    let streamed = stream_data_set(&corpus, plan, r.quick, &mut yard)?;
    let threads = build_threads(r);
    let build = |into: &Path, yard: &mut Yardstick| {
        std::fs::remove_dir_all(into).ok();
        yard.pass(false);
        let run = layers::wgr_build(r.wgr, &corpus, into, SHARDS, threads);
        yard.pass(false);
        run
    };
    let mut builds: Vec<BuildRun> = vec![build(&dir, &mut yard)?];

    // Ground truth, reduced to one hash per probe so the corpus can be
    // dropped before the representation is opened: serving_rss_mb then
    // reads the reader's memory, not the checker's.
    let t_prep = Instant::now();
    let (corpus_data, _) = layers::read_corpus(&corpus)?;
    let truth = Truth::new(corpus_data.graph, &dir)?;
    let rng = SplitMix64::new(r.seed);
    let cold_set = ProbeSet::new(&mut rng.fork(1), &truth, COLD_PROBES);
    let warm_set = ProbeSet::new(&mut rng.fork(3), &truth, WARM_PROBES);
    let first_set = ProbeSet::new(&mut rng.fork(4), &truth, plan.first_answers);
    let warmup = uniform_pages(&mut rng.fork(2), truth.graph().num_nodes(), plan.warmup);
    drop(truth);
    let prep_s = t_prep.elapsed().as_secs_f64();
    yard.pass(false);
    if r.flip {
        layers::flip_index_byte(&dir)?;
    }

    out.attempted += 1;
    let mut nav = match Navigator::new(&dir, [&cold_set, &warm_set, &first_set], &warmup) {
        Ok(nav) => nav,
        Err(e) => {
            out.fail(format!("open and warm up: {e}"));
            return Ok(out);
        }
    };
    // The measured section began with the first build; what came between
    // it and here (ground truth, opening, warming up) is not part of it.
    let start = Instant::now() - Duration::from_secs_f64(builds[0].secs);
    for round in 0..plan.rounds {
        if round > 0 {
            builds.push(build(&again, &mut yard)?);
        }
        let end = round_end(r, plan, start, round);
        nav.run_until(end, plan.min_groups, &mut yard, &mut out);
    }
    let (rss, _) = layers::self_memory();

    // Long pieces of work are reported at the yardstick's typical
    // reading, least-of-repetitions latencies at its least one.
    let (long, short) = (yard.typical_factor(), yard.least_factor());
    out.notes.push(format!(
        "yardstick: typical pass {:.3} ms, {long:.3} × its reference (setup_s, build_s are divided by it); \
         items at their least {:.2} us, {short:.3} × (first_answer_ms, nav_*, op_p99_us, ops_per_s)",
        yard.typical_ms(),
        yard.least_us()
    ));
    let measured = |v: f64, unit: &str| format!("measured {v:.6} {unit}");

    // Set-up is the benchmark's own preparation: the data set and the
    // checker's ground truth. The build is not in it — build_s reports it.
    let setup = streamed.secs + prep_s;
    out.e2e(
        "setup_s",
        setup / long,
        format!(
            "{}: stream {:.3} s (least of its repetitions) + checker {prep_s:.3} s",
            measured(setup, "s"),
            streamed.secs
        ),
    );
    let build_s: Vec<f64> = builds.iter().map(|b| b.secs).collect();
    out.e2e(
        "build_s",
        least(&build_s) / long,
        format!(
            "{}, the least of {} identical `wgr build --threads {threads}` processes, spawn → exit; median {:.6}",
            measured(least(&build_s), "s"),
            build_s.len(),
            median(&build_s)
        ),
    );
    let build_rss: Vec<f64> = builds.iter().map(|b| mb(b.peak_rss_bytes)).collect();
    out.e2e_median(
        "build_peak_rss_mb",
        &build_rss,
        "wgr build processes, VmHWM",
    );
    let bits = layers::representation_bits(&dir)? as f64 / streamed.edges as f64;
    out.e2e(
        "bits_per_edge",
        bits,
        format!(
            "exact: (meta.bin + index_*.bin) × 8 / {} edges",
            streamed.edges
        ),
    );
    let cold = answered(nav.cold.best_ns.clone());
    let warm = answered(nav.warm.best_ns.clone());
    let firsts: Vec<f64> = nav
        .first_best_ms
        .iter()
        .copied()
        .filter(|ms| ms.is_finite())
        .collect();
    if cold.is_empty() || warm.is_empty() || firsts.is_empty() {
        return Ok(out);
    }
    let (q1, q3) = quartiles(&firsts);
    out.e2e(
        "first_answer_ms",
        median(&firsts) / short,
        format!(
            "{}, the median of {} pages (q1 {q1:.3} q3 {q3:.3}), open_resident → first answer, each the best of {}",
            measured(median(&firsts), "ms"),
            firsts.len(),
            nav.cold.pass_p50_us.len()
        ),
    );
    let shape = nav.cold.shape();
    let cold_p50 = p50(&cold) as f64 / 1e3;
    out.e2e(
        "nav_p50_us",
        cold_p50 / short,
        format!("{}, 1 MiB budget: p50 over {shape}", measured(cold_p50, "us")),
    );
    let warm_p50 = p50(&warm) as f64 / 1e3;
    out.e2e(
        "nav_warm_p50_us",
        warm_p50 / short,
        format!(
            "{}, 256 MiB budget: p50 over {}",
            measured(warm_p50, "us"),
            nav.warm.shape()
        ),
    );
    let (label, tail) = highest_percentile(&cold);
    let tail = tail as f64 / 1e3;
    out.e2e(
        "op_p99_us",
        tail / short,
        format!("{}, 1 MiB budget: {label} over {shape}", measured(tail, "us")),
    );
    let busy: u64 = cold.iter().sum();
    let rate = cold.len() as f64 / (busy as f64 / 1e9);
    out.e2e(
        "ops_per_s",
        rate * short,
        format!(
            "{}, 1 MiB budget: probes ÷ the sum of their latencies; {shape}",
            measured(rate, "1/s")
        ),
    );
    out.e2e(
        "serving_rss_mb",
        mb(rss),
        "VmRSS of the navigating process (both handles open) after the last pass".into(),
    );
    Ok(out)
}

// ---------------------------------------------------------------------
// The wire read side: `wgr serve` under closed-loop sessions. It is
// priced in the traced run only — see `README.md` for why no end-to-end
// metric stands on it.

/// Pages asked for after each query of a wire session, each twice in a
/// row: the first call finds the server's 1 MiB cache cold, the second
/// finds the supernode's graphs still in it.
const NAVS_PER_QUERY: usize = 8;
/// Requests of one session: the ping, then per query the query and its
/// pages, each page asked twice.
const SLOTS_PER_QUERY: usize = 1 + 2 * NAVS_PER_QUERY;
const SLOTS: usize = 1 + 6 * SLOTS_PER_QUERY;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// Connect → ping reply: it includes the wait for a worker.
    First,
    Query,
    /// `out_neighbors` of a page the server's cache has long forgotten.
    Cold,
    /// The same page again, straight away.
    Warm,
}

fn slot_kind(i: usize) -> Slot {
    match i.checked_sub(1).map(|k| k % SLOTS_PER_QUERY) {
        None => Slot::First,
        Some(0) => Slot::Query,
        Some(k) if k % 2 == 1 => Slot::Cold,
        Some(_) => Slot::Warm,
    }
}

/// One closed-loop client: its page script — every session of a client
/// replays it, so each request slot is the same work every time it comes
/// round and its latency can be the least of its repetitions, as in
/// [`Lane`] — and what the replays have shown.
struct ClientState {
    pages: Vec<u32>,
    /// Per request slot, the least correct round trip in ns.
    best_ns: Vec<u64>,
    sessions: usize,
}

impl ClientState {
    fn all(seed: u64, clients: usize, num_pages: u32) -> Vec<Self> {
        (0..clients)
            .map(|c| Self {
                pages: systematic_pages(
                    &mut SplitMix64::new(seed).fork(100 + c as u64),
                    num_pages,
                    6 * NAVS_PER_QUERY,
                ),
                best_ns: vec![u64::MAX; SLOTS],
                sessions: 0,
            })
            .collect()
    }
}

/// The ascending least round trips of the clients' slots of one kind.
fn slot_bests(clients: &[ClientState], kind: Slot) -> Vec<u64> {
    let all = clients.iter().flat_map(|c| c.best_ns.iter().enumerate());
    answered(
        all.filter(|&(i, _)| slot_kind(i) == kind)
            .map(|(_, &ns)| ns)
            .collect(),
    )
}

/// What the clients measured, pooled, every sample as it came.
#[derive(Debug, Default)]
struct LoadStats {
    wall_s: f64,
    /// Connect → ping reply of every session but a client's first, which
    /// finds a worker free because every client starts at once.
    first_reply_ms: Vec<f64>,
    cycle_ms: Vec<f64>,
    /// Every request; a session's ping is timed from its connect.
    request_ns: Vec<u64>,
    overloaded: u64,
    errors: u64,
    /// The server's largest `VmRSS` seen while the clients ran.
    server_rss: u64,
}

impl LoadStats {
    fn rps(&self) -> f64 {
        self.request_ns.len() as f64 / self.wall_s
    }

    fn absorb(&mut self, other: LoadStats) {
        self.first_reply_ms.extend(other.first_reply_ms);
        self.cycle_ms.extend(other.cycle_ms);
        self.request_ns.extend(other.request_ns);
        self.overloaded += other.overloaded;
        self.errors += other.errors;
    }
}

struct LoadSpec<'a> {
    port: u16,
    /// Sessions each client runs, back to back.
    sessions: usize,
    truth: &'a Truth,
    fingerprints: &'a [u64; 6],
}

type SessionTracer<'a> = Option<(&'a mut Tracer, u64)>;

fn span_begin(tr: &mut SessionTracer<'_>, name: &'static str) -> Option<u32> {
    tr.as_mut().map(|(t, id)| t.begin(name, "serve", *id))
}

fn span_end(tr: &mut SessionTracer<'_>, span: Option<u32>) {
    if let (Some((t, _)), Some(s)) = (tr.as_mut(), span) {
        t.end(s);
    }
}

/// One failed wire op: refusals are counted apart from other errors.
fn wire_failure(st: &mut LoadStats, out: &mut Outcome, what: String) {
    if what.contains("verloaded") {
        st.overloaded += 1;
    } else {
        st.errors += 1;
    }
    out.fail(what);
}

/// One session: connect → ping → (Qn → 8 × (out_neighbors, the same
/// again)) for n = 1..6 → close, the pages taken from the client's
/// script. Every answer is checked: queries against the in-process
/// reference fingerprints, lists against the corpus graph.
fn session(
    spec: &LoadSpec<'_>,
    client: &mut ClientState,
    st: &mut LoadStats,
    out: &mut Outcome,
    mut tr: SessionTracer<'_>,
) {
    let root = span_begin(&mut tr, "session");
    out.attempted += 1;
    let sp = span_begin(&mut tr, "connect+ping");
    let t0 = Instant::now();
    let first = Wire::connect(spec.port).and_then(|mut w| w.ping().map(|()| w));
    let ns = t0.elapsed().as_nanos() as u64;
    span_end(&mut tr, sp);
    let mut w = match first {
        Ok(w) => w,
        Err(e) => {
            wire_failure(st, out, format!("session start: {e}"));
            span_end(&mut tr, root);
            return;
        }
    };
    let ClientState {
        pages,
        best_ns,
        sessions,
    } = client;
    let mut slot = 0usize;
    let mut record = |st: &mut LoadStats, slot: usize, ns: u64| {
        st.request_ns.push(ns);
        best_ns[slot] = best_ns[slot].min(ns);
    };
    record(st, slot, ns);
    if *sessions > 0 {
        st.first_reply_ms.push(ns as f64 / 1e6);
    }
    *sessions += 1;
    let mut cycle_ns = Some(0u64);
    for q in 1..=6u8 {
        out.attempted += 1;
        slot += 1;
        let sp = span_begin(&mut tr, "query");
        let t = Instant::now();
        let res = w.query(q);
        let ns = t.elapsed().as_nanos() as u64;
        span_end(&mut tr, sp);
        match res {
            Ok(fp) if fp == spec.fingerprints[usize::from(q) - 1] => {
                record(st, slot, ns);
                cycle_ns = cycle_ns.map(|c| c + ns);
            }
            Ok(_) => {
                cycle_ns = None;
                wire_failure(
                    st,
                    out,
                    format!("q{q}: fingerprint differs from the in-process reference"),
                );
            }
            Err(e) => {
                cycle_ns = None;
                wire_failure(st, out, e);
            }
        }
        let first = usize::from(q - 1) * NAVS_PER_QUERY;
        for &p in &pages[first..first + NAVS_PER_QUERY] {
            let want = spec.truth.neighbors(p);
            // Twice in a row: a cold slot, then a warm one.
            for _ in 0..2 {
                out.attempted += 1;
                slot += 1;
                let sp = span_begin(&mut tr, "out_neighbors");
                let t = Instant::now();
                let res = w.out_neighbors(p);
                let ns = t.elapsed().as_nanos() as u64;
                span_end(&mut tr, sp);
                match res {
                    Ok(list) if list == want => record(st, slot, ns),
                    Ok(_) => wire_failure(
                        st,
                        out,
                        format!("page {p}: wrong adjacency list over the wire"),
                    ),
                    Err(e) => wire_failure(st, out, e),
                }
            }
        }
    }
    if let Some(c) = cycle_ns {
        st.cycle_ms.push(c as f64 / 1e6);
    }
    drop(w);
    span_end(&mut tr, root);
}

/// Closed loop: one thread per client, each running `spec.sessions`
/// sessions back to back. The calling thread polls the server's memory
/// meanwhile. With a tracer, client 0's requests are wrapped in spans.
fn load(
    spec: &LoadSpec<'_>,
    clients: &mut [ClientState],
    server: &Server,
    out: &mut Outcome,
    tracer: Option<&mut Tracer>,
) -> LoadStats {
    let finished = AtomicUsize::new(0);
    let n_clients = clients.len();
    let started = Instant::now();
    let mut tracer0 = tracer;
    let mut merged = LoadStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let finished = &finished;
                let mut tracer = if c == 0 { tracer0.take() } else { None };
                s.spawn(move || {
                    let mut st = LoadStats::default();
                    let mut o = Outcome::default();
                    for n in 0..spec.sessions {
                        let id = (c * 1_000_000 + n) as u64;
                        let tr = tracer.as_deref_mut().map(|t| (t, id));
                        session(spec, client, &mut st, &mut o, tr);
                        if o.failed > 50 {
                            break;
                        }
                    }
                    finished.fetch_add(1, Ordering::Release);
                    (st, o)
                })
            })
            .collect();
        while finished.load(Ordering::Acquire) < n_clients {
            merged.server_rss = merged.server_rss.max(server.memory().0);
            std::thread::sleep(Duration::from_millis(50));
        }
        for h in handles {
            let (st, o) = h.join().expect("client thread panicked");
            merged.absorb(st);
            out.absorb(o);
        }
    });
    merged.wall_s = started.elapsed().as_secs_f64();
    merged.request_ns.sort_unstable();
    merged
}

/// Client threads `C = min(threads, 4)` and server workers `max(1, C/2)`:
/// connections at twice the workers — a new session waits for a foreign
/// one to end, the regime connection-level scheduling is judged in — and
/// never more load threads than cores. A waiting client is blocked in its
/// read, so what runs at any moment is one client and one worker, taking
/// turns.
fn clients_and_workers(threads: usize) -> (usize, usize) {
    let clients = threads.clamp(1, 4);
    (clients, (clients / 2).max(1))
}

/// Runs Q1–6 once in process: the reference fingerprints and each
/// query's wall time in ms.
fn reference_cycle(reference: &layers::Reference) -> Res<([u64; 6], [f64; 6])> {
    let mut fps = [0u64; 6];
    let mut ms = [0f64; 6];
    for q in 1..=6u8 {
        (ms[usize::from(q) - 1], fps[usize::from(q) - 1]) = reference.run_query(q)?;
    }
    Ok((fps, ms))
}

// ---------------------------------------------------------------------
// The traced run: the same life of a crawl with the benchmark's spans on,
// then each layer's public functions timed on the same directories.

/// Runs `build_snode_sharded` in a re-exec'd child (the hidden
/// `stage-child` subcommand) so its stage times and RSS are its own;
/// returns what it printed, one `name value` per line.
fn stage_child(r: &Run<'_>, corpus: &Path, out_dir: &Path) -> Res<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("stage-child")
        .arg(corpus)
        .arg(out_dir)
        .arg(SHARDS.to_string())
        .arg(build_threads(r).to_string())
        .output()
        .map_err(|e| format!("spawn stage-child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "stage-child failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(|line| {
            let (name, value) = line
                .split_once(' ')
                .ok_or("stage-child: line without a value")?;
            let value = value
                .parse()
                .map_err(|e| format!("stage-child {name}: {e}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

/// What the traced navigation section hands to the metrics below.
#[derive(Default)]
struct NavTrace {
    untraced_ns: u64,
    traced_ns: u64,
    sampled_real_ns: u64,
    shadows: u64,
    counts: layers::ShadowCounts,
    edges: u64,
    supernodes: Vec<u32>,
}

/// One pass with every real probe under a span and a sample of them (one
/// in `SHADOW_EVERY`, at most `SHADOW_MAX`) followed — or, alternately,
/// preceded — by a shadow probe whose answer must equal the real one.
fn traced_nav_pass(
    h: &Resident,
    shadow: &Shadow,
    set: &ProbeSet,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Res<NavTrace> {
    let mut nt = NavTrace::default();
    let (mut buf, mut sbuf) = (Vec::new(), Vec::new());
    let every = SHADOW_EVERY.max(set.probes.len() / SHADOW_MAX);
    for (i, (&p, &want)) in set.probes.iter().zip(&set.expected).enumerate() {
        let id = i as u64;
        let sampled = i % every == 0;
        // Alternate which side runs first, so neither always finds the
        // blobs already in the CPU's caches.
        let shadow_first = sampled && (i / every) % 2 == 1;
        let mut counts = None;
        if shadow_first {
            counts = Some(shadow.probe(p, t, id, &mut sbuf)?);
        }
        let t0 = Instant::now();
        let sp = t.begin("out_neighbors_into", "probe", id);
        let res = h.probe(p, &mut buf);
        t.end(sp);
        let ns = t0.elapsed().as_nanos() as u64;
        nt.traced_ns += ns;
        out.attempted += 1;
        match res {
            Ok(()) if layers::hash_list(&buf) == want => nt.edges += buf.len() as u64,
            Ok(()) => out.fail(format!("page {p}: wrong adjacency list")),
            Err(e) => out.fail(format!("page {p}: {e}")),
        }
        if sampled && !shadow_first {
            counts = Some(shadow.probe(p, t, id, &mut sbuf)?);
        }
        if let Some(c) = counts {
            out.attempted += 1;
            if sbuf != buf {
                out.fail(format!(
                    "page {p}: shadow probe disagrees with out_neighbors_into"
                ));
            }
            nt.sampled_real_ns += ns;
            nt.shadows += 1;
            nt.counts.graphs += c.graphs;
            nt.counts.encoded_bytes += c.encoded_bytes;
            nt.counts.edges += c.edges;
            nt.supernodes.push(shadow.meta().supernode_of(p));
        }
    }
    nt.supernodes.sort_unstable();
    nt.supernodes.dedup();
    Ok(nt)
}

fn per(total: u64, n: u64) -> f64 {
    total as f64 / n.max(1) as f64
}

/// Navigation on the workload's budget — one untraced pass, one traced,
/// one batched — then the layers below it on the graphs the sampled
/// probes touched.
fn trace_navigation(
    r: &Run<'_>,
    plan: &Plan,
    dir: &Path,
    truth: &Truth,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Res<NavTrace> {
    let n_probes = if r.quick { 300 } else { 2_000 };
    let rng = SplitMix64::new(r.seed);
    let set = ProbeSet::new(&mut rng.fork(1), truth, n_probes);
    let warmup = uniform_pages(&mut rng.fork(2), truth.graph().num_nodes(), plan.warmup);
    let warm = Lane::open(dir, WARM_BUDGET, &set, &set.probes)?;
    let warm_lat = answered(nav_pass(&warm.handle, &set, out));
    drop(warm);
    let h = Lane::open(dir, COLD_BUDGET, &set, &warmup)?.handle;
    let lat = answered(nav_pass(&h, &set, out));
    let shadow = Shadow::open(dir)?;
    let before = h.cache_counts();
    let mut nt = traced_nav_pass(&h, &shadow, &set, t, out)?;
    nt.untraced_ns = lat.iter().sum();
    let after = h.cache_counts();
    let batch_t = Instant::now();
    for frontier in set.probes.chunks(64) {
        h.batch(frontier)?;
    }
    let batch_ns = batch_t.elapsed().as_nanos() as u64;
    drop(h);

    let probes = set.probes.len() as u64;
    let by_name = t.totals_by_name();
    let total = |name: &str| by_name.get(name).map_or(0, |&(_, ns)| ns);
    let leaves = [
        "supernode_of",
        "read_blob",
        "crc32c",
        "index_parse",
        "decode_list",
        "merge",
    ];
    let attributed: u64 = leaves.iter().map(|n| total(n)).sum();
    let (graphs, bytes) = (nt.counts.graphs, nt.counts.encoded_bytes);
    out.layer(
        "refenc.index_parse_us_per_graph",
        per(total("index_parse"), graphs) / 1e3,
    );
    out.layer(
        "refenc.index_parse_ns_per_byte",
        per(total("index_parse"), bytes),
    );
    out.layer("refenc.graphs_per_probe", per(graphs, nt.shadows));
    out.layer("refenc.encoded_bytes_per_probe", per(bytes, nt.shadows));
    out.layer(
        "refenc.decode_list_ns_per_edge",
        per(total("decode_list"), nt.counts.edges),
    );
    out.layer(
        "disk.read_blob_ns_per_graph",
        per(total("read_blob"), graphs),
    );
    out.layer("disk.crc32c_ns_per_byte", per(total("crc32c"), bytes));
    out.layer("disk.open_resident_ms", shadow.open_ms);
    out.layer("disk.resident_bytes", shadow.resident_bytes() as f64);
    let hits = after.hits - before.hits;
    out.layer(
        "cache.hit_ratio",
        per(hits, hits + after.misses - before.misses),
    );
    out.layer(
        "cache.evictions_per_probe",
        per(after.evictions - before.evictions, probes),
    );
    out.layer(
        "cache.bytes_loaded_per_probe",
        per(after.bytes_loaded - before.bytes_loaded, probes),
    );
    out.layer(
        "nav.scalar_us_per_call",
        per(nt.untraced_ns, lat.len() as u64) / 1e3,
    );
    out.layer(
        "nav.warm_us_per_call",
        per(warm_lat.iter().sum(), warm_lat.len() as u64) / 1e3,
    );
    out.layer("nav.batch_us_per_page", per(batch_ns, probes) / 1e3);
    out.layer("nav.edges_per_probe", per(nt.edges, probes));
    out.layer("nav.p99_us", highest_percentile(&lat).1 as f64 / 1e3);
    out.layer(
        "nav.shadow_us_per_probe",
        per(total("shadow_probe"), nt.shadows) / 1e3,
    );
    // The share of the real probes' time that the cold-path layers, as
    // priced by the shadow probes of the same pages, do not explain; 0
    // when they explain all of it or more (a warm cache skips them).
    let explained = attributed as f64 / nt.sampled_real_ns.max(1) as f64;
    out.layer("nav.unattributed_share", (1.0 - explained).max(0.0));
    out.notes.push(format!(
        "reconciliation over {} sampled probes: out_neighbors_into {:.1} us/probe; shadow layers {:.1} us/probe \
         (explains {:.1}%); shadow glue {:.2} us/probe",
        nt.shadows,
        per(nt.sampled_real_ns, nt.shadows) / 1e3,
        per(attributed, nt.shadows) / 1e3,
        explained * 100.0,
        per(total("shadow_probe").saturating_sub(attributed), nt.shadows) / 1e3,
    ));

    let touched = &nt.supernodes;
    let (gamma_enc, gamma_dec, huffman) = shadow.price_bitio(truth.graph(), 1 << 20)?;
    out.layer("bitio.gamma_decode_ns_per_symbol", gamma_dec);
    out.layer("bitio.gamma_encode_ns_per_symbol", gamma_enc);
    out.layer("bitio.huffman_decode_ns_per_symbol", huffman);
    let (decode_all, encode) = shadow.price_whole_graphs(&touched[..touched.len().min(64)])?;
    out.layer("refenc.decode_all_ns_per_edge", decode_all);
    out.layer("refenc.encode_ns_per_edge", encode);
    let (get_hit, insert_evict) = shadow.price_cache(&touched[..touched.len().min(16)])?;
    out.layer("cache.get_hit_ns", get_hit);
    out.layer("cache.insert_evict_ns", insert_evict);
    Ok(nt)
}

/// The build's stages, on `corpus` and one rung (a third of the pages,
/// `corpus3`) down. Returns the in-process build's read + build time.
fn trace_build_stages(
    r: &Run<'_>,
    plan: &Plan,
    (corpus, corpus3): (&Path, &Path),
    t: &mut Tracer,
    out: &mut Outcome,
) -> Res<f64> {
    let third_pages = plan.pages / 3;
    layers::stream_corpus(corpus3, third_pages, CORPUS_SEED)?;
    let sp = t.begin("build_snode_sharded", "build", 0);
    let stages = stage_child(r, corpus, &r.work.join("stages"))?;
    t.end(sp);
    let stages3 = stage_child(r, corpus3, &r.work.join("stages3"))?;
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(f64::NAN);
    let here = |k: &str| get(&stages, k);
    for stage in [
        "refine_s",
        "remap_s",
        "encode_s",
        "write_s",
        "rss_after_read_mb",
    ] {
        out.layer(&format!("build.{stage}"), here(stage));
    }
    out.layer(
        "build.scaling_ratio",
        (here("total_s") / f64::from(plan.pages))
            / (get(&stages3, "total_s") / f64::from(third_pages)),
    );
    for class in ["intranode", "superedge", "meta"] {
        out.layer(
            &format!("build.bits_{class}_per_edge"),
            here(&format!("{class}_bits")) / here("num_edges"),
        );
    }
    out.layer("build.supernodes", here("supernodes"));
    out.layer("build.superedges", here("superedges"));
    Ok(here("read_s") + here("total_s"))
}

/// The query and serve layers over the corpus at `corpus`: the in-process
/// reference, then the same short load three times — plain, with the
/// benchmark's spans on, and against a second server with its telemetry
/// on. Returns whether the loads produced what the metrics need.
fn trace_serving(
    r: &Run<'_>,
    corpus: &Path,
    data: &layers::Corpus,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Res<bool> {
    let reps = r.work.join("reps");
    let (n_clients, workers) = clients_and_workers(r.threads);
    let plain_server = ServerSpec {
        corpus,
        reps: &reps,
        reuse: false,
        workers,
        budget: COLD_BUDGET,
        telemetry: false,
        build_threads: build_threads(r),
    };
    let server = Server::spawn(r.wgr, &plain_server)?;
    out.layer("serve.ready_s", server.ready_secs);
    let reference = layers::Reference::open(data, &reps, COLD_BUDGET)?;
    let (fingerprints, first) = reference_cycle(&reference)?;
    let mut rounds = vec![first];
    for _ in 0..2 {
        let (again, ms) = reference_cycle(&reference)?;
        out.attempted += 1;
        if again != fingerprints {
            out.fail("in-process Q1–6 fingerprints differ between rounds".into());
        }
        rounds.push(ms);
    }
    let q_ms: Vec<f64> = (0..6)
        .map(|q| median(&rounds.iter().map(|r| r[q]).collect::<Vec<_>>()))
        .collect();
    for (q, ms) in q_ms.iter().enumerate() {
        out.layer(&format!("query.q{}_ms", q + 1), *ms);
    }
    let query_cycle_ms: f64 = q_ms.iter().sum();
    out.layer("query.cycle_ms", query_cycle_ms);

    let truth = Truth::new(data.graph.clone(), &reps.join("snode"))?;
    let spec = LoadSpec {
        port: server.port,
        sessions: if r.quick { 2 } else { 4 },
        truth: &truth,
        fingerprints: &fingerprints,
    };
    let fresh_clients = || ClientState::all(r.seed, n_clients, truth.graph().num_nodes());
    let mut plain_clients = fresh_clients();
    let plain = load(&spec, &mut plain_clients, &server, out, None);
    let spanned = load(&spec, &mut fresh_clients(), &server, out, Some(t));
    let mut pings: Vec<f64> = Vec::new();
    let mut w = Wire::connect(server.port)?;
    for _ in 0..if r.quick { 50 } else { 200 } {
        let t0 = Instant::now();
        w.ping()?;
        pings.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(w);
    drop(server);
    let cold_ns = slot_bests(&plain_clients, Slot::Cold);
    let warm_ns = slot_bests(&plain_clients, Slot::Warm);
    if plain.cycle_ms.is_empty() || plain.first_reply_ms.is_empty() || cold_ns.is_empty() {
        return Ok(false);
    }
    let cycle_p50 = median(&plain.cycle_ms);
    out.layer("serve.rps", plain.rps());
    out.layer("serve.cycle_p50_ms", cycle_p50);
    out.layer("serve.nav_p50_us", p50(&cold_ns) as f64 / 1e3);
    out.layer("serve.nav_warm_p50_us", p50(&warm_ns) as f64 / 1e3);
    out.layer("serve.ping_rtt_us", median(&pings));
    out.layer("serve.wire_overhead_ms", cycle_p50 - query_cycle_ms);
    out.layer("serve.first_reply_p50_ms", median(&plain.first_reply_ms));
    out.layer(
        "serve.first_reply_p75_ms",
        quartiles(&plain.first_reply_ms).1,
    );
    out.layer(
        "serve.tail_ms",
        highest_percentile(&plain.request_ns).1 as f64 / 1e6,
    );
    out.layer(
        "serve.overloaded",
        (plain.overloaded + spanned.overloaded) as f64,
    );
    out.layer("serve.errors", (plain.errors + spanned.errors) as f64);
    out.layer("serve.rss_mb", mb(plain.server_rss));

    let with_telemetry = ServerSpec {
        reuse: true,
        telemetry: true,
        ..plain_server
    };
    let server = Server::spawn(r.wgr, &with_telemetry)?;
    let port = server.port;
    let telemetry = load(
        &LoadSpec { port, ..spec },
        &mut fresh_clients(),
        &server,
        out,
        None,
    );
    drop(server);
    out.layer(
        "serve.telemetry_overhead_share",
        telemetry.rps() / plain.rps(),
    );
    let (lists, pages) = reference.observed_cycle()?;
    out.layer("query.lists_decoded_per_cycle", lists as f64);
    out.layer("query.pages_fetched_per_cycle", pages as f64);
    out.notes.push(format!(
        "serve load with the benchmark's spans on ÷ off: {:.3} of the wall time",
        spanned.wall_s / plain.wall_s
    ));
    Ok(true)
}

fn traced(r: &Run<'_>, plan: &Plan) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut t = Tracer::new();

    // The life of the crawl once: corpus, one `wgr build`.
    let corpus = r.work.join("corpus");
    let corpus3 = r.work.join("corpus3");
    let dir = r.work.join("snode");
    let streamed = layers::stream_corpus(&corpus, plan.pages, CORPUS_SEED)?;
    let (corpus_data, read_s) = layers::read_corpus(&corpus)?;
    let build = layers::wgr_build(r.wgr, &corpus, &dir, SHARDS, build_threads(r))?;
    out.layer("corpus.stream_s", streamed.secs);
    out.layer("corpus.read_s", read_s);

    let truth = Truth::new(corpus_data.graph.clone(), &dir)?;
    let nt = trace_navigation(r, plan, &dir, &truth, &mut t, &mut out)?;
    drop(truth);
    let in_process_build_s = trace_build_stages(r, plan, (&corpus, &corpus3), &mut t, &mut out)?;
    // The query and serve layers run on this corpus or — above the cap —
    // on the rung below it, which the build stages streamed anyway.
    let serving = if plan.pages <= SERVE_PAGES_CAP {
        trace_serving(r, &corpus, &corpus_data, &mut t, &mut out)?
    } else {
        drop(corpus_data);
        let data = layers::read_corpus(&corpus3)?.0;
        trace_serving(r, &corpus3, &data, &mut t, &mut out)?
    };
    if !serving {
        return Ok(out);
    }

    // Traced ÷ untraced time of the workload's own measured section.
    let overhead = match plan.kind {
        Kind::Build => in_process_build_s / build.secs,
        Kind::Nav => nt.traced_ns as f64 / nt.untraced_ns.max(1) as f64,
    };
    out.layer("obs.trace_overhead_share", overhead);
    out.layer("obs.spans", t.spans().len() as f64);
    out.layer("obs.shadow_probes", nt.shadows as f64);
    for (layer, lt) in t.self_time_by_layer() {
        out.notes.push(format!(
            "self time  {layer:<8} {:>12.3} ms over {:>7} spans",
            lt.self_ns as f64 / 1e6,
            lt.calls
        ));
    }
    if let Some(path) = r.trace_file {
        t.write_chrome(path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.notes.push(format!(
            "trace: {} ({} spans)",
            path.display(),
            t.spans().len()
        ));
    }
    Ok(out)
}
