//! `wgr` — command-line front end for the webgraph-repr workspace.
//!
//! ```text
//! wgr gen   --pages 50000 --seed 7 --out corpus/         generate a corpus
//! wgr build --corpus corpus/ --out repo/ --metrics       build the S-Node repo
//! wgr query corpus/ --metrics=json                       observed Q1–6 workload
//! wgr stats repo/ --json                                 representation statistics
//! wgr stats repo/ --bits                                 every bit, by class of stored material
//! wgr links --repo repo/ --page 1234                     adjacency of a page
//! wgr domain --repo repo/ --name stanford.edu            pages of a domain
//! wgr top   --corpus corpus/ --repo repo/ -k 10          top pages by PageRank
//! ```
//!
//! Observability: `--metrics` (on `build` and `query`) prints the metrics
//! registry snapshot on exit (`--metrics=json` for machine-readable form),
//! and `--trace FILE` writes a Chrome trace-event file loadable in
//! `chrome://tracing` / Perfetto.
//!
//! The corpus directory stores the generated repository in a simple text
//! format (`urls.txt`, `domains.txt`, `edges.txt`) so external tooling can
//! produce inputs too: any repository expressible as those three files can
//! be built into an S-Node representation.

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use webgraph_repr::corpus::textio::{read_build_input, read_corpus, write_corpus, BuildInput};
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::fault::{FaultPlan, FaultSpec};
use webgraph_repr::graph::pagerank::{pagerank, top_ranked, PageRankConfig};
use webgraph_repr::obs;
use webgraph_repr::query::obsrun::{fingerprint_rows, run_observed, WorkloadReport};
use webgraph_repr::query::queries::{QueryEnv, Workload};
use webgraph_repr::query::reps::SchemeSet;
use webgraph_repr::query::{DomainTable, PageRankIndex, Scheme, TextIndex};
use webgraph_repr::serve::{Client, ServeConfig, ServeContext, Server, Status as ServeStatus};
use webgraph_repr::snode::integrity::fingerprint_dir;
use webgraph_repr::snode::{build_snode, BuildStats, Renumbering, RepoInput, SNode, SNodeConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code = match args.get(1).map(String::as_str) {
        Some("gen") => cmd_gen(&args[2..]),
        Some("build") => cmd_build(&args[2..]),
        Some("query") => cmd_query(&args[2..]),
        Some("stats") => cmd_stats(&args[2..]),
        Some("links") => cmd_links(&args[2..]),
        Some("domain") => cmd_domain(&args[2..]),
        Some("top") => cmd_top(&args[2..]),
        Some("check") => cmd_check(&args[2..]),
        Some("fsck") => cmd_fsck(&args[2..]),
        Some("corrupt") => cmd_corrupt(&args[2..]),
        Some("bench") => cmd_bench(&args[2..]),
        Some("serve") => cmd_serve(&args[2..]),
        // Hidden: one scale-bench measurement in a fresh process, so
        // VmHWM reflects exactly that step (see `bench_scale`).
        Some("scale-step") => cmd_scale_step(&args[2..]),
        _ => {
            eprintln!(
                "usage: wgr <gen|build|query|stats|links|domain|top|check|fsck|corrupt|bench|serve> [options]\n\
                 \n\
                 gen    --pages N [--seed N] --out DIR      generate a synthetic corpus\n\
                 build  --corpus DIR --out DIR [--threads N] build the S-Node representation\n\
                 \x20      [--stream --pages N [--seed N]]    generate the corpus on the fly (bounded memory)\n\
                 query  DIR [--scheme NAME|all] [--budget B] run the observed Q1-6 workload\n\
                 \x20      [--reps DIR] [--reuse]             over the corpus at DIR;\n\
                 \x20                                          exit 3 when answers were degraded\n\
                 stats  DIR [--bits] [--json]               show representation statistics;\n\
                 \x20                                          --bits: where every bit of meta.bin\n\
                 \x20                                          and the index files goes, by class\n\
                 links  --repo DIR --page N                 print a page's adjacency list\n\
                 domain --repo DIR --corpus DIR --name D    list a domain's pages\n\
                 top    --repo DIR --corpus DIR [-k N]      top pages by PageRank\n\
                 check  DIR [--json] [--deny warn]          full static analysis;\n\
                 \x20                                          exit 0 clean, 1 denied warnings, 2 corrupt\n\
                 fsck   DIR [--json] [--repair --from DIR]  checksum every section against sums.bin;\n\
                 \x20                                          exit 0 clean, 1 damage, 2 unusable;\n\
                 \x20                                          --repair re-encodes from the corpus\n\
                 corrupt DIR --seed N [--flips N] [--truncate N] [--torn N] [--json]\n\
                 \x20                                          inject deterministic faults (testing)\n\
                 bench  --scale | --serve [--seed N] [--quick]\n\
                 \x20                                          what benchmark/ has no row for yet\n\
                 \x20      --serve [--pages N] [--clients N] [--workers N] [--serve-out FILE]\n\
                 \x20                                          concurrent-service benchmark:\n\
                 \x20                                          N clients → BENCH_serve.json with\n\
                 \x20                                          latency and Q1-6 fingerprints\n\
                 \x20      --scale [--sizes N,N] [--probes N] [--out FILE]\n\
                 \x20                                          scale benchmark: streamed corpus →\n\
                 \x20                                          build → one query probe per size,\n\
                 \x20                                          each in a fresh process for clean\n\
                 \x20                                          peak-RSS accounting → BENCH_scale.json\n\
                 serve  DIR [--port P] [--workers N] [--queue N] [--scheme NAME]\n\
                 \x20      [--reps DIR] [--reuse] [--smoke N] serve Q1-6 + out_neighbors over TCP;\n\
                 \x20                                          --smoke runs an N-client burst and\n\
                 \x20                                          exits 0 clean / 3 degraded / 2 errors\n\
                 \n\
                 build and query also accept --metrics[=json] and --trace FILE"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Pulls `--flag value` out of an argument slice.
fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn req(args: &[String], flag: &str) -> String {
    opt(args, flag).unwrap_or_else(|| {
        eprintln!("missing required option {flag}");
        std::process::exit(2);
    })
}

/// `result`'s value, or exit 2 with one line saying what failed: a path
/// the user named that cannot be read or written is a usage error like a
/// missing option, not a panic.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: impl std::fmt::Display) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(2);
    })
}

fn read_corpus_at(dir: &Path) -> Corpus {
    or_exit(
        read_corpus(dir),
        format!("cannot read corpus at {}", dir.display()),
    )
}

fn open_snode(dir: &Path) -> SNode {
    or_exit(
        SNode::open_resident(dir, 1 << 20),
        format!("cannot open S-Node directory {}", dir.display()),
    )
}

fn read_pagemap(dir: &Path) -> Renumbering {
    or_exit(
        Renumbering::read(dir),
        format!("cannot read pagemap in {}", dir.display()),
    )
}

/// `value` as the `T` that `flag` takes; one that does not parse is a
/// usage error like a missing option, not a panic.
fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.trim().parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: {value}");
        std::process::exit(2);
    })
}

/// Pulls `--flag value` out of an argument slice as a number.
fn num<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    opt(args, flag).map(|s| parsed(flag, &s))
}

/// First positional (non-flag) argument, skipping the value slot of every
/// `--flag value` pair. Boolean flags (and `--flag=value` forms) consume
/// only their own slot.
fn positional(args: &[String]) -> Option<String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with('-') {
            let boolean = a.contains('=')
                || matches!(
                    a,
                    "--json"
                        | "--bits"
                        | "--quick"
                        | "--metrics"
                        | "--reuse"
                        | "--repair"
                        | "--serve"
                        // Accepted by `serve` and ignored: nothing is left to turn off.
                        | "--no-telemetry"
                        | "--stream"
                        | "--scale"
                );
            i += if boolean { 1 } else { 2 };
        } else {
            return Some(a.to_string());
        }
    }
    None
}

/// How `--metrics` output should be rendered.
#[derive(Clone, Copy, PartialEq)]
enum MetricsFormat {
    Text,
    Json,
}

/// Observability flags shared by `build` and `query`. Parsing has side
/// effects: `--metrics` raises the global metrics flag (it must be up
/// *before* caches and readers are constructed, or their counters stay
/// private) and `--trace` arms the trace ring.
struct ObsFlags {
    metrics: Option<MetricsFormat>,
    trace: Option<PathBuf>,
}

impl ObsFlags {
    fn parse(args: &[String]) -> Self {
        let mut metrics = None;
        for a in args {
            match a.as_str() {
                "--metrics" | "--metrics=text" => metrics = Some(MetricsFormat::Text),
                "--metrics=json" => metrics = Some(MetricsFormat::Json),
                _ => {}
            }
        }
        let trace = opt(args, "--trace").map(PathBuf::from);
        if metrics.is_some() {
            obs::set_metrics_enabled(true);
        }
        if trace.is_some() {
            obs::enable_trace(1 << 16);
        }
        ObsFlags { metrics, trace }
    }

    /// Prints the registry snapshot in the requested format.
    fn print_metrics(&self) {
        match self.metrics {
            Some(MetricsFormat::Text) => print!("{}", obs::global().snapshot().to_text()),
            Some(MetricsFormat::Json) => print!("{}", obs::global().snapshot().to_json()),
            None => {}
        }
    }

    /// Writes the trace file if one was requested; returns an exit code.
    fn write_trace(&self) -> i32 {
        if let Some(path) = &self.trace {
            if let Err(e) = obs::write_trace_file(path) {
                eprintln!("failed to write trace {}: {e}", path.display());
                return 1;
            }
            eprintln!("wrote trace {}", path.display());
        }
        0
    }
}

fn cmd_gen(args: &[String]) -> i32 {
    let pages: u32 = parsed("--pages", &req(args, "--pages"));
    let seed: u64 = num(args, "--seed").unwrap_or(42);
    let out = PathBuf::from(req(args, "--out"));
    let cannot_write = format!("cannot write corpus {}", out.display());
    or_exit(std::fs::create_dir_all(&out), &cannot_write);

    let corpus = Corpus::generate(CorpusConfig::scaled(pages, seed));
    or_exit(write_corpus(&out, &corpus), &cannot_write);
    println!(
        "wrote {} pages, {} links, {} domains to {}",
        corpus.num_pages(),
        corpus.graph.num_edges(),
        corpus.domains.len(),
        out.display()
    );
    0
}

/// The flags `build` takes, each with whether a value follows it.
const BUILD_FLAGS: [(&str, bool); 11] = [
    ("--corpus", true),
    ("--out", true),
    ("--threads", true),
    ("--stream", false),
    ("--pages", true),
    ("--seed", true),
    // Accepted for `benchmark/`, which is frozen and still passes it.
    ("--shards", true),
    ("--metrics", false),
    ("--metrics=text", false),
    ("--metrics=json", false),
    ("--trace", true),
];

fn cmd_build(args: &[String]) -> i32 {
    // A flag `build` does not take is refused before anything is read or
    // written: one it ignored would build something other than was asked.
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(&(_, takes_value)) = BUILD_FLAGS.iter().find(|(flag, _)| flag == arg) else {
            eprintln!("wgr build does not take {arg}");
            return 2;
        };
        if takes_value {
            rest.next();
        }
    }
    let flags = ObsFlags::parse(args);
    let corpus_dir = PathBuf::from(req(args, "--corpus"));
    let out = PathBuf::from(req(args, "--out"));
    // 0 = auto: WGR_THREADS env var, else available parallelism. The
    // representation is byte-identical for every thread count.
    let threads: u32 = num(args, "--threads").unwrap_or(0);
    // --stream generates the corpus straight into --corpus DIR first —
    // the writer holds no URL string and no CSR graph, only what the
    // copying model needs (`corpus::stream`) — and the build then reads
    // the files back like any external corpus, as `BuildInput` holds them.
    if args.iter().any(|a| a == "--stream") {
        let pages: u32 = parsed("--pages", &req(args, "--pages"));
        let seed: u64 = num(args, "--seed").unwrap_or(42);
        let st = or_exit(
            webgraph_repr::corpus::stream::stream_corpus(
                &corpus_dir,
                &webgraph_repr::corpus::CorpusConfig::scaled(pages, seed),
            ),
            format!("cannot write corpus {}", corpus_dir.display()),
        );
        println!(
            "streamed {} pages, {} links, {} domains to {}",
            st.num_pages,
            st.num_edges,
            st.num_domains,
            corpus_dir.display()
        );
    }
    if opt(args, "--shards").is_some() {
        eprintln!("--shards is ignored: there is one builder");
    }
    let rss = obs::RssGauge::auto();
    let t_read = obs::Stopwatch::start();
    let input = or_exit(
        read_build_input(&corpus_dir),
        format!("cannot read corpus {}", corpus_dir.display()),
    );
    let read_ns = obs::record_span("core.build.read", "build", &t_read);
    println!(
        "read {} pages, {} links in {:?}",
        input.num_pages(),
        input.graph.num_edges(),
        std::time::Duration::from_nanos(read_ns)
    );
    let config = SNodeConfig {
        threads,
        ..SNodeConfig::default()
    };
    let t0 = obs::Stopwatch::start();
    let (stats, _renum) = or_exit(
        build_from(&input, &config, &out),
        format!("cannot build {}", out.display()),
    );
    rss.refresh();
    println!(
        "built in {:?} ({} threads): {} supernodes, {} superedges, \
         {:.2} bits/edge → {}",
        t0.elapsed(),
        stats.timings.threads,
        stats.num_supernodes,
        stats.num_superedges,
        stats.bits_per_edge(),
        out.display()
    );
    println!(
        "refine: {} iterations, {} URL splits, {} clustered splits, {} aborts",
        stats.refine.iterations,
        stats.refine.url_splits,
        stats.refine.clustered_splits,
        stats.refine.clustered_aborts
    );
    flags.print_metrics();
    flags.write_trace()
}

/// Builds the representation of `input` under `out`: where the flat
/// arrays a corpus is read into become the slices the builder borrows.
fn build_from(
    input: &BuildInput,
    config: &SNodeConfig,
    out: &std::path::Path,
) -> webgraph_repr::snode::Result<(BuildStats, Renumbering)> {
    let urls = input.urls();
    let repo = RepoInput {
        urls: &urls,
        domains: &input.domains,
        graph: &input.graph,
    };
    build_snode(repo, config, out)
}

/// The four-scheme set over `corpus` under `--reps DIR`, or under a scratch
/// directory named for `scratch_name` (the `bool`: the caller removes it).
/// `--reuse` opens what is on disk instead of building it — a rebuild
/// would silently heal any damage, which defeats fault-injection testing.
fn scheme_set(
    args: &[String],
    corpus: &Corpus,
    budget: usize,
    scratch_name: &str,
) -> (SchemeSet, PathBuf, bool) {
    let (root, scratch) = match opt(args, "--reps") {
        Some(d) => (PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("{scratch_name}_{}", std::process::id())),
            true,
        ),
    };
    let set = if args.iter().any(|a| a == "--reuse") {
        if scratch {
            eprintln!("--reuse requires --reps DIR (a previously built representation root)");
            std::process::exit(2);
        }
        or_exit(
            SchemeSet::open_existing(&root, &corpus.graph, budget),
            format!("cannot open representations at {}", root.display()),
        )
    } else {
        let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
        let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
        or_exit(
            SchemeSet::build(
                &root,
                &urls,
                &domains,
                &corpus.graph,
                &SNodeConfig::default(),
                budget,
            ),
            format!("cannot build representations under {}", root.display()),
        )
    };
    (set, root, scratch)
}

/// `wgr query DIR` — builds the four-scheme query set from the corpus at
/// `DIR`, runs the observed Q1–6 workload, and reports per-query costs
/// (wall time, supernodes visited, lists decoded, cache hits/misses, pages
/// fetched) plus a result fingerprint. Metrics are always enabled here —
/// observation is the command's purpose; `--metrics` additionally dumps
/// the registry snapshot, and `--metrics=json` renders everything as one
/// JSON object.
fn cmd_query(args: &[String]) -> i32 {
    let Some(corpus_dir) = positional(args).or_else(|| opt(args, "--corpus")) else {
        eprintln!(
            "usage: wgr query DIR [--scheme NAME|all] [--budget BYTES] [--reps DIR] [--reuse]\n\
             \x20                [--metrics[=json]] [--trace FILE]"
        );
        return 2;
    };
    obs::set_metrics_enabled(true);
    let flags = ObsFlags::parse(args);
    let budget: usize = num(args, "--budget").unwrap_or(1 << 20);
    let schemes: Vec<Scheme> = match opt(args, "--scheme").as_deref() {
        None => vec![Scheme::SNode],
        Some("all") => Scheme::ALL.to_vec(),
        Some(name) => match Scheme::ALL.iter().copied().find(|s| s.name() == name) {
            Some(s) => vec![s],
            None => {
                eprintln!(
                    "unknown scheme {name}; expected all, {}",
                    Scheme::ALL.map(|s| s.name()).join(", ")
                );
                return 2;
            }
        },
    };

    let corpus = read_corpus_at(Path::new(&corpus_dir));
    let (set, root, scratch) = scheme_set(args, &corpus, budget, "wgr_query");
    let text = TextIndex::build(&corpus, &set.renumbering);
    let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
    let domain_table = DomainTable::build(&corpus, &set.renumbering);
    let env = QueryEnv {
        text: &text,
        pagerank: &pagerank,
        domains: &domain_table,
    };
    let workload = Workload::discover(&text, &domain_table);
    let mut reports: Vec<WorkloadReport> = Vec::new();
    for &s in &schemes {
        match run_observed(env, &set, s, &workload) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("workload failed on scheme {}: {e}", s.name());
                if scratch {
                    std::fs::remove_dir_all(&root).ok();
                }
                return 2;
            }
        }
    }
    if scratch {
        std::fs::remove_dir_all(&root).ok();
    }

    if flags.metrics == Some(MetricsFormat::Json) {
        let mut out = String::from("{\n  \"schemes\": [\n");
        for (i, r) in reports.iter().enumerate() {
            let comma = if i + 1 < reports.len() { "," } else { "" };
            out.push_str(&indent(r.to_json().trim_end(), 4));
            out.push_str(comma);
            out.push('\n');
        }
        out.push_str("  ],\n  \"registry\": ");
        let snap = obs::global().snapshot().to_json();
        out.push_str(indent(snap.trim_end(), 2).trim_start());
        out.push_str("\n}\n");
        print!("{out}");
    } else {
        for r in &reports {
            print_report_text(r);
        }
        flags.print_metrics();
    }
    // Partial answers are still answers, but the caller must know: any
    // quarantine during the workload turns the exit code to 3.
    let mut degraded_any = false;
    for r in &reports {
        if let Some(d) = r.degraded {
            if !d.is_clean() {
                degraded_any = true;
                eprintln!(
                    "scheme {}: degraded answers — {} supernode(s) quarantined, \
                     {} adjacency part(s) skipped, {} transient read(s) retried",
                    r.scheme, d.quarantined_supernodes, d.skipped_edges, d.retries
                );
            }
        }
    }
    let trace_code = flags.write_trace();
    if degraded_any {
        3
    } else {
        trace_code
    }
}

/// Indents every line of `s` by `n` spaces.
fn indent(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn print_report_text(r: &WorkloadReport) {
    println!("scheme {}", r.scheme);
    for q in &r.queries {
        println!(
            "  {}: {:>9.3} ms | rows {:>4} | nav {:>5} calls | visited {:>5} | \
             lists {:>5}+{:<5} | memo {:>5} | batched {:>5} | cache {}/{} | pages {} | \
             fp {:016x}",
            q.query,
            q.wall_ns as f64 / 1e6,
            q.rows,
            q.nav_calls,
            q.supernodes_visited,
            q.intra_lists_decoded,
            q.super_lists_decoded,
            q.list_memo_hits,
            q.batched_lookups,
            q.cache_hits,
            q.cache_misses,
            q.pages_fetched,
            q.fingerprint
        );
    }
}

/// `wgr stats DIR --bits [--json]` — Table 1's numerator taken apart: see
/// [`webgraph_repr::snode::bits`].
fn print_bit_ledger(repo: &std::path::Path, json: bool) -> i32 {
    let ledger = match webgraph_repr::snode::bits::BitLedger::of(repo) {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("cannot read S-Node directory {}: {e}", repo.display());
            return 2;
        }
    };
    let text = if json {
        ledger.to_json()
    } else {
        ledger.to_string()
    };
    // The table is long and routinely piped into `head`; a closed pipe is
    // not an error.
    let _ = std::io::stdout().write_all(text.as_bytes());
    0
}

/// `wgr stats DIR [--bits] [--json]` (the historical `--repo DIR` spelling
/// still works) — representation statistics, machine-readable with
/// `--json`; with `--bits`, [`print_bit_ledger`] instead.
fn cmd_stats(args: &[String]) -> i32 {
    let repo = positional(args)
        .or_else(|| opt(args, "--repo"))
        .map(PathBuf::from);
    let Some(repo) = repo else {
        eprintln!("usage: wgr stats DIR [--bits] [--json]");
        return 2;
    };
    let json = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a == "--bits") {
        return print_bit_ledger(&repo, json);
    }
    let snode = open_snode(&repo);
    let meta = snode.meta();
    let mut sizes: Vec<u32> = (0..snode.num_supernodes())
        .map(|s| meta.supernode_size(s))
        .collect();
    sizes.sort_unstable();
    let (min, median, max) = (
        sizes.first().copied().unwrap_or(0),
        sizes.get(sizes.len() / 2).copied().unwrap_or(0),
        sizes.last().copied().unwrap_or(0),
    );
    if json {
        println!("{{");
        println!("  \"pages\": {},", snode.num_pages());
        println!("  \"supernodes\": {},", snode.num_supernodes());
        println!("  \"superedges\": {},", meta.supergraph.num_superedges());
        println!(
            "  \"supergraph_encoded_bytes\": {},",
            meta.supergraph_bits.div_ceil(8)
        );
        println!(
            "  \"supergraph_bytes_with_pointers\": {},",
            meta.supergraph.encoded_bytes_with_pointers()
        );
        println!("  \"element_size_min\": {min},");
        println!("  \"element_size_median\": {median},");
        println!("  \"element_size_max\": {max},");
        println!("  \"domains\": {}", meta.domain_supernodes.len());
        println!("}}");
    } else {
        println!("pages        : {}", snode.num_pages());
        println!("supernodes   : {}", snode.num_supernodes());
        println!("superedges   : {}", meta.supergraph.num_superedges());
        println!(
            "supernode graph: {} bytes encoded (+pointers {})",
            meta.supergraph_bits.div_ceil(8),
            meta.supergraph.encoded_bytes_with_pointers()
        );
        println!("element sizes: min {min} / median {median} / max {max}");
        println!("domains      : {}", meta.domain_supernodes.len());
    }
    0
}

fn cmd_links(args: &[String]) -> i32 {
    let repo = PathBuf::from(req(args, "--repo"));
    let page: u32 = parsed("--page", &req(args, "--page"));
    let snode = open_snode(&repo);
    if page >= snode.num_pages() {
        eprintln!("page {page} out of range (repo has {})", snode.num_pages());
        return 1;
    }
    let links = or_exit(
        snode.out_neighbors(page),
        format!("cannot read page {page}"),
    );
    println!(
        "page {page} (supernode {}) links to {} pages:",
        snode.supernode_of(page),
        links.len()
    );
    for t in links {
        println!("  {t}");
    }
    0
}

fn cmd_domain(args: &[String]) -> i32 {
    let repo = PathBuf::from(req(args, "--repo"));
    let corpus_dir = PathBuf::from(req(args, "--corpus"));
    let name = req(args, "--name");
    let corpus = read_corpus_at(&corpus_dir);
    let Some(d) = corpus.domain_by_name(&name) else {
        eprintln!("unknown domain {name}");
        return 1;
    };
    let snode = open_snode(&repo);
    let renum = read_pagemap(&repo);
    let pages = snode.pages_in_domain(d);
    println!(
        "{name}: {} pages in supernodes {:?}",
        pages.len(),
        snode.supernodes_of_domain(d)
    );
    for &p in pages.iter().take(20) {
        println!(
            "  {p}  {}",
            corpus.pages[renum.old_of_new[p as usize] as usize].url
        );
    }
    if pages.len() > 20 {
        println!("  … and {} more", pages.len() - 20);
    }
    0
}

/// `wgr check DIR [--json] [--deny warn]` — the full multi-pass analyzer.
/// Exit 0 when clean (or only tolerated warnings), 1 when warnings exist
/// and `--deny warn` was given, 2 when the representation has errors.
fn cmd_check(args: &[String]) -> i32 {
    let mut dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" | "--repo" => i += 2,
            a if !a.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(a));
                i += 1;
            }
            _ => i += 1,
        }
    }
    let dir = dir.or_else(|| opt(args, "--repo").map(PathBuf::from));
    let Some(dir) = dir else {
        eprintln!("usage: wgr check DIR [--json] [--deny warn]");
        return 2;
    };
    let json = args.iter().any(|a| a == "--json");
    let deny_warn = opt(args, "--deny").is_some_and(|v| v == "warn" || v == "warnings");
    match webgraph_repr::analyze::check(&dir) {
        Ok(report) => {
            // A report can run to thousands of lines and is routinely piped
            // into `head`/`less`; a closed pipe must not abort the exit code.
            let rendered = if json {
                report.to_json()
            } else {
                report.to_string()
            };
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "{rendered}");
            let _ = out.flush();
            if report.num_errors() > 0 {
                2
            } else if deny_warn && report.num_warnings() > 0 {
                1
            } else {
                0
            }
        }
        Err(e) => {
            if json {
                println!(
                    "{{\"fatal\":\"{}\"}}",
                    e.to_string().replace('\\', "\\\\").replace('"', "\\\"")
                );
            } else {
                eprintln!("fatal: {e}");
            }
            2
        }
    }
}

/// `wgr fsck DIR [--json] [--repair --from CORPUS_DIR]` — verifies every
/// checksummed section of an S-Node directory against its `sums.bin`
/// manifest (whole files, `meta.bin` sections, graph blobs) and reports a
/// per-section verdict with stable SN1xx codes. With `--repair`, damaged
/// files are re-encoded deterministically from the original corpus and the
/// directory is re-verified. Exit 0 clean, 1 damage found (or remaining
/// after repair), 2 usage error or failed repair.
fn cmd_fsck(args: &[String]) -> i32 {
    let mut dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--from" => i += 2,
            a if !a.starts_with('-') && dir.is_none() => {
                dir = Some(PathBuf::from(a));
                i += 1;
            }
            _ => i += 1,
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: wgr fsck DIR [--json] [--repair --from CORPUS_DIR]");
        return 2;
    };
    let json = args.iter().any(|a| a == "--json");
    let repair = args.iter().any(|a| a == "--repair");

    let report = webgraph_repr::analyze::fsck(&dir);
    let render = |r: &webgraph_repr::analyze::FsckReport| {
        if json {
            println!("{}", r.to_json());
        } else {
            println!("{r}");
        }
    };
    render(&report);
    if report.is_clean() {
        return 0;
    }
    if !repair {
        return 1;
    }

    let Some(from) = opt(args, "--from") else {
        eprintln!("--repair requires --from CORPUS_DIR (the original edge files)");
        return 2;
    };
    match repair_dir(&dir, &PathBuf::from(from)) {
        Ok(replaced) => {
            for name in &replaced {
                eprintln!("repaired {name}");
            }
        }
        Err(e) => {
            eprintln!("repair failed: {e}");
            return 2;
        }
    }
    let after = webgraph_repr::analyze::fsck(&dir);
    render(&after);
    i32::from(!after.is_clean())
}

/// Re-encodes the representation from `corpus_dir` into a scratch
/// directory (the build is deterministic and has one format, so a clean
/// rebuild is byte-identical to the original), and replaces every file of
/// `dir` that differs. Returns the replaced file names.
fn repair_dir(dir: &std::path::Path, corpus_dir: &std::path::Path) -> Result<Vec<String>, String> {
    let config = SNodeConfig::default();
    let input = read_build_input(corpus_dir)
        .map_err(|e| format!("cannot read corpus at {}: {e}", corpus_dir.display()))?;
    let tmp = std::env::temp_dir().join(format!("wgr_repair_{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    let built = build_from(&input, &config, &tmp)
        .map(|_| ())
        .map_err(|e| format!("re-encode failed: {e}"));
    let result = built.and_then(|()| {
        let mut replaced = Vec::new();
        let entries = std::fs::read_dir(&tmp).map_err(|e| format!("read scratch dir: {e}"))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read scratch dir: {e}"))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let good = webgraph_repr::fault::read_file(&entry.path())
                .map_err(|e| format!("read rebuilt {name}: {e}"))?;
            if webgraph_repr::fault::read_file(&dir.join(&name))
                .ok()
                .as_deref()
                != Some(&good[..])
            {
                std::fs::write(dir.join(&name), &good).map_err(|e| format!("write {name}: {e}"))?;
                replaced.push(name);
            }
        }
        replaced.sort();
        Ok(replaced)
    });
    std::fs::remove_dir_all(&tmp).ok();
    result
}

/// `wgr corrupt DIR --seed N [--flips N] [--truncate N] [--torn N]` —
/// injects a deterministic, seeded fault plan into the representation at
/// `DIR` (for testing `fsck` and degraded queries; `sums.bin` itself is
/// never targeted). Prints each applied fault.
fn cmd_corrupt(args: &[String]) -> i32 {
    let Some(dir) = positional(args) else {
        eprintln!("usage: wgr corrupt DIR --seed N [--flips N] [--truncate N] [--torn N] [--json]");
        return 2;
    };
    let dir = PathBuf::from(dir);
    let seed: u64 = num(args, "--seed").unwrap_or(1);
    let spec = FaultSpec {
        flips: num(args, "--flips").unwrap_or(1),
        truncations: num(args, "--truncate").unwrap_or(0),
        torn_writes: num(args, "--torn").unwrap_or(0),
        transient_reads: 0, // in-process only; meaningless across processes
    };
    let json = args.iter().any(|a| a == "--json");
    let plan = match FaultPlan::generate(&dir, seed, &spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot plan faults over {}: {e}", dir.display());
            return 2;
        }
    };
    match plan.apply_to_dir(&dir) {
        Ok(applied) => {
            if json {
                let mut out = format!("{{\"seed\":{seed},\"applied\":[");
                for (i, a) in applied.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&a.describe.replace('\\', "\\\\").replace('"', "\\\""));
                    out.push('"');
                }
                out.push_str("]}");
                println!("{out}");
            } else {
                for a in &applied {
                    println!("{}", a.describe);
                }
                println!("applied {} fault(s) (seed {seed})", applied.len());
            }
            0
        }
        Err(e) => {
            eprintln!("cannot apply faults to {}: {e}", dir.display());
            2
        }
    }
}

/// `wgr bench --scale | --serve` — the two measurements the ledger
/// (`benchmark/`) has no row for yet: the scale ladder behind
/// `BENCH_scale.json` and the concurrent-service run behind
/// `BENCH_serve.json`. Build and query timings are the ledger's.
fn cmd_bench(args: &[String]) -> i32 {
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = num(args, "--seed").unwrap_or(42);
    // One fresh process per measurement, so `VmHWM` attributes peak RSS
    // to exactly that step.
    if args.iter().any(|a| a == "--scale") {
        return bench_scale(args, seed, quick);
    }
    // Many clients against one shared representation.
    if args.iter().any(|a| a == "--serve") {
        let pages: u32 = num(args, "--pages").unwrap_or(if quick { 2_000 } else { 20_000 });
        let clients: usize = num(args, "--clients").unwrap_or(if quick { 16 } else { 100 });
        let sout =
            PathBuf::from(opt(args, "--serve-out").unwrap_or_else(|| "BENCH_serve.json".into()));
        let corpus = Corpus::generate(CorpusConfig::scaled(pages, seed));
        let scratch = std::env::temp_dir().join(format!("wgr_bench_serve_{}", std::process::id()));
        let code = bench_serve(&corpus, &scratch, pages, seed, clients, &sout, args);
        std::fs::remove_dir_all(&scratch).ok();
        return code;
    }
    eprintln!("usage: wgr bench --scale | --serve [options] (build and query timings: benchmark/)");
    2
}

/// Corpus sizes for `wgr bench --scale`: quick mode is the CI smoke
/// (one streamed 100 k-page build), the full run climbs to the
/// million-page acceptance point.
const SCALE_SIZES_FULL: [u32; 3] = [100_000, 300_000, 1_000_000];
const SCALE_SIZES_QUICK: [u32; 1] = [100_000];

/// Streamed generation must stay in bounded memory at every size: the
/// writer's only `O(edges)` state is the adjacency arena + PA pool
/// (≈ 8 bytes/edge), so half a gigabyte covers the million-page point
/// with a wide margin while still catching an accidental
/// materialisation of URL strings or the CSR graph (which costs
/// gigabytes there).
const SCALE_STREAM_RSS_BOUND: u64 = 512 << 20;

/// `wgr bench --scale` — the scale benchmark behind
/// `BENCH_scale.json`. Two parts:
///
/// 1. **Scale ladder** (subprocesses): per corpus size, a fresh process
///    streams the corpus, builds it, and reports its RSS
///    high-water marks; then one more probes navigation latency over
///    the result, its answers hashed into a fingerprint.
/// 2. **Memory gates**: streamed generation stays under a fixed bound,
///    and resident-query overhead (peak RSS minus the resident index
///    bytes) stays flat up the ladder modulo the per-page metadata the
///    paper's model keeps in memory.
fn bench_scale(args: &[String], seed: u64, quick: bool) -> i32 {
    let sizes: Vec<u32> = opt(args, "--sizes").map_or_else(
        || {
            if quick {
                SCALE_SIZES_QUICK.to_vec()
            } else {
                SCALE_SIZES_FULL.to_vec()
            }
        },
        |s| s.split(',').map(|t| parsed("--sizes", t)).collect(),
    );
    let probes: u32 = num(args, "--probes").unwrap_or(if quick { 2_000 } else { 10_000 });
    let out = PathBuf::from(opt(args, "--out").unwrap_or_else(|| "BENCH_scale.json".into()));
    let scratch = std::env::temp_dir().join(format!("wgr_scale_{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    let exe = std::env::current_exe().expect("current exe");
    let mut ok = true;
    let mut stream_bounded = true;
    let mut size_objs: Vec<String> = Vec::new();
    let mut overheads: Vec<(u32, u64)> = Vec::new();
    for &pages in &sizes {
        let dir = scratch.join(format!("s{pages}"));
        let dir_s = dir.to_string_lossy().into_owned();
        let b = run_scale_step(
            &exe,
            &[
                "scale-step",
                "build",
                "--pages",
                &pages.to_string(),
                "--seed",
                &seed.to_string(),
                "--dir",
                &dir_s,
            ],
        );
        let Some(b) = b else {
            ok = false;
            continue;
        };
        let stream_peak = step_u64(&b, "stream_peak_rss_bytes");
        stream_bounded &= stream_peak > 0 && stream_peak <= SCALE_STREAM_RSS_BOUND;
        eprintln!(
            "scale {pages}: stream {:.1}s (peak {} MiB), build {:.1}s (peak {} MiB), \
             {:.3} bits/edge",
            step_f64(&b, "stream_secs"),
            stream_peak >> 20,
            step_f64(&b, "build_secs"),
            step_u64(&b, "peak_rss_bytes") >> 20,
            step_f64(&b, "bits_per_edge"),
        );
        let repo = dir.join("repo");
        let repo_s = repo.to_string_lossy().into_owned();
        let probe_args = [
            "scale-step",
            "query",
            "--repo",
            &repo_s,
            "--probes",
            &probes.to_string(),
        ];
        let Some(qr) = run_scale_step(&exe, &probe_args) else {
            ok = false;
            std::fs::remove_dir_all(&dir).ok();
            continue;
        };
        eprintln!(
            "scale {pages}: probe p50 {} ns / p99 {} ns, resident index {} MiB",
            step_u64(&qr, "p50_ns"),
            step_u64(&qr, "p99_ns"),
            step_u64(&qr, "resident_bytes") >> 20,
        );
        overheads.push((
            pages,
            step_u64(&qr, "peak_rss_bytes").saturating_sub(step_u64(&qr, "resident_bytes")),
        ));
        size_objs.push(format!(
            "    {{\"pages\": {pages},\n     \"build\": {b},\n     \"query_resident\": {qr}}}"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&scratch).ok();

    // Flat-memory gate: beyond the resident index, a bigger corpus may
    // only cost the per-page metadata the paper's model keeps in memory
    // (renumbering + page→supernode maps; 64 B/page is a generous
    // ceiling) — the decoded-list cache is budget-capped and must not
    // grow with corpus size.
    let base_overhead = overheads.iter().map(|&(_, o)| o).min().unwrap_or(0);
    let query_memory_flat = overheads
        .iter()
        .all(|&(p, o)| o <= base_overhead + 64 * u64::from(p) + (32 << 20));
    if !stream_bounded {
        eprintln!("FAILED: streamed generation exceeded the bounded-memory gate");
    }
    if !query_memory_flat {
        eprintln!("FAILED: query overhead grows faster than the resident-index model allows");
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"wgr scale\",\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"probes\": {probes},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"stream_rss_bound_bytes\": {SCALE_STREAM_RSS_BOUND},\n"
    ));
    json.push_str(&format!("  \"stream_rss_bounded\": {stream_bounded},\n"));
    json.push_str(&format!("  \"query_memory_flat\": {query_memory_flat},\n"));
    json.push_str("  \"sizes\": [\n");
    json.push_str(&size_objs.join(",\n"));
    json.push_str("\n  ]\n}\n");
    or_exit(
        std::fs::write(&out, &json),
        format!("cannot write {}", out.display()),
    );
    println!("wrote {}", out.display());
    i32::from(!(ok && stream_bounded && query_memory_flat))
}

/// Runs one hidden `scale-step` subprocess and returns the JSON line it
/// printed (the last `{`-led stdout line), or `None` on failure.
fn run_scale_step(exe: &std::path::Path, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(exe).args(args).output().ok()?;
    if !out.status.success() {
        eprintln!(
            "scale step {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .map(str::to_string)
}

/// Dispatcher for the hidden `wgr scale-step` subcommand (the
/// per-measurement child of `wgr bench --scale`).
fn cmd_scale_step(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("build") => scale_step_build(&args[1..]),
        Some("query") => scale_step_query(&args[1..]),
        _ => {
            eprintln!("usage: wgr scale-step <build|query> (internal; use `wgr bench --scale`)");
            2
        }
    }
}

/// `wgr scale-step build --pages N --seed N --dir DIR` —
/// streams the corpus to `DIR/corpus`, builds the S-Node
/// representation at `DIR/repo`, and prints one JSON line with the
/// timings, output fingerprint, and this process's RSS high-water
/// marks: sampled once right after streaming (witnessing the writer's
/// bounded memory) and once after the build (the whole step).
fn scale_step_build(args: &[String]) -> i32 {
    let pages: u32 = parsed("--pages", &req(args, "--pages"));
    let seed: u64 = num(args, "--seed").unwrap_or(42);
    let dir = PathBuf::from(req(args, "--dir"));
    let corpus_dir = dir.join("corpus");
    let repo = dir.join("repo");

    let sw = obs::Stopwatch::start();
    webgraph_repr::corpus::stream::stream_corpus(
        &corpus_dir,
        &webgraph_repr::corpus::CorpusConfig::scaled(pages, seed),
    )
    .expect("stream corpus");
    let stream_secs = sw.elapsed().as_secs_f64();
    let stream_peak = obs::sample_self().map_or(0, |s| s.peak_rss_bytes);

    let sw = obs::Stopwatch::start();
    let input = read_build_input(&corpus_dir).expect("read streamed corpus");
    let read_secs = sw.elapsed().as_secs_f64();
    let config = SNodeConfig::default();
    let sw = obs::Stopwatch::start();
    let (stats, _renum) = build_from(&input, &config, &repo).expect("scale build");
    let build_secs = sw.elapsed().as_secs_f64();
    let peak = obs::sample_self().map_or(0, |s| s.peak_rss_bytes);
    let fp = fingerprint_dir(&repo).expect("fingerprint scale dir");
    println!(
        "{{\"step\":\"build\",\"pages\":{},\"edges\":{},\
         \"stream_secs\":{stream_secs:.3},\"read_secs\":{read_secs:.3},\
         \"build_secs\":{build_secs:.3},\"supernodes\":{},\"superedges\":{},\
         \"bits_per_edge\":{:.4},\"fingerprint\":\"{fp:016x}\",\
         \"stream_peak_rss_bytes\":{stream_peak},\"peak_rss_bytes\":{peak}}}",
        input.num_pages(),
        input.graph.num_edges(),
        stats.num_supernodes,
        stats.num_superedges,
        stats.bits_per_edge(),
    );
    0
}

/// `wgr scale-step query --repo DIR [--probes N] [--budget B]` — opens
/// the representation, runs N deterministic `out_neighbors` probes, and
/// prints one JSON line with the latency distribution, a fingerprint of
/// the answers, the resident index bytes, and this process's peak RSS.
fn scale_step_query(args: &[String]) -> i32 {
    let repo = PathBuf::from(req(args, "--repo"));
    let probes: u32 = num(args, "--probes").unwrap_or(10_000);
    let budget: usize = num(args, "--budget").unwrap_or(1 << 20);
    let snode = SNode::open_resident(&repo, budget).expect("open repo");
    let n = snode.num_pages();
    if n == 0 || probes == 0 {
        eprintln!("nothing to probe");
        return 2;
    }
    let mut lat: Vec<u64> = Vec::with_capacity(probes as usize);
    let mut edges = 0u64;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf: Vec<u32> = Vec::new();
    for i in 0..probes {
        // Knuth multiplicative scatter: deterministic, and spread across
        // the id space.
        let p = ((u64::from(i) * 2_654_435_761) % u64::from(n)) as u32;
        let sw = obs::Stopwatch::start();
        snode.out_neighbors_into(p, &mut buf).expect("navigate");
        lat.push(sw.elapsed().as_nanos() as u64);
        edges += buf.len() as u64;
        for &t in std::iter::once(&p).chain(buf.iter()) {
            for b in t.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        }
    }
    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p).round() as usize];
    let mean = lat.iter().sum::<u64>() / lat.len() as u64;
    let peak = obs::sample_self().map_or(0, |s| s.peak_rss_bytes);
    println!(
        "{{\"step\":\"query\",\"pages\":{n},\"probes\":{probes},\
         \"p50_ns\":{},\"p99_ns\":{},\"mean_ns\":{mean},\"edges_touched\":{edges},\
         \"probe_fingerprint\":\"{h:016x}\",\"resident_bytes\":{},\"peak_rss_bytes\":{peak}}}",
        pct(0.50),
        pct(0.99),
        snode.resident_bytes(),
    );
    0
}

/// Extracts `"key":<number>` (integer or decimal) from a scale-step line.
fn step_f64(line: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    line.find(&pat)
        .map(|i| {
            line[i + pat.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect::<String>()
        })
        .and_then(|d| d.parse().ok())
        .unwrap_or(0.0)
}

/// [`step_f64`] for a count or byte figure (0 when absent).
fn step_u64(line: &str, key: &str) -> u64 {
    step_f64(line, key) as u64
}

/// Builds the serve context (representations + auxiliary indexes) for a
/// corpus, the way `wgr serve` and `wgr bench --serve` share it. The
/// returned fingerprints are the single-threaded Q1–6 reference every
/// concurrent answer must reproduce.
fn build_serve_context(
    corpus: &Corpus,
    set: &SchemeSet,
    scheme: Scheme,
) -> Result<(Arc<ServeContext>, [u64; 6]), String> {
    let text = TextIndex::build(corpus, &set.renumbering);
    let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
    let domains = DomainTable::build(corpus, &set.renumbering);
    let workload = Workload::discover(&text, &domains);
    let fwd = set
        .open(scheme)
        .map_err(|e| format!("open {}: {e}", scheme.name()))?;
    let back = set
        .open_transpose(scheme)
        .map_err(|e| format!("open {} transpose: {e}", scheme.name()))?;
    let ctx = Arc::new(ServeContext {
        text,
        pagerank,
        domains,
        workload,
        fwd,
        back,
        num_pages: set.graph.num_nodes(),
    });
    let mut reference = [0u64; 6];
    for (i, r) in reference.iter_mut().enumerate() {
        let out = ctx
            .run_query(i as u8 + 1)
            .map_err(|e| format!("reference q{}: {e}", i + 1))?;
        *r = fingerprint_rows(&out.rows);
    }
    Ok((ctx, reference))
}

/// `wgr bench --serve` — multi-client latency/throughput benchmark of the
/// concurrent query service on the standard bench corpus. Every client
/// runs the Q1–6 workload cycle plus raw navigation over one *shared*
/// decoded representation; per-query fingerprints are written as decimal
/// u64s so CI can compare them with the committed `BENCH_serve.json`
/// (the constants of `crates/query/tests/golden_queries.rs`: same corpus,
/// same FNV-1a).
fn bench_serve(
    corpus: &Corpus,
    scratch: &std::path::Path,
    pages: u32,
    seed: u64,
    clients: usize,
    out: &std::path::Path,
    args: &[String],
) -> i32 {
    const ROUNDS: usize = 2; // Q1–6 cycles per client
    const NAVS: usize = 8; // raw out_neighbors calls per client
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let set = SchemeSet::build(
        &scratch.join("serveset"),
        &urls,
        &domains,
        &corpus.graph,
        &SNodeConfig::default(),
        1 << 20,
    )
    .expect("build scheme set");
    let (ctx, reference) = build_serve_context(corpus, &set, Scheme::SNode).expect("serve context");
    let num_pages = ctx.num_pages;

    let workers: usize = num(args, "--workers")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get().max(2)));
    let cfg = ServeConfig {
        workers,
        // Every client may be parked in the queue at once; refusals would
        // benchmark the backpressure path, not the read path.
        queue_cap: clients.max(256),
        port: 0,
    };
    let server = Server::start(Arc::clone(&ctx), &cfg).expect("start server");
    let port = server.port();

    let mut latencies: Vec<u64> = Vec::with_capacity(clients * (ROUNDS * 6 + NAVS));
    let mut mismatches = 0u64;
    let mut degraded = 0u64;
    let mut errors = 0u64;
    let wall = obs::Stopwatch::start();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let reference = &reference;
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(ROUNDS * 6 + NAVS);
                    let (mut mm, mut dg, mut er) = (0u64, 0u64, 0u64);
                    let Ok(mut cl) = Client::connect(port) else {
                        return (lats, mm, dg, 1u64);
                    };
                    for _ in 0..ROUNDS {
                        for n in 1..=6u8 {
                            let sw = obs::Stopwatch::start();
                            match cl.query(n) {
                                Ok(reply) => {
                                    lats.push(sw.elapsed().as_nanos() as u64);
                                    mm += u64::from(
                                        reply.fingerprint != reference[usize::from(n) - 1],
                                    );
                                    dg += u64::from(reply.status == ServeStatus::Degraded);
                                }
                                Err(_) => er += 1,
                            }
                        }
                    }
                    for k in 0..NAVS {
                        let p = ((c * 7919 + k * 104_729) % num_pages as usize) as u32;
                        let sw = obs::Stopwatch::start();
                        match cl.out_neighbors(p) {
                            Ok(_) => lats.push(sw.elapsed().as_nanos() as u64),
                            Err(_) => er += 1,
                        }
                    }
                    (lats, mm, dg, er)
                })
            })
            .collect();
        for h in handles {
            let (l, mm, dg, er) = h.join().expect("client thread");
            latencies.extend(l);
            mismatches += mm;
            degraded += dg;
            errors += er;
        }
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    let stats = server.shutdown();

    latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx] as f64 / 1e6
    };
    let total = latencies.len() as u64;
    let throughput = if wall_secs > 0.0 {
        total as f64 / wall_secs
    } else {
        0.0
    };

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"wgr serve\",\n");
    json.push_str(&format!("  \"pages\": {pages},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str(&format!("  \"requests\": {total},\n"));
    json.push_str(&format!("  \"errors\": {errors},\n"));
    json.push_str(&format!("  \"fingerprint_mismatches\": {mismatches},\n"));
    json.push_str(&format!("  \"degraded_responses\": {degraded},\n"));
    json.push_str(&format!(
        "  \"overloaded\": {},\n",
        stats.overloaded.load(std::sync::atomic::Ordering::Relaxed)
    ));
    json.push_str(&format!("  \"wall_secs\": {wall_secs:.6},\n"));
    json.push_str(&format!("  \"throughput_rps\": {throughput:.1},\n"));
    json.push_str(&format!(
        "  \"latency_ms\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}},\n",
        pct(0.50),
        pct(0.90),
        pct(0.99),
        pct(1.0)
    ));
    json.push_str("  \"fingerprints\": {\n");
    for (i, fp) in reference.iter().enumerate() {
        let sep = if i + 1 < reference.len() { "," } else { "" };
        json.push_str(&format!("    \"q{}\": {fp}{sep}\n", i + 1));
    }
    json.push_str("  }\n}\n");
    or_exit(
        std::fs::write(out, &json),
        format!("cannot write {}", out.display()),
    );
    println!("wrote {}", out.display());
    eprintln!(
        "serve bench: {clients} clients × {} req = {total} in {wall_secs:.3}s \
         ({throughput:.0} req/s), p50 {:.3} ms, p99 {:.3} ms",
        ROUNDS * 6 + NAVS,
        pct(0.50),
        pct(0.99),
    );
    if errors > 0 || mismatches > 0 {
        eprintln!(
            "FAILED: {errors} request error(s), {mismatches} fingerprint mismatch(es) \
             under concurrency"
        );
        return 1;
    }
    if degraded > 0 {
        return 3;
    }
    0
}

/// `wgr serve DIR` — builds (or, with `--reps`/`--reuse`, reopens) the
/// query representations for the corpus at `DIR` and serves the observed
/// Q1–6 workload plus raw `out_neighbors` navigation over TCP (frame
/// format: `wg_serve::proto`). One decoded representation is shared by all
/// workers. `--smoke N` runs an in-process N-client burst against the live
/// server and exits by the wg-fault contract: 0 clean, 3 degraded answers,
/// 2 errors.
fn cmd_serve(args: &[String]) -> i32 {
    let Some(corpus_dir) = positional(args).or_else(|| opt(args, "--corpus")) else {
        eprintln!(
            "usage: wgr serve DIR [--port P] [--workers N] [--queue N] [--scheme NAME]\n\
             \x20                [--budget BYTES] [--reps DIR] [--reuse] [--smoke N]\n\
             \x20                [--metrics[=json]] [--trace FILE]"
        );
        return 2;
    };
    // `--metrics` must be up before representations are opened (counters
    // register at construction); `--trace` arms the ring the serve spans
    // and cache-load events feed.
    let flags = ObsFlags::parse(args);
    let budget: usize = num(args, "--budget").unwrap_or(1 << 20);
    let port: u16 = num(args, "--port").unwrap_or(0);
    let scheme = match opt(args, "--scheme").as_deref() {
        None => Scheme::SNode,
        Some(name) => match Scheme::ALL.iter().copied().find(|s| s.name() == name) {
            Some(s) => s,
            None => {
                eprintln!(
                    "unknown scheme {name}; expected {}",
                    Scheme::ALL.map(|s| s.name()).join(", ")
                );
                return 2;
            }
        },
    };
    let corpus = read_corpus_at(Path::new(&corpus_dir));
    let (set, root, scratch) = scheme_set(args, &corpus, budget, "wgr_serve");
    let (ctx, reference) = match build_serve_context(&corpus, &set, scheme) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot start service: {e}");
            if scratch {
                std::fs::remove_dir_all(&root).ok();
            }
            return 2;
        }
    };
    let cfg = ServeConfig {
        workers: num(args, "--workers")
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get().max(2))),
        queue_cap: num(args, "--queue").unwrap_or(256),
        port,
    };
    let server = match Server::start(Arc::clone(&ctx), &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind 127.0.0.1:{port}: {e}");
            if scratch {
                std::fs::remove_dir_all(&root).ok();
            }
            return 2;
        }
    };
    println!(
        "serving {} on 127.0.0.1:{} ({} workers, queue {})",
        scheme.name(),
        server.port(),
        cfg.workers,
        cfg.queue_cap
    );

    if let Some(n) = num::<usize>(args, "--smoke") {
        let code = serve_smoke(server.port(), n, &reference, ctx.num_pages);
        let stats = server.shutdown();
        eprintln!(
            "smoke: {} connection(s), {} request(s), {} degraded, {} error(s), {} refused",
            stats.connections.load(std::sync::atomic::Ordering::Relaxed),
            stats.requests.load(std::sync::atomic::Ordering::Relaxed),
            stats.degraded.load(std::sync::atomic::Ordering::Relaxed),
            stats.errors.load(std::sync::atomic::Ordering::Relaxed),
            stats.overloaded.load(std::sync::atomic::Ordering::Relaxed),
        );
        if scratch {
            std::fs::remove_dir_all(&root).ok();
        }
        flags.print_metrics();
        let trace_code = flags.write_trace();
        return if code != 0 { code } else { trace_code };
    }
    // Serve until the process is killed. (With a scratch representation
    // the temp directory lives as long as the server does. `--trace` only
    // produces a file on `--smoke` exit — a parked server never returns.)
    loop {
        std::thread::park();
    }
}

/// In-process client burst for `wgr serve --smoke N`: every client pings,
/// runs Q1–6 twice checking fingerprints against the single-threaded
/// reference, and walks a few adjacency lists. Returns the worst exit
/// code seen: 0 clean, 3 degraded answers, 2 errors or drifted answers.
fn serve_smoke(port: u16, clients: usize, reference: &[u64; 6], num_pages: u32) -> i32 {
    let mut mismatches = 0u64;
    let mut degraded = 0u64;
    let mut errors = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let (mut mm, mut dg, mut er) = (0u64, 0u64, 0u64);
                    let Ok(mut cl) = Client::connect(port) else {
                        return (mm, dg, 1u64);
                    };
                    match cl.ping() {
                        Ok(ServeStatus::Ok) => {}
                        Ok(ServeStatus::Degraded) => dg += 1,
                        _ => er += 1,
                    }
                    for _ in 0..2 {
                        for n in 1..=6u8 {
                            match cl.query(n) {
                                Ok(reply) => {
                                    mm += u64::from(
                                        reply.fingerprint != reference[usize::from(n) - 1],
                                    );
                                    dg += u64::from(reply.status == ServeStatus::Degraded);
                                }
                                Err(_) => er += 1,
                            }
                        }
                    }
                    for k in 0..4usize {
                        let p = ((c * 7919 + k * 104_729) % num_pages as usize) as u32;
                        match cl.out_neighbors(p) {
                            Ok((ServeStatus::Degraded, _)) => dg += 1,
                            Ok(_) => {}
                            Err(_) => er += 1,
                        }
                    }
                    (mm, dg, er)
                })
            })
            .collect();
        for h in handles {
            let (mm, dg, er) = h.join().expect("smoke client thread");
            mismatches += mm;
            degraded += dg;
            errors += er;
        }
    });
    if errors > 0 || mismatches > 0 {
        eprintln!("smoke FAILED: {errors} error(s), {mismatches} fingerprint mismatch(es)");
        2
    } else if degraded > 0 {
        eprintln!("smoke: degraded answers (quarantined supernodes)");
        3
    } else {
        println!("smoke ok: {clients} concurrent clients, byte-identical answers");
        0
    }
}

fn cmd_top(args: &[String]) -> i32 {
    let repo = PathBuf::from(req(args, "--repo"));
    let corpus_dir = PathBuf::from(req(args, "--corpus"));
    let k: usize = num(args, "-k").unwrap_or(10);
    let corpus = read_corpus_at(&corpus_dir);
    let renum = read_pagemap(&repo);
    let pr = pagerank(&corpus.graph, &PageRankConfig::default());
    println!("top {k} pages by PageRank:");
    for &old in top_ranked(&pr.ranks, k).iter() {
        println!(
            "  {:.6}  (id {})  {}",
            pr.ranks[old as usize], renum.new_of_old[old as usize], corpus.pages[old as usize].url
        );
    }
    0
}
