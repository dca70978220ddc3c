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
use webgraph_repr::corpus::stream::stream_corpus;
use webgraph_repr::corpus::textio::{read_build_input, read_corpus, BuildInput};
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::fault::{FaultPlan, FaultSpec};
use webgraph_repr::graph::pagerank::{pagerank, top_ranked, PageRankConfig};
use webgraph_repr::obs;
use webgraph_repr::query::obsrun::{fingerprint_rows, run_observed, WorkloadReport};
use webgraph_repr::query::queries::{QueryEnv, Workload};
use webgraph_repr::query::reps::SchemeSet;
use webgraph_repr::query::{DomainTable, PageRankIndex, Scheme, TextIndex};
use webgraph_repr::serve::{Client, ServeConfig, ServeContext, Server, Status as ServeStatus};
use webgraph_repr::snode::{
    build_snode, BuildStats, IntegrityManifest, Renumbering, RepoInput, SNode, SNodeConfig,
};

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
        Some("corrupt") => cmd_corrupt(&args[2..]),
        Some("serve") => cmd_serve(&args[2..]),
        _ => {
            eprintln!(
                "usage: wgr <gen|build|query|stats|links|domain|top|check|corrupt|serve> [options]\n\
                 \n\
                 gen    --pages N [--seed N] --out DIR      generate a synthetic corpus\n\
                 build  --corpus DIR --out DIR [--threads N] build the S-Node representation\n\
                 query  DIR [--scheme NAME|all] [--budget B] run the observed Q1-6 workload\n\
                 \x20      [--reps DIR] [--reuse]             over the corpus at DIR;\n\
                 \x20                                          exit 3 when answers were degraded\n\
                 stats  DIR [--bits] [--json]               show representation statistics;\n\
                 \x20                                          --bits: where every bit of meta.bin\n\
                 \x20                                          and the index files goes, by class\n\
                 links  --repo DIR --page N                 print a page's adjacency list\n\
                 domain --repo DIR --corpus DIR --name D    list a domain's pages\n\
                 top    --repo DIR --corpus DIR [-k N]      top pages by PageRank\n\
                 check  DIR [--json] [--deny warn]          every byte against sums.bin, then every\n\
                 \x20      [--repair --from DIR]              invariant of what verified; exit 0 clean,\n\
                 \x20                                          1 denied warnings, 2 errors or unusable;\n\
                 \x20                                          --repair re-encodes from the corpus\n\
                 corrupt DIR --seed N [--flips N] [--truncate N] [--torn N] [--json]\n\
                 \x20                                          inject deterministic faults (testing)\n\
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
            let boolean =
                a.contains('=') || matches!(a, "--json" | "--bits" | "--metrics" | "--reuse");
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
    let st = or_exit(
        stream_corpus(&out, &CorpusConfig::scaled(pages, seed)),
        format!("cannot write corpus {}", out.display()),
    );
    println!(
        "wrote {} pages, {} links, {} domains to {}",
        st.num_pages,
        st.num_edges,
        st.num_domains,
        out.display()
    );
    0
}

/// The flags `build` takes, each with whether a value follows it.
const BUILD_FLAGS: [(&str, bool); 8] = [
    ("--corpus", true),
    ("--out", true),
    ("--threads", true),
    // Accepted for `benchmark/`, which is frozen and still passes it.
    ("--shards", true),
    ("--metrics", false),
    ("--metrics=text", false),
    ("--metrics=json", false),
    ("--trace", true),
];

/// Holds `args` to the flags `cmd` takes (each with whether a value
/// follows it) and returns its one positional argument, when `positional`
/// says it takes one and it was given. Anything else is refused before
/// anything is read or written, with one line and exit 2: an argument
/// ignored would do something other than was asked.
fn take_flags<'a>(
    cmd: &str,
    flags: &[(&str, bool)],
    positional: bool,
    args: &'a [String],
) -> Result<Option<&'a String>, i32> {
    let mut found = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match flags.iter().find(|(flag, _)| flag == arg) {
            Some(&(flag, takes_value)) => {
                if takes_value && rest.next().is_none() {
                    eprintln!("{flag} takes a value");
                    return Err(2);
                }
            }
            None if positional && found.is_none() && !arg.starts_with('-') => found = Some(arg),
            None => {
                eprintln!("wgr {cmd} does not take {arg}");
                return Err(2);
            }
        }
    }
    Ok(found)
}

fn cmd_build(args: &[String]) -> i32 {
    if let Err(code) = take_flags("build", &BUILD_FLAGS, false, args) {
        return code;
    }
    let flags = ObsFlags::parse(args);
    let corpus_dir = PathBuf::from(req(args, "--corpus"));
    let out = PathBuf::from(req(args, "--out"));
    // 0 = auto: WGR_THREADS env var, else available parallelism. The
    // representation is byte-identical for every thread count.
    let threads: u32 = num(args, "--threads").unwrap_or(0);
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
             lists {:>5}+{:<5} | batched {:>5} | cache {}/{} | pages {} | \
             fp {:016x}",
            q.query,
            q.wall_ns as f64 / 1e6,
            q.rows,
            q.nav_calls,
            q.supernodes_visited,
            q.intra_lists_decoded,
            q.super_lists_decoded,
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
    let index = snode.index();
    let one_target = or_exit(
        snode.one_target_superedges(),
        format!("cannot read superedge graphs in {}", repo.display()),
    );
    let mut sizes: Vec<u32> = (0..snode.num_supernodes())
        .map(|s| index.supernode_size(s))
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
        println!("  \"superedges\": {},", index.num_superedges());
        println!("  \"one_target_superedges\": {one_target},");
        println!(
            "  \"supergraph_encoded_bytes\": {},",
            index.supergraph_bits().div_ceil(8)
        );
        println!(
            "  \"supergraph_bytes_with_pointers\": {},",
            index.supergraph_bytes_with_pointers()
        );
        println!("  \"element_size_min\": {min},");
        println!("  \"element_size_median\": {median},");
        println!("  \"element_size_max\": {max},");
        println!("  \"domains\": {}", index.num_domains());
        println!("}}");
    } else {
        println!("pages        : {}", snode.num_pages());
        println!("supernodes   : {}", snode.num_supernodes());
        println!("superedges   : {}", index.num_superedges());
        println!("  one-target : {one_target} (answered from the fanout)");
        println!(
            "supernode graph: {} bytes encoded (+pointers {})",
            index.supergraph_bits().div_ceil(8),
            index.supergraph_bytes_with_pointers()
        );
        println!("element sizes: min {min} / median {median} / max {max}");
        println!("domains      : {}", index.num_domains());
    }
    0
}

fn cmd_links(args: &[String]) -> i32 {
    let repo = PathBuf::from(req(args, "--repo"));
    let page: u32 = parsed("--page", &req(args, "--page"));
    let snode = open_snode(&repo);
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

/// The flags `check` takes, each with whether a value follows it.
const CHECK_FLAGS: [(&str, bool); 4] = [
    ("--json", false),
    ("--deny", true),
    ("--repair", false),
    ("--from", true),
];

/// `wgr check DIR [--json] [--deny warn] [--repair --from CORPUS_DIR]` —
/// the one checker: every byte against `sums.bin`, then every invariant of
/// what verified. Exit 0 when clean (or only tolerated warnings), 1 when
/// warnings exist and `--deny warn` was given, 2 for errors or an unusable
/// directory. With `--repair`, a directory that fails is re-encoded from
/// its corpus and checked again, and that check gives the exit code.
fn cmd_check(args: &[String]) -> i32 {
    let dir = match take_flags("check", &CHECK_FLAGS, true, args) {
        Ok(Some(dir)) => PathBuf::from(dir),
        Ok(None) => {
            eprintln!("usage: wgr check DIR [--json] [--deny warn] [--repair --from CORPUS_DIR]");
            return 2;
        }
        Err(code) => return code,
    };
    let deny_warn = match opt(args, "--deny") {
        None => false,
        Some(v) if v == "warn" => true,
        Some(v) => {
            eprintln!("--deny takes warn, not {v}");
            return 2;
        }
    };
    let from = opt(args, "--from");
    if args.iter().any(|a| a == "--repair") != from.is_some() {
        eprintln!("--repair and --from CORPUS_DIR (the original edge files) go together");
        return 2;
    }
    let json = args.iter().any(|a| a == "--json");
    let verdict = |report: webgraph_repr::analyze::Report| {
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
        } else {
            i32::from(deny_warn && report.num_warnings() > 0)
        }
    };
    let code = verdict(webgraph_repr::analyze::check(&dir));
    let Some(from) = from.filter(|_| code != 0) else {
        return code;
    };
    match repair_dir(&dir, Path::new(&from)) {
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
    verdict(webgraph_repr::analyze::check(&dir))
}

/// Re-encodes the representation from `corpus_dir` into a scratch
/// directory (the build is deterministic and has one format, so a clean
/// rebuild is byte-identical to the original), and replaces every file of
/// `dir` that differs. Returns the replaced file names.
///
/// Writes nothing, and says to rebuild the representations, when a file
/// of `dir` other than `meta.bin` matches its own `sums.bin` entry yet
/// differs from the rebuild's: the directory is not the forward build of
/// this corpus (a reps root's `snode_t`, say), and replacing its files
/// would turn it into one. `meta.bin` is left out because an intact one
/// under an older version's header is what a repair is for.
fn repair_dir(dir: &std::path::Path, corpus_dir: &std::path::Path) -> Result<Vec<String>, String> {
    let config = SNodeConfig::default();
    let input = read_build_input(corpus_dir)
        .map_err(|e| format!("cannot read corpus at {}: {e}", corpus_dir.display()))?;
    let tmp = std::env::temp_dir().join(format!("wgr_repair_{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    let built = build_from(&input, &config, &tmp)
        .map(|_| ())
        .map_err(|e| format!("re-encode failed: {e}"));
    let rebuilt = built.and_then(|()| {
        let entries = std::fs::read_dir(&tmp).map_err(|e| format!("read scratch dir: {e}"))?;
        let mut rebuilt = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("read scratch dir: {e}"))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let good = webgraph_repr::fault::read_file(&entry.path())
                .map_err(|e| format!("read rebuilt {name}: {e}"))?;
            let own = webgraph_repr::fault::read_file(&dir.join(&name)).ok();
            rebuilt.push((name, good, own));
        }
        rebuilt.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(rebuilt)
    });
    std::fs::remove_dir_all(&tmp).ok();
    let rebuilt = rebuilt?;

    let manifest = IntegrityManifest::read(dir).ok().flatten();
    let vouched = |name: &str, own: &[u8]| {
        let check = manifest.as_ref().map(|m| m.check_file_bytes(name, own));
        name != "meta.bin" && matches!(check, Some(Ok(true)))
    };
    let apart = (rebuilt.iter()).find(|(name, good, own)| match own {
        Some(own) => own != good && vouched(name, own),
        None => false,
    });
    if let Some((name, ..)) = apart {
        return Err(format!(
            "{} is not a build of {} ({name} is intact and differs): rebuild the representations",
            dir.display(),
            corpus_dir.display()
        ));
    }
    let mut replaced = Vec::new();
    for (name, good, own) in rebuilt {
        if own.as_ref() != Some(&good) {
            std::fs::write(dir.join(&name), &good).map_err(|e| format!("write {name}: {e}"))?;
            replaced.push(name);
        }
    }
    Ok(replaced)
}

/// `wgr corrupt DIR --seed N [--flips N] [--truncate N] [--torn N]` —
/// injects a deterministic, seeded fault plan into the representation at
/// `DIR` (for testing `check` and degraded queries; `sums.bin` itself is
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

/// Builds the serve context (representations + auxiliary indexes) for a
/// corpus. The returned fingerprints are the single-threaded Q1–6
/// reference every concurrent answer must reproduce.
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

/// The flags `serve` takes, each with whether a value follows it.
const SERVE_FLAGS: [(&str, bool); 14] = [
    ("--corpus", true),
    ("--port", true),
    ("--workers", true),
    ("--queue", true),
    ("--scheme", true),
    ("--budget", true),
    ("--reps", true),
    ("--reuse", false),
    ("--smoke", true),
    // Accepted for `benchmark/`, which still passes it, and ignored:
    // nothing is left to turn off.
    ("--no-telemetry", false),
    ("--metrics", false),
    ("--metrics=text", false),
    ("--metrics=json", false),
    ("--trace", true),
];

/// `wgr serve DIR` — builds (or, with `--reps`/`--reuse`, reopens) the
/// query representations for the corpus at `DIR` and serves the observed
/// Q1–6 workload plus raw `out_neighbors` navigation over TCP (frame
/// format: `wg_serve::proto`). One decoded representation is shared by all
/// workers. `--smoke N` runs an in-process N-client burst against the live
/// server and exits by the wg-fault contract: 0 clean, 3 degraded answers,
/// 2 errors.
fn cmd_serve(args: &[String]) -> i32 {
    let dir = match take_flags("serve", &SERVE_FLAGS, true, args) {
        Ok(dir) => dir.cloned(),
        Err(code) => return code,
    };
    let Some(corpus_dir) = dir.or_else(|| opt(args, "--corpus")) else {
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
