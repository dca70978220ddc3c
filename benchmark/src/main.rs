//! `wgbench` — the repository's benchmark (see `../BENCHMARK.json`,
//! `README.md`).
//!
//! ```text
//! wgbench run --workload NAME|all --seed S [--seconds N] [--trace 0|1|FILE]
//!             [--quick] [--out FILE]
//! wgbench compare OLD NEW
//! ```
//!
//! Run from the root of a checkout. `run` builds `wgr` from source, runs
//! one workload, prints every metric by name with its unit, checks every
//! answer, and ends its standard output with one JSON line: `correct`,
//! `attempted`, `failed`, `metrics`. It exits non-zero on a wrong answer.

use std::io::Write;
use std::path::{Path, PathBuf};
use wg_benchmark::json::{escape, Json};
use wg_benchmark::workloads::{self, Metric, Outcome, Run, END_TO_END, PER_LAYER, WORKLOADS};
use wg_benchmark::{compare, layers};

fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The machine every number in a run was taken on.
struct Machine {
    nproc: usize,
    available_parallelism: usize,
    page_size: u64,
    rustc: String,
    commit: String,
    wgr: String,
    wgr_mtime: u64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Machine {
    fn describe(wgr: &Path) -> Self {
        let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |t| {
            t.lines().filter(|l| l.starts_with("processor")).count()
        });
        let page_size = std::fs::read_to_string("/proc/self/smaps")
            .ok()
            .and_then(|t| {
                t.lines().find_map(|l| {
                    l.strip_prefix("KernelPageSize:")?
                        .trim()
                        .strip_suffix("kB")?
                        .trim()
                        .parse::<u64>()
                        .ok()
                })
            })
            .map_or(0, |kb| kb * 1024);
        let wgr_mtime = std::fs::metadata(wgr)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_secs());
        Self {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            page_size,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            wgr: wgr.display().to_string(),
            wgr_mtime,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"available_parallelism\":{},\"page_size\":{},\"rustc\":\"{}\",\
             \"commit\":\"{}\",\"wgr\":\"{}\",\"wgr_mtime\":{}}}",
            self.nproc,
            self.available_parallelism,
            self.page_size,
            escape(&self.rustc),
            escape(&self.commit),
            escape(&self.wgr),
            self.wgr_mtime
        )
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(benchmark: &Json, key: &str) -> Result<Vec<String>, String> {
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: {key} entry without a name"))
        })
        .collect()
}

struct RunArgs<'a> {
    seed: u64,
    seconds: f64,
    trace: Option<&'a str>,
    quick: bool,
    flip: bool,
    out: Option<&'a str>,
}

/// Runs one workload and prints its report; returns whether it was
/// correct. `Err` means the run could not be carried out at all.
fn run_one(
    workload: &str,
    a: &RunArgs<'_>,
    wgr: &Path,
    machine: &Machine,
    benchmark: &Json,
) -> Result<bool, String> {
    let traced = a.trace.is_some_and(|t| t != "0");
    let out_dir = layers::target_dir().join("wgbench");
    let work = out_dir.join(format!("work-{workload}-{}-{}", a.seed, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let _scratch = Scratch(work.clone());
    let trace_file = match a.trace {
        Some("0") | None => None,
        Some("1") => Some(out_dir.join(format!("trace-{workload}-{}.json", a.seed))),
        Some(path) => Some(PathBuf::from(path)),
    };
    let run = Run {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        quick: a.quick,
        flip: a.flip,
        wgr,
        work: &work,
        trace_file: trace_file.as_deref(),
        threads: machine.available_parallelism,
    };
    let started = std::time::Instant::now();
    let outcome: Outcome = workloads::run(&run, traced)?;

    println!(
        "== {workload}  seed {}  seconds {}  trace {}{}",
        a.seed,
        a.seconds,
        u8::from(traced),
        if a.quick { "  (quick)" } else { "" }
    );
    println!("machine {}", machine.json());
    // On one hardware thread a wire client and the server's worker share
    // the only CPU: what the serve layer reads is then scheduling.
    let one_cpu = machine.available_parallelism < 2;
    for m in &outcome.metrics {
        let value = if one_cpu && m.name.starts_with("serve.") {
            "\"unmeasurable\"".to_string()
        } else {
            format!("{:.6}", m.value)
        };
        println!("{:<36} {:>18} {:<6} {}", m.name, value, m.unit, m.note);
    }
    for n in &outcome.notes {
        println!("  {n}");
    }
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }

    // Every declared metric exactly once, every value a finite number.
    let (key, table): (&str, &[(&str, &str)]) = if traced {
        ("per_layer", &PER_LAYER)
    } else {
        ("end_to_end", &END_TO_END)
    };
    let mut complete = true;
    for name in declared(benchmark, key)? {
        let n = outcome.metrics.iter().filter(|m| m.name == name).count();
        if n != 1 {
            println!("  FAILED: metric {name} printed {n} times");
            complete = false;
        }
    }
    if outcome.metrics.len() != table.len() || outcome.metrics.iter().any(|m| !m.value.is_finite())
    {
        println!(
            "  FAILED: {} of {} metrics, or a value that is not a number",
            outcome.metrics.len(),
            table.len()
        );
        complete = false;
    }
    let correct = complete && outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "  failed_ops_share {} / {} = {:.6}; wall {:.1} s",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        started.elapsed().as_secs_f64()
    );
    let result = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    if let Some(path) = a.out {
        // The result line's fields, with what identifies the run before them.
        let record = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
             \"machine\": {}, {result}\n",
            a.seed,
            a.seconds,
            u8::from(traced),
            a.quick,
            machine.json(),
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("append {path}: {e}"))?;
    }
    println!("{{{result}");
    Ok(correct)
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the root of a checkout)"))?;
    let benchmark = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workload = opt(args, "--workload").ok_or("missing --workload NAME|all")?;
    let parse = |flag: &str, default: f64| -> Result<f64, String> {
        opt(args, flag).map_or(Ok(default), |s| {
            s.parse()
                .map_err(|_| format!("{flag} wants a number, got {s:?}"))
        })
    };
    let run_seconds = benchmark
        .get("run_seconds")
        .and_then(Json::as_f64)
        .unwrap_or(10.0);
    let a = RunArgs {
        seed: opt(args, "--seed").map_or(Ok(42), |s| {
            s.parse()
                .map_err(|_| format!("--seed wants a whole number, got {s:?}"))
        })?,
        seconds: parse("--seconds", run_seconds)?,
        trace: opt(args, "--trace"),
        quick: args.iter().any(|a| a == "--quick"),
        flip: args.iter().any(|a| a == "--inject-flip"),
        out: opt(args, "--out"),
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    let wgr = layers::build_wgr()?;
    let machine = Machine::describe(&wgr);
    let mut all_correct = true;
    for name in names {
        all_correct &= run_one(name, &a, &wgr, &machine, &benchmark)?;
    }
    Ok(i32::from(!all_correct))
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let [old, new] = args else {
        return Err("usage: wgbench compare OLD NEW".into());
    };
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let benchmark = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    compare::compare(old, new, &benchmark)
}

/// Hidden: one in-process sharded build whose stage times and memory are
/// this process's own (the parent is a traced run).
fn cmd_stage_child(args: &[String]) -> Result<i32, String> {
    let [corpus, out, shards, threads] = args else {
        return Err("usage: wgbench stage-child CORPUS OUT SHARDS THREADS".into());
    };
    let num = |s: &String| s.parse::<u32>().map_err(|e| format!("{s:?}: {e}"));
    let report = layers::build_stages(
        Path::new(corpus),
        Path::new(out),
        num(shards)?,
        num(threads)?,
    )?;
    for (name, value) in report {
        println!("{name} {value}");
    }
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("stage-child") => cmd_stage_child(&args[1..]),
        _ => Err(format!(
            "usage: wgbench run --workload {}|all --seed S [--seconds N] [--trace 0|1|FILE] [--quick] [--out FILE]\n\
             \x20      wgbench compare OLD NEW",
            WORKLOADS.join("|")
        )),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("wgbench: {e}");
            std::process::exit(2);
        }
    }
}
