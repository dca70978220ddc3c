//! `--quick` smoke of the whole benchmark: every workload, untraced and
//! traced, at 5 k pages and one pass. Checks the output contract (every
//! metric `BENCHMARK.json` names is printed exactly once, the last line is
//! the result object), the trace file, and that the correctness gate fires
//! on a flipped byte.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wg_benchmark::json::Json;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

fn wgbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wgbench"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("spawn wgbench")
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(benchmark: &Json, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .expect("list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one quick workload and checks its whole output against the
/// contract; returns the parsed result line.
fn check_run(workload: &str, trace: &str, key: &str) -> Json {
    let out = wgbench(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "3",
        "--quick",
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result =
        Json::parse(stdout.lines().last().expect("a last line")).expect("result line parses");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );

    let benchmark = benchmark_json();
    let declared = names(&benchmark, key);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let printed: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    let wanted: BTreeSet<&str> = declared.iter().map(String::as_str).collect();
    assert_eq!(printed, wanted, "{workload} trace {trace}: metric names");
    let units: Vec<(String, String)> = benchmark
        .get(key)
        .and_then(Json::as_arr)
        .expect("list")
        .iter()
        .map(|m| {
            let f = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
            (f("name"), f("unit"))
        })
        .collect();
    for (name, unit) in &units {
        assert!(valid_name(name), "bad metric name {name:?}");
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value")
                .and_then(Json::as_f64)
                .expect("value")
                .is_finite(),
            "{name}"
        );
        // Exactly one report line per metric, besides the result line.
        let lines = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(name.as_str()))
            .count();
        assert_eq!(
            lines, 1,
            "{workload} trace {trace}: {name} printed {lines} times"
        );
    }
    assert!(
        stdout.contains("machine {\"nproc\":"),
        "machine descriptor is printed"
    );
    result
}

#[test]
fn every_workload_prints_every_end_to_end_metric_once() {
    let benchmark = benchmark_json();
    let workloads = names(&benchmark, "workloads");
    assert_eq!(workloads, ["build-300k", "nav-100k"]);
    for w in &workloads {
        assert!(valid_name(w));
        let result = check_run(w, "0", "end_to_end");
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
        {
            assert!(
                m.get("value").and_then(Json::as_f64).expect("value") > 0.0,
                "{w}: end-to-end metric {name} must never be 0"
            );
        }
    }
    assert!(
        names(&benchmark, "end_to_end").contains(&"setup_s".to_string()),
        "the contract requires setup_s"
    );
}

#[test]
fn every_workload_prints_every_per_layer_metric_once_when_traced() {
    for w in names(&benchmark_json(), "workloads") {
        check_run(&w, "1", "per_layer");
    }
}

#[test]
fn trace_file_parses_and_every_span_has_a_parent_or_is_a_root() {
    let dir = std::env::temp_dir().join(format!("wgbench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("trace.json");
    let out = wgbench(&[
        "run",
        "--workload",
        "nav-100k",
        "--seed",
        "5",
        "--quick",
        "--trace",
        file.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let trace =
        Json::parse(&std::fs::read_to_string(&file).expect("trace file")).expect("trace parses");
    std::fs::remove_dir_all(&dir).ok();
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert!(
        events.len() > 100,
        "a quick traced run records hundreds of spans"
    );
    let mut layers = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let args = e.get("args").expect("args");
        assert_eq!(args.get("id").and_then(Json::as_f64), Some(i as f64));
        assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
        assert!(args.get("probe").and_then(Json::as_f64).is_some());
        layers.insert(
            e.get("cat")
                .and_then(Json::as_str)
                .expect("cat")
                .to_string(),
        );
        match args.get("parent").expect("parent") {
            Json::Null => {}
            p => {
                let p = p.as_f64().expect("numeric parent") as usize;
                assert!(p < i, "span {i}: parent {p} must be an earlier span");
                let (pe, ce) = (&events[p], e);
                let start = |e: &Json| e.get("ts").and_then(Json::as_f64).expect("ts");
                let end = |e: &Json| start(e) + e.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(
                    start(pe) <= start(ce) && end(ce) <= end(pe) + 0.002,
                    "span {i} lies inside its parent {p}"
                );
            }
        }
    }
    for layer in ["disk", "refenc", "nav", "probe", "shadow", "build", "serve"] {
        assert!(layers.contains(layer), "no span of layer {layer}");
    }
}

#[test]
fn a_flipped_index_byte_fails_the_run() {
    for workload in ["build-300k", "nav-100k"] {
        let out = wgbench(&[
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--quick",
            "--trace",
            "0",
            "--inject-flip",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{workload}: a wrong answer exits 1\n{stdout}"
        );
        let result = Json::parse(stdout.lines().last().expect("a last line")).expect("result line");
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        assert!(result.get("failed").and_then(Json::as_f64).expect("failed") >= 1.0);
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result_line() {
    let out = wgbench(&[
        "run",
        "--workload",
        "nope",
        "--seed",
        "1",
        "--quick",
        "--trace",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
