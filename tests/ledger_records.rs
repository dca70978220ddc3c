//! The committed perf trajectory. `BENCH_ledger.json` holds one record per
//! line, each what `wgbench run --out FILE` appended for one run (see
//! `benchmark/README.md`): a perf change adds its alternating parent and
//! change records. Every record must say which commit and which machine
//! it ran on, have checked every answer (`correct`), and report exactly
//! the end-to-end metrics `BENCHMARK.json` names, so that `wgbench
//! compare` can read any two commits' records side by side.

use std::path::Path;

#[path = "../benchmark/src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;

/// What `BENCHMARK.json` fixes: the workloads and the end-to-end metrics.
struct Contract {
    workloads: Vec<String>,
    metrics: Vec<String>,
}

fn names(benchmark: &Json, list: &str) -> Vec<String> {
    let Some(entries) = benchmark.get(list).and_then(Json::as_arr) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    let mut names: Vec<String> = (entries.iter())
        .map(|e| match e.get("name").and_then(Json::as_str) {
            Some(name) => name.to_string(),
            None => panic!("BENCHMARK.json: a `{list}` entry without a name"),
        })
        .collect();
    names.sort();
    names
}

fn contract() -> Contract {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the root of the repository");
    let benchmark = Json::parse(&text).expect("BENCHMARK.json parses");
    Contract {
        workloads: names(&benchmark, "workloads"),
        metrics: names(&benchmark, "end_to_end"),
    }
}

/// Why `line` is not a ledger record, if it is not one.
fn check_record(line: &str, contract: &Contract) -> Result<(), String> {
    let record = Json::parse(line)?;
    match record.get("workload").and_then(Json::as_str) {
        Some(w) if contract.workloads.iter().any(|name| name == w) => {}
        other => return Err(format!("workload {other:?} is not one of BENCHMARK.json's")),
    }
    let machine = record.get("machine").ok_or("no machine line")?;
    for field in ["nproc", "available_parallelism", "rustc"] {
        machine
            .get(field)
            .ok_or(format!("machine line without `{field}`"))?;
    }
    match machine.get("commit").and_then(Json::as_str) {
        Some(c) if c.len() == 40 && c.bytes().all(|b| b.is_ascii_hexdigit()) => {}
        other => return Err(format!("commit {other:?} is not a full git hash")),
    }
    if record.get("correct") != Some(&Json::Bool(true)) {
        return Err("not `correct`: an answer was wrong or an operation failed".into());
    }
    let Some(metrics) = record.get("metrics").and_then(Json::as_obj) else {
        return Err("no metrics".into());
    };
    let got: Vec<&String> = metrics.keys().collect();
    if got.iter().copied().ne(contract.metrics.iter()) {
        return Err(format!(
            "metrics {got:?} are not BENCHMARK.json's end-to-end metrics {:?}",
            contract.metrics
        ));
    }
    for (name, metric) in metrics {
        match metric.get("value").and_then(Json::as_f64) {
            Some(v) if v.is_finite() => {}
            other => return Err(format!("`{name}` has no finite value: {other:?}")),
        }
    }
    Ok(())
}

fn ledger() -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_ledger.json"))
        .expect("BENCH_ledger.json at the root of the repository")
}

#[test]
fn every_ledger_record_names_its_commit_and_machine_and_the_contracts_metrics() {
    let contract = contract();
    let ledger = ledger();
    assert!(ledger.lines().next().is_some(), "an empty ledger");
    for (no, line) in ledger.lines().enumerate() {
        if let Err(why) = check_record(line, &contract) {
            panic!("BENCH_ledger.json line {}: {why}", no + 1);
        }
    }
}

#[test]
fn a_malformed_record_is_refused() {
    let contract = contract();
    let ledger = ledger();
    let good = ledger.lines().next().expect("a record");
    assert_eq!(check_record(good, &contract), Ok(()));
    let record = Json::parse(good).unwrap();
    let commit = (record.get("machine").and_then(|m| m.get("commit")))
        .and_then(Json::as_str)
        .expect("checked above");
    for (broken, what) in [
        (
            good.replacen("\"correct\": true", "\"correct\": false", 1),
            "correct",
        ),
        (good.replacen(commit, "unknown", 1), "commit"),
        (good.replacen("\"machine\"", "\"host\"", 1), "machine"),
        (
            good.replacen("\"ops_per_s\"", "\"ops_per_sec\"", 1),
            "metrics",
        ),
        (
            good.replacen("{\"value\": ", "{\"value\": null, \"was\": ", 1),
            "value",
        ),
        (good[..good.len() - 2].to_string(), "truncated"),
    ] {
        assert!(
            check_record(&broken, &contract).is_err(),
            "a record with its {what} broken passed: {broken}"
        );
    }
}
