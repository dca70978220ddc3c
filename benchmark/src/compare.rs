//! `wgbench compare OLD NEW`: two sets of run records (one JSON object
//! per line, as `run --out FILE` appends them) judged metric by metric
//! against the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// `(better, bound)` per end-to-end metric name.
pub type Bounds = BTreeMap<String, (String, f64)>;

pub fn bounds_of(benchmark: &Json) -> Result<Bounds, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (field("name"), field("better"), bound) {
                (Some(n), Some(b), Some(x)) => Ok((n, (b, x))),
                _ => Err("end_to_end entry without name, better or bound".to_string()),
            }
        })
        .collect()
}

/// `workload → metric → values`, from the untraced records of one file.
fn read_set(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: record without workload"))?;
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}: record without metrics"))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    /// The run-to-run spread is wider than the bound and the two sets
    /// overlap: neither "unchanged" nor "worse" can be said.
    Unresolved,
}

/// Judges one metric: `worse` is the relative change of the median in the
/// losing direction.
pub fn judge(old: &[f64], new: &[f64], better: &str, bound: f64) -> (f64, Verdict) {
    let (mo, mn) = (median(old), median(new));
    let lower = better == "lower";
    let worse = if lower {
        (mn - mo) / mo
    } else {
        (mo - mn) / mo
    };
    let beats = |a: f64, b: f64| if lower { a < b } else { a > b };
    let every_new_worse = new.iter().all(|&n| old.iter().all(|&o| beats(o, n)));
    let every_new_better = new.iter().all(|&n| old.iter().all(|&o| beats(n, o)));
    let noisy = spread(old).max(spread(new)) > bound;
    let verdict = if noisy && !every_new_worse && !every_new_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Prints the table and returns the process exit code: 1 on any
/// regression, else 0.
pub fn compare(old_path: &str, new_path: &str, benchmark: &Json) -> Result<i32, String> {
    let bounds = bounds_of(benchmark)?;
    let old = read_set(old_path)?;
    let new = read_set(new_path)?;
    let mut regressions = 0;
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "old median", "new median", "worse by", "bound", "old iqr", "new iqr"
    );
    for (workload, metrics) in &old {
        for (name, (better, bound)) in &bounds {
            let (Some(o), Some(n)) = (
                metrics.get(name),
                new.get(workload).and_then(|m| m.get(name)),
            ) else {
                println!("{workload:<12} {name:<20} missing from one side");
                regressions += 1;
                continue;
            };
            let (worse, verdict) = judge(o, n, better, *bound);
            if verdict == Verdict::Regression {
                regressions += 1;
            }
            println!(
                "{workload:<12} {name:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {}",
                median(o),
                median(n),
                worse * 100.0,
                bound * 100.0,
                spread(o) * 100.0,
                spread(n) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(i32::from(regressions > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&steady, &slower, "lower", 0.1).1, Verdict::Regression);
        assert_eq!(judge(&slower, &steady, "lower", 0.1).1, Verdict::Improved);
        assert_eq!(judge(&steady, &slower, "higher", 0.1).1, Verdict::Improved);
        assert_eq!(judge(&steady, &steady, "lower", 0.1).1, Verdict::Ok);
        // Spread wider than the bound, sets overlapping: unresolved.
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(
            judge(&noisy_a, &noisy_b, "lower", 0.1).1,
            Verdict::Unresolved
        );
        // Noisy, but every new run is worse than every old one.
        let far = [300.0, 320.0, 280.0, 310.0, 290.0];
        assert_eq!(judge(&noisy_a, &far, "lower", 0.1).1, Verdict::Regression);
    }
}
