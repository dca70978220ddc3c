//! End-to-end test of the `wgr` command-line tool: generate → build →
//! inspect, through real process invocations.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use std::process::Command;

fn wgr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wgr"))
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wg_cli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

#[test]
fn gen_build_inspect_round_trip() {
    let root = temp_dir("roundtrip");
    let corpus = root.join("corpus");
    let repo = root.join("repo");

    let out = wgr()
        .args(["gen", "--pages", "2000", "--seed", "5", "--out"])
        .arg(&corpus)
        .output()
        .expect("run wgr gen");
    assert!(out.status.success(), "gen failed: {out:?}");
    assert!(corpus.join("urls.txt").exists());
    assert!(corpus.join("edges.txt").exists());

    let out = wgr()
        .args(["build", "--corpus"])
        .arg(&corpus)
        .arg("--out")
        .arg(&repo)
        .output()
        .expect("run wgr build");
    assert!(out.status.success(), "build failed: {out:?}");
    assert!(repo.join("meta.bin").exists());
    assert!(repo.join("index_000.bin").exists());

    let out = wgr().args(["stats", "--repo"]).arg(&repo).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pages        : 2000"), "stats output: {text}");
    assert!(text.contains("supernodes"));

    let out = wgr()
        .args(["links", "--repo"])
        .arg(&repo)
        .args(["--page", "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("links to"));

    // Out-of-range page exits non-zero, cleanly.
    let out = wgr()
        .args(["links", "--repo"])
        .arg(&repo)
        .args(["--page", "999999"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = wgr().arg("check").arg(&repo).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "check failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("0 error(s), 0 warning(s);"));

    let out = wgr()
        .args(["top", "--repo"])
        .arg(&repo)
        .arg("--corpus")
        .arg(&corpus)
        .args(["-k", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("PageRank"));

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn build_threads_flag_and_env_produce_identical_repos() {
    let root = temp_dir("threads");
    let corpus = root.join("corpus");
    let out = wgr()
        .args(["gen", "--pages", "600", "--seed", "3", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");

    // Three builds: explicit --threads 1, explicit --threads 4, and
    // WGR_THREADS=2 with threads left on auto. All must write the same
    // bytes — parallelism must be invisible in the representation.
    let repo_serial = root.join("repo_serial");
    let out = wgr()
        .args(["build", "--corpus"])
        .arg(&corpus)
        .arg("--out")
        .arg(&repo_serial)
        .args(["--threads", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "serial build failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("(1 threads)"));

    let repo_par = root.join("repo_par");
    let out = wgr()
        .args(["build", "--corpus"])
        .arg(&corpus)
        .arg("--out")
        .arg(&repo_par)
        .args(["--threads", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "parallel build failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("(4 threads)"));

    let repo_env = root.join("repo_env");
    let out = wgr()
        .args(["build", "--corpus"])
        .arg(&corpus)
        .arg("--out")
        .arg(&repo_env)
        .env("WGR_THREADS", "2")
        .output()
        .unwrap();
    assert!(out.status.success(), "env build failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("(2 threads)"));

    for other in [&repo_par, &repo_env] {
        let mut names: Vec<String> = std::fs::read_dir(&repo_serial)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert!(!names.is_empty());
        for n in &names {
            assert_eq!(
                std::fs::read(repo_serial.join(n)).unwrap(),
                std::fs::read(other.join(n)).unwrap(),
                "file {n} differs in {}",
                other.display()
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Strips every line carrying a time-valued field (`*_ns` histograms and
/// span durations) — what's left must be identical between runs.
fn strip_time_lines(s: &str) -> String {
    s.lines()
        .filter(|l| !l.contains("_ns"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn query_metrics_json_is_deterministic_across_runs() {
    let root = temp_dir("qmetrics");
    let corpus = root.join("corpus");
    let out = wgr()
        .args(["gen", "--pages", "1500", "--seed", "11", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");

    let run = || {
        let out = wgr()
            .arg("query")
            .arg(&corpus)
            .arg("--metrics=json")
            .output()
            .unwrap();
        assert!(out.status.success(), "query failed: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let a = run();
    let b = run();

    // The acceptance bar: per-query wall time, supernodes visited, lists
    // decoded, cache hits/misses, and pages fetched, for q1..q6.
    for q in ["\"q1\"", "\"q2\"", "\"q3\"", "\"q4\"", "\"q5\"", "\"q6\""] {
        assert!(a.contains(q), "missing {q} in: {a}");
    }
    for key in [
        "wall_ns",
        "supernodes_visited",
        "intra_lists_decoded",
        "super_lists_decoded",
        "cache_hits",
        "cache_misses",
        "pages_fetched",
    ] {
        assert!(a.contains(key), "missing {key} in: {a}");
    }
    // Registry snapshot rides along in the same document.
    assert!(a.contains("\"registry\""), "missing registry in: {a}");
    // Cache traffic, and what the budget was spent on by kind of entry.
    for counter in [
        "core.cache.hits",
        "core.cache.bytes_loaded",
        "core.cache.bytes_loaded.intra",
        "core.cache.bytes_loaded.super",
        "core.cache.bytes_loaded.fanout",
    ] {
        assert!(
            a.contains(&format!("\"{counter}\"")),
            "missing {counter}: {a}"
        );
    }
    // No lock wait/hold counters: a batch run has nothing that would time
    // a lock, so such names could only ever read 0.
    let registry = &a[a.find("\"registry\"").unwrap()..];
    let lock_keys: Vec<&str> = registry
        .split('"')
        .filter(|k| k.contains(".lock."))
        .collect();
    assert!(
        lock_keys.is_empty(),
        "lock counters registered: {lock_keys:?}"
    );

    // Two consecutive runs: identical counters once timing lines go.
    assert_eq!(
        strip_time_lines(&a),
        strip_time_lines(&b),
        "query counters must be deterministic across runs"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn build_metrics_and_trace_and_stats_json() {
    let root = temp_dir("obsflags");
    let corpus = root.join("corpus");
    let repo = root.join("repo");
    let trace = root.join("trace.json");
    let out = wgr()
        .args(["gen", "--pages", "800", "--seed", "9", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");

    let out = wgr()
        .args(["build", "--corpus"])
        .arg(&corpus)
        .arg("--out")
        .arg(&repo)
        .arg("--metrics=json")
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "build failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Build-stage spans land in the registry as histograms — reading the
    // input included, which `total` does not cover — and what refinement
    // did as counters.
    for key in [
        "core.build.read_ns",
        "core.build.refine_ns",
        "core.build.encode_ns",
        "core.build.total_ns",
        "core.build.refine.iterations",
        "core.build.refine.url_splits",
        "core.build.refine.clustered_splits",
        "core.build.refine.clustered_aborts",
    ] {
        assert!(stdout.contains(key), "missing {key} in: {stdout}");
    }
    // The same two things in words, either side of the `built in` line.
    let lines: Vec<&str> = stdout.lines().collect();
    let built = lines.iter().position(|l| l.starts_with("built in "));
    let built = built.expect("a `built in` line");
    assert!(lines[built - 1].starts_with("read 800 pages, "), "{stdout}");
    assert!(lines[built + 1].starts_with("refine: "), "{stdout}");
    assert!(lines[built + 1].ends_with(" aborts"), "{stdout}");
    // And as trace events in a Chrome trace-event file.
    let tjson = std::fs::read_to_string(&trace).unwrap();
    assert!(tjson.contains("\"traceEvents\""), "trace: {tjson}");
    assert!(tjson.contains("core.build.refine"), "trace: {tjson}");
    assert!(tjson.contains("\"ph\":\"X\""), "trace: {tjson}");

    // `wgr stats DIR --json` — positional dir, machine-readable output.
    let out = wgr()
        .arg("stats")
        .arg(&repo)
        .arg("--json")
        .output()
        .unwrap();
    assert!(out.status.success(), "stats failed: {out:?}");
    let sjson = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"pages\": 800",
        "\"supernodes\"",
        "\"superedges\"",
        "\"one_target_superedges\"",
        "\"domains\"",
    ] {
        assert!(sjson.contains(key), "missing {key} in: {sjson}");
    }

    // `wgr stats DIR --bits [--json]`: one row per class and part, the
    // rows summing to exactly `(meta.bin + index files) × 8`.
    let out = wgr()
        .arg("stats")
        .arg(&repo)
        .args(["--bits", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "stats --bits failed: {out:?}");
    let bjson = String::from_utf8_lossy(&out.stdout);
    let field = |line: &str, key: &str| -> Option<u64> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    let rows: u64 = (bjson.lines())
        .filter(|line| line.contains("\"class\""))
        .map(|line| field(line, "bits").unwrap())
        .sum();
    let total = bjson.lines().find_map(|line| field(line, "total_bits"));
    let on_disk: u64 = ["meta.bin", "index_000.bin"]
        .iter()
        .map(|name| std::fs::metadata(repo.join(name)).unwrap().len())
        .sum();
    assert!(!repo.join("index_001.bin").exists());
    assert_eq!(total, Some(on_disk * 8), "{bjson}");
    assert_eq!(rows, on_disk * 8, "{bjson}");
    for class in [
        "intranode lists",
        "superedge positive, list stream",
        "superedge positive, one-target dictionary",
        "superedge positive, single-target dictionary",
        "superedge positive, list dictionary",
        "superedge negative",
        "index files",
        "meta.bin",
    ] {
        assert!(
            bjson.contains(&format!("\"class\": \"{class}\"")),
            "{class}: {bjson}"
        );
    }
    let out = wgr()
        .arg("stats")
        .arg(&repo)
        .arg("--bits")
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && table.contains("bits/edge"),
        "{table}"
    );
    let missing = root.join("nowhere");
    let out = wgr()
        .arg("stats")
        .arg(&missing)
        .arg("--bits")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn build_stream_and_shards_flags_round_trip() {
    let root = temp_dir("stream_shards");
    let corpus = root.join("corpus");
    let repo_sharded = root.join("repo_sharded");
    let repo_plain = root.join("repo_plain");

    // `gen` streams the corpus to disk; `build --shards` is accepted and
    // ignored (earlier versions took it; there is one builder now).
    let out = wgr()
        .args(["gen", "--pages", "1500", "--seed", "9", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("wrote 1500 pages"),
        "gen banner missing: {text}"
    );
    let out = wgr()
        .arg("build")
        .arg("--corpus")
        .arg(&corpus)
        .arg("--out")
        .arg(&repo_sharded)
        .args(["--shards", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "sharded build failed: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--shards is ignored"),
        "the ignored flag is reported: {out:?}"
    );
    assert!(!repo_sharded.join("shards.bin").exists());

    let out = wgr().arg("check").arg(&repo_sharded).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "repo failed check: {out:?}");

    // A build without the flag from the same corpus produces the same
    // directory, `sums.bin` included.
    let out = wgr()
        .arg("build")
        .arg("--corpus")
        .arg(&corpus)
        .arg("--out")
        .arg(&repo_plain)
        .output()
        .unwrap();
    assert!(out.status.success(), "plain build failed: {out:?}");
    let files = |dir: &std::path::Path| {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.file_name().unwrap().to_owned(), std::fs::read(p).unwrap()))
            .collect();
        files.sort();
        files
    };
    let plain = files(&repo_plain);
    assert!(plain.iter().any(|(n, _)| n == "sums.bin"));
    assert!(plain == files(&repo_sharded), "--shards changed the output");
    std::fs::remove_dir_all(&root).ok();
}

/// Bad input on the command line is a usage error — exit 2 and one line
/// on stderr — not a panic with a backtrace.
/// `urls.txt` is whatever a crawler wrote: URL split meets other schemes,
/// no scheme at all, a one-segment path and a non-ASCII host on its first
/// pass over their domain, and the build neither panics (it exited 101 on
/// `ftp://a/b`) nor cuts a prefix inside a hostname.
#[test]
fn build_accepts_urls_of_any_shape() {
    let root = temp_dir("odd_urls");
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let urls = [
        "https://example.org/a/b.html",
        "example.com/a/b.html",
        "ftp://a/b",
        "a/b",
        "http://bücher.example/straße/ü.html",
        "https://example.org/a/c.html",
        "http://www.alpha.edu/a/x/p0.html",
        "",
    ];
    std::fs::write(corpus.join("urls.txt"), urls.join("\n") + "\n").unwrap();
    let domains = "everything\n--\n".to_string() + &"0\n".repeat(urls.len());
    std::fs::write(corpus.join("domains.txt"), domains).unwrap();
    std::fs::write(
        corpus.join("edges.txt"),
        "0 5\n1 0\n2 3\n3 4\n4 6\n5 0\n6 2\n",
    )
    .unwrap();

    let repo = root.join("repo");
    let out = wgr()
        .args(["build", "--corpus"])
        .arg(&corpus)
        .arg("--out")
        .arg(&repo)
        .output()
        .unwrap();
    assert!(out.status.success(), "build failed: {out:?}");
    let out = wgr().arg("check").arg(&repo).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "check failed: {out:?}");
    let out = wgr().args(["stats", "--repo"]).arg(&repo).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pages        : 8"), "stats output: {text}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn bad_flag_values_and_missing_inputs_exit_2_with_one_line() {
    let root = temp_dir("badflags");
    // A corpus that reads, for the build whose --out cannot be written.
    let corpus = temp_dir("badflags_corpus");
    let out = wgr()
        .args(["gen", "--pages", "50", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let corpus = corpus.to_str().unwrap();
    // A corpus with a phrase id past its one-phrase vocabulary: `wgr
    // query` panicked on it in the text index (exit 101).
    let bad = temp_dir("badflags_phrase");
    for (name, text) in [
        ("urls.txt", "http://www.a.edu/p0\nhttp://www.a.edu/p1\n"),
        ("domains.txt", "a.edu\n--\n0\n0\n"),
        ("edges.txt", "0 1\n"),
        ("phrases.txt", "mobile networking\n--\n0\n7\n"),
    ] {
        std::fs::write(bad.join(name), text).unwrap();
    }
    let cases: [(&[&str], &str); 18] = [
        (&["gen", "--pages", "abc", "--out", "c"], "--pages: abc"),
        (
            &["gen", "--pages", "10", "--seed", "-1", "--out", "c"],
            "--seed: -1",
        ),
        (
            &["build", "--corpus", "/nonexistent", "--out", "r"],
            "/nonexistent",
        ),
        // `build` refuses a flag it does not take, and writes nothing: the
        // format flag is gone, and there is one format.
        (
            &["build", "--corpus", corpus, "--out", "r", "--codec", "z3"],
            "--codec",
        ),
        (
            &["build", "--corpus", corpus, "--out", "r", "--codec", "g"],
            "--codec",
        ),
        (
            &["build", "--corpus", corpus, "--out", "r", "--frobnicate"],
            "--frobnicate",
        ),
        // Nor generation: `gen` writes the corpus, `build` reads it.
        (
            &[
                "build", "--stream", "--pages", "10", "--corpus", "c", "--out", "r",
            ],
            "--stream",
        ),
        // Nor does `check`, before it reads anything: it once printed a
        // human report for the first, and exited 0.
        (&["check", "r", "--jsn", "--repair"], "--jsn"),
        (&["check", "--repo", "r"], "--repo"),
        (&["check", "r", "--deny", "warnings"], "warnings"),
        (&["check", "r", "--repair"], "--from"),
        // Nor does `serve`: the client count is `--smoke N`'s.
        (&["serve", corpus, "--clients", "100"], "--clients"),
        // A malformed corpus: one line, not a panic.
        (
            &["query", bad.to_str().unwrap()],
            "phrase id 7 out of range",
        ),
        // Paths that cannot be read or written: one line, not a panic.
        (
            &["gen", "--pages", "10", "--out", "/proc/nope"],
            "/proc/nope",
        ),
        (
            &["build", "--corpus", corpus, "--out", "/proc/nope/x"],
            "/proc/nope/x",
        ),
        (
            &["links", "--repo", "/nonexistent", "--page", "1"],
            "/nonexistent",
        ),
        (
            &[
                "domain",
                "--repo",
                "/nonexistent",
                "--corpus",
                "/nonexistent",
                "--name",
                "x",
            ],
            "/nonexistent",
        ),
        (
            &["top", "--repo", "/nonexistent", "--corpus", "/nonexistent"],
            "/nonexistent",
        ),
    ];
    for (args, names) in cases {
        let out = wgr().args(args).current_dir(&root).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
    }
    assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0, "wrote output");
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(corpus).ok();
    std::fs::remove_dir_all(&bad).ok();
}

#[test]
fn usage_on_bad_subcommand() {
    // `lint` is gone: clippy and `cargo test` check the source now. So is
    // `fsck`: `check` holds every byte to `sums.bin` first. So are the two
    // benchmark subcommands: the benchmark is `benchmark/`, and the scale
    // ladder's directories are pinned by `golden_build.rs`.
    for sub in ["frobnicate", "lint", "fsck", "bench", "scale-step"] {
        let out = wgr().arg(sub).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{sub}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    }
}

#[test]
fn serve_takes_the_ledgers_argv() {
    // What `benchmark/` passes to `wgr serve`, plus `--smoke 1` so the
    // server exits: a build under `--reps`, then a reopen with `--reuse`.
    let root = temp_dir("serve_argv");
    let (corpus, reps) = (root.join("c"), root.join("r"));
    let out = wgr()
        .args(["gen", "--pages", "300", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    for reuse in [&[][..], &["--reuse"][..]] {
        let out = wgr()
            .arg("serve")
            .arg(&corpus)
            .arg("--reps")
            .arg(&reps)
            .args(["--port", "0", "--workers", "2", "--budget", "1048576"])
            .args(reuse)
            .args(["--no-telemetry", "--smoke", "1"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{reuse:?}: {out:?}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn an_empty_corpus_builds_a_directory_that_opens_and_answers_nothing() {
    let root = temp_dir("empty");
    let (corpus, repo, reps) = (root.join("c"), root.join("r"), root.join("reps"));
    let [c, r, reps] = [&corpus, &repo, &reps].map(|p| p.to_str().unwrap());
    let run = |args: &[&str]| wgr().args(args).output().unwrap();
    let out = run(&["gen", "--pages", "0", "--out", c]);
    assert!(out.status.success(), "gen: {out:?}");
    let out = run(&["build", "--corpus", c, "--out", r]);
    assert!(out.status.success(), "build: {out:?}");

    // Build and open agree: what the checker passes, every reader opens.
    let out = run(&["check", r]);
    assert_eq!(out.status.code(), Some(0), "check: {out:?}");
    let out = run(&["stats", r, "--json"]);
    assert_eq!(out.status.code(), Some(0), "stats: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"pages\": 0,"));
    let out = run(&["query", c, "--reps", reps]);
    assert_eq!(out.status.code(), Some(0), "query: {out:?}");

    // There is no page 0 to answer for: one line, exit 2.
    let out = run(&["links", "--repo", r, "--page", "0"]);
    assert_eq!(out.status.code(), Some(2), "links: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("beyond the representation"), "{stderr}");
    std::fs::remove_dir_all(&root).ok();
}
