//! Fault injection end-to-end: seeded fault plans over a built S-Node
//! directory must never panic a decode path, `wgr check` must detect every
//! injected fault that actually changed bytes, degraded queries must
//! return accurate partial-answer reports, and the CLI must exit with
//! clean diagnostics (2 on unusable input, 3 on degraded answers).

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, Weak};
use webgraph_repr::corpus::textio::write_corpus;
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::fault::io::{clear_transients, install_transients};
use webgraph_repr::fault::{FaultPlan, FaultSpec, TransientKind};
use webgraph_repr::query::reps::renumber_graph;
use webgraph_repr::snode::partition::RefineConfig;
use webgraph_repr::snode::{
    build_snode, IntegrityManifest, Renumbering, RepoInput, SNode, SNodeConfig,
};

fn wgr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wgr"))
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wg_faultinj_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap() {
        let e = e.unwrap();
        std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
    }
}

/// Held by every test that installs transient faults: the shim's plan and
/// its read counter are the process's.
fn transients() -> std::sync::MutexGuard<'static, ()> {
    static SHIM: Mutex<()> = Mutex::new(());
    SHIM.lock().unwrap_or_else(|e| e.into_inner())
}

/// The pristine representation the tests below copy or open, built when
/// the first of them asks for it and removed when the last one holding it
/// lets go.
struct Pristine {
    dir: PathBuf,
    num_pages: u32,
}

impl Drop for Pristine {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The live pristine representation, or a fresh build of it in a
/// directory of its own (the one it replaces may still be being removed).
fn pristine() -> Arc<Pristine> {
    static LIVE: Mutex<Weak<Pristine>> = Mutex::new(Weak::new());
    static BUILDS: AtomicU32 = AtomicU32::new(0);
    let mut live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(pristine) = live.upgrade() {
        return pristine;
    }
    let corpus = Corpus::generate(CorpusConfig::scaled(600, 77));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let build = BUILDS.fetch_add(1, Ordering::Relaxed);
    let dir = temp_dir(&format!("pristine_{build}"));
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    build_snode(input, &SNodeConfig::default(), &dir).expect("build");
    let pristine = Arc::new(Pristine {
        dir,
        num_pages: corpus.num_pages(),
    });
    *live = Arc::downgrade(&pristine);
    pristine
}

/// True when any file of `dir` differs from its counterpart in `from`
/// (i.e. the fault plan actually changed bytes on disk).
fn differs(from: &Path, dir: &Path) -> bool {
    std::fs::read_dir(from).unwrap().any(|e| {
        let e = e.unwrap();
        std::fs::read(e.path()).unwrap() != std::fs::read(dir.join(e.file_name())).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A seeded fault plan — flips, truncations, torn writes, transient
    /// reads — never panics any decode path: strict opens error, degraded
    /// opens answer partially, check always returns a verdict. And check
    /// detects every plan that actually changed bytes.
    #[test]
    fn seeded_faults_never_panic_and_are_detected(seed in 0u64..10_000) {
        let pristine = pristine();
        let (pristine_dir, num_pages) = (&pristine.dir, pristine.num_pages);
        let dir = temp_dir(&format!("case_{seed}"));
        copy_dir(pristine_dir, &dir);
        let spec = FaultSpec {
            flips: 1 + (seed % 3) as u32,
            truncations: ((seed >> 2) % 2) as u32,
            torn_writes: ((seed >> 3) % 2) as u32,
            transient_reads: ((seed >> 4) % 3) as u32,
        };
        let plan = FaultPlan::generate(&dir, seed, &spec).unwrap();
        plan.apply_to_dir(&dir).unwrap();
        let _shim = transients();
        plan.install_transients();

        // check: a plan that changed bytes must be detected; a directory
        // it left untouched must stay clean.
        let report = webgraph_repr::analyze::check(&dir);
        let damaged = differs(pristine_dir, &dir);
        prop_assert_eq!(
            report.num_errors() > 0,
            damaged,
            "check found {} error(s), damage={}: {}",
            report.num_errors(),
            damaged,
            report
        );

        // Strict open: error or clean walk — never a panic, and never a
        // clean verdict over damaged checksummed bytes.
        if let Ok(snode) = SNode::open_resident(&dir, 1 << 20) {
            for p in (0..num_pages).step_by(13) {
                let _ = snode.out_neighbors(p);
            }
        }
        // Degraded open: damaged graphs quarantine, the rest answers.
        if let Ok(snode) = SNode::open_degraded(&dir, 1 << 20) {
            for p in 0..num_pages {
                let _ = snode.out_neighbors(p);
            }
            let d = snode.degraded();
            // Quarantines (checksum mismatch or short read in a blob)
            // only ever appear over actually damaged bytes.
            prop_assert!(
                damaged || (d.quarantined_supernodes == 0 && d.skipped_edges == 0),
                "clean directory produced quarantines: {d:?}"
            );
        }
        // A whole-graph decode under a budget the directory fits: strict,
        // and every supernode read.
        let _ = SNode::open_resident(&dir, 1 << 30).and_then(|snode| snode.to_graph());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The open is where a handle reads through the shim, so a transient
/// error it absorbs there is one `degraded().retries` reports.
#[test]
fn retries_at_open_are_reported() {
    let pristine = pristine();
    let pristine_dir = &pristine.dir;
    let _shim = transients();
    install_transients(vec![(0, TransientKind::Eio)]);
    let snode = SNode::open_degraded(pristine_dir, 1 << 20);
    clear_transients();
    let report = snode.unwrap().degraded();
    assert!(report.retries >= 1, "{report:?}");
    assert!(report.is_clean());
}

/// A handle reads what the directory held when it opened: a byte flipped
/// on disk afterwards changes no answer and quarantines nothing. A fresh
/// open of the flipped directory finds it.
#[test]
fn a_flip_after_open_changes_no_answer() {
    let pristine = pristine();
    let (pristine_dir, num_pages) = (&pristine.dir, pristine.num_pages);
    let dir = temp_dir("flip_after_open");
    copy_dir(pristine_dir, &dir);
    let truth = SNode::open_resident(&dir, 1 << 20).unwrap();
    let expected: Vec<Vec<u32>> = (0..num_pages)
        .map(|p| truth.out_neighbors(p).unwrap())
        .collect();
    drop(truth);

    let snode = SNode::open_degraded(&dir, 1 << 20).unwrap();
    let index = dir.join("index_000.bin");
    let mut bytes = std::fs::read(&index).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x10;
    std::fs::write(&index, bytes).unwrap();
    for p in 0..num_pages {
        assert_eq!(
            snode.out_neighbors(p).unwrap(),
            expected[p as usize],
            "page {p}"
        );
    }
    assert!(snode.degraded().is_clean(), "{:?}", snode.degraded());
    assert_eq!(snode.integrity_stats().1, 0);

    let fresh = SNode::open_degraded(&dir, 1 << 20).unwrap();
    for p in 0..num_pages {
        fresh.out_neighbors(p).unwrap();
    }
    assert_eq!(fresh.degraded().quarantined_supernodes, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Damaging exactly one graph blob quarantines its supernode, leaves
/// every other answer identical to the pristine truth, and the degraded
/// report counts exactly the skipped adjacency parts.
#[test]
fn degraded_answers_are_accurate() {
    let pristine = pristine();
    let (pristine_dir, num_pages) = (&pristine.dir, pristine.num_pages);
    let dir = temp_dir("accuracy");
    copy_dir(pristine_dir, &dir);

    let truth = SNode::open_resident(&dir, 1 << 20).unwrap();
    let expected: Vec<Vec<u32>> = (0..num_pages)
        .map(|p| truth.out_neighbors(p).unwrap())
        .collect();
    drop(truth);

    // Find a seed whose single flip lands inside an index (blob) file.
    let plan = (0u64..)
        .map(|s| {
            FaultPlan::generate(
                &dir,
                s,
                &FaultSpec {
                    flips: 1,
                    ..FaultSpec::default()
                },
            )
            .unwrap()
        })
        .find(|p| {
            matches!(&p.faults[0],
                webgraph_repr::fault::Fault::BitFlip { file, .. } if file.starts_with("index_"))
        })
        .unwrap();
    plan.apply_to_dir(&dir).unwrap();

    let snode = SNode::open_degraded(&dir, 1 << 20).unwrap();
    let mut wrong_answers = 0u64;
    let mut shortened = 0u64;
    for p in 0..num_pages {
        let got = snode.out_neighbors(p).unwrap();
        if got != expected[p as usize] {
            wrong_answers += 1;
            // Partial answers only omit, never invent: a subset in order.
            let mut it = expected[p as usize].iter();
            assert!(
                got.iter().all(|t| it.any(|e| e == t)),
                "page {p}: degraded answer invents edges"
            );
            shortened += 1;
        }
    }
    let d = snode.degraded();
    assert_eq!(d.quarantined_supernodes, 1, "one blob → one quarantine");
    assert!(d.skipped_edges > 0);
    assert!(
        wrong_answers > 0,
        "the damaged blob must affect some answer"
    );
    assert_eq!(wrong_answers, shortened);
    let (checks, failures) = snode.integrity_stats();
    assert!(checks > 0 && failures > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_and_query_exit_2_with_clean_diagnostics() {
    let root = temp_dir("exit2");
    // Missing directory entirely.
    let missing = root.join("nope");
    let out = wgr().arg("stats").arg(&missing).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "stats on missing dir: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot open S-Node directory") && err.contains("nope"),
        "stats diagnostic must name the directory: {err}"
    );
    assert!(!err.contains("panicked"), "no panic output: {err}");

    let out = wgr().arg("query").arg(&missing).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "query on missing corpus: {out:?}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot read corpus") && err.contains("nope"),
        "query diagnostic must name the corpus: {err}"
    );

    // Half-written directory: meta.bin deleted after a successful build.
    let pristine = pristine();
    let pristine_dir = &pristine.dir;
    let half = root.join("half");
    copy_dir(pristine_dir, &half);
    std::fs::remove_file(half.join("meta.bin")).unwrap();
    let out = wgr().arg("stats").arg(&half).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "stats on half-written: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("meta.bin"),
        "diagnostic must name the missing file: {err}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// A build that fails part-way into a directory holding an earlier build
/// leaves something that does not open — not the earlier build's
/// `meta.bin` over this build's index files with no manifest to say so.
#[test]
fn dead_rebuild_leaves_a_directory_that_does_not_open() {
    let corpus = Corpus::generate(CorpusConfig::scaled(600, 77));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let dir = temp_dir("dead_rebuild");
    build_snode(input, &SNodeConfig::default(), &dir).expect("build A");
    SNode::open_resident(&dir, 1 << 20).expect("A opens");

    // A directory where `pagemap.bin` goes: the second build writes its
    // index files, then fails.
    std::fs::remove_file(dir.join("pagemap.bin")).unwrap();
    std::fs::create_dir(dir.join("pagemap.bin")).unwrap();
    let small_files = SNodeConfig {
        max_file_bytes: 1024,
        ..SNodeConfig::default()
    };
    assert!(build_snode(input, &small_files, &dir).is_err());
    assert!(dir.join("index_001.bin").exists(), "B's index files");

    assert!(SNode::open_resident(&dir, 1 << 20).is_err());
    assert!(SNode::open_degraded(&dir, 1 << 20).is_err());
    let out = wgr().arg("stats").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "stats on a dead build: {out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Earlier versions' `wgr build --shards N` left a `shards.bin` that
/// `sums.bin` covers. Nothing reads it any more; such a directory is
/// still a valid one.
#[test]
fn directory_with_a_covered_shards_bin_stays_valid() {
    let pristine = pristine();
    let (pristine_dir, num_pages) = (&pristine.dir, pristine.num_pages);
    let dir = temp_dir("old_shards");
    copy_dir(pristine_dir, &dir);
    // One shard record, as those versions wrote it: magic, version, count,
    // then domain range, pages, supernodes, blobs, encoded bytes.
    let mut shards = b"SNSH".to_vec();
    for word in [1u32, 1, 0, 1, num_pages, 1, 1, 0, 64, 0] {
        shards.extend_from_slice(&word.to_le_bytes());
    }
    std::fs::write(dir.join("shards.bin"), shards).unwrap();
    let blob_crc = IntegrityManifest::read(&dir).unwrap().unwrap().blob_crc;
    let manifest = IntegrityManifest::compute(&dir, blob_crc).unwrap();
    assert!(manifest.file_sum("shards.bin").is_some());
    manifest.write(&dir).unwrap();

    let snode = SNode::open_resident(&dir, 1 << 20).expect("opens");
    assert_eq!(snode.num_pages(), num_pages);
    let out = wgr().arg("check").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "wgr check: {out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `wgr corrupt` → `wgr check` (exit 2, SN1xx verdicts) → `wgr check
/// --repair --from corpus` (exit 0) → clean re-check, all through real
/// process invocations.
#[test]
fn cli_corrupt_check_repair_round_trip() {
    let root = temp_dir("checkcli");
    let corpus = root.join("corpus");
    let repo = root.join("repo");
    let run = |args: &[&str]| {
        let mut cmd = wgr();
        for a in args {
            cmd.arg(
                a.replace("CORPUS", corpus.to_str().unwrap())
                    .replace("REPO", repo.to_str().unwrap()),
            );
        }
        cmd.output().unwrap()
    };
    let files = || -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(&repo)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                let name = e.file_name().into_string().unwrap();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    };
    assert!(
        run(&["gen", "--pages", "1500", "--seed", "9", "--out", "CORPUS"])
            .status
            .success()
    );
    // A repair puts back the bytes that were there.
    let build = ["build", "--corpus", "CORPUS", "--out", "REPO"];
    assert!(run(&build).status.success(), "{build:?}");
    let built = files();

    let out = run(&["check", "REPO", "--json"]);
    assert_eq!(out.status.code(), Some(0), "clean check: {out:?}");
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("\"errors\":0"), "clean verdict: {body}");

    for faults in [
        &["--seed", "7", "--flips", "1"][..],
        &["--seed", "4", "--flips", "3", "--truncate", "1"],
    ] {
        let out = run(&[&["corrupt", "REPO"], faults].concat());
        assert_eq!(out.status.code(), Some(0), "corrupt: {out:?}");
        let damaged = files();
        let hit: Vec<String> = (built.iter())
            .filter(|&(name, bytes)| damaged.get(name) != Some(bytes))
            .map(|(name, _)| format!("repaired {name}"))
            .collect();
        assert!(!hit.is_empty(), "{faults:?} changed nothing");

        let out = run(&["check", "REPO", "--json"]);
        assert_eq!(out.status.code(), Some(2), "damaged check: {out:?}");
        let body = String::from_utf8_lossy(&out.stdout);
        assert!(body.contains("SN10"), "SN1xx verdicts expected: {body}");

        let out = run(&["check", "REPO", "--repair", "--from", "CORPUS"]);
        assert_eq!(out.status.code(), Some(0), "repair: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().collect::<Vec<_>>(), hit, "{faults:?}");
        assert!(
            files() == built,
            "{faults:?}: not the bytes that were built"
        );

        let out = run(&["check", "REPO"]);
        assert_eq!(out.status.code(), Some(0), "post-repair check: {out:?}");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Extracts every `"key": N` occurrence from rendered JSON.
fn json_u64s(body: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\": ");
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(i) = body[pos..].find(&needle) {
        let rest = &body[pos + i + needle.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(v) = digits.parse() {
            out.push(v);
        }
        pos += i + needle.len();
    }
    out
}

/// A degraded query run exits 3 and its per-query quarantine/skip deltas
/// sum to the workload-level degraded report.
#[test]
fn degraded_query_exits_3_with_consistent_counts() {
    let root = temp_dir("degquery");
    let corpus = root.join("corpus");
    let reps = root.join("reps");
    let out = wgr()
        .args(["gen", "--pages", "1500", "--seed", "9", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen: {out:?}");
    let out = wgr()
        .arg("query")
        .arg(&corpus)
        .arg("--reps")
        .arg(&reps)
        .args(["--scheme", "s-node"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "clean query: {out:?}");

    // One bit flip inside a blob of the forward S-Node directory.
    let snode_dir = reps.join("snode");
    let plan = (0u64..)
        .map(|s| {
            FaultPlan::generate(
                &snode_dir,
                s,
                &FaultSpec {
                    flips: 1,
                    ..FaultSpec::default()
                },
            )
            .unwrap()
        })
        .find(|p| {
            matches!(&p.faults[0],
                webgraph_repr::fault::Fault::BitFlip { file, .. } if file.starts_with("index_"))
        })
        .unwrap();
    plan.apply_to_dir(&snode_dir).unwrap();

    let out = wgr()
        .arg("query")
        .arg(&corpus)
        .arg("--reps")
        .arg(&reps)
        .args(["--reuse", "--scheme", "s-node", "--metrics=json"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded query exits 3: {out:?}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("degraded answers"), "summary on stderr: {err}");
    let body = String::from_utf8_lossy(&out.stdout);

    // Six per-query deltas followed by the workload-level report; the
    // report must equal the sum of the deltas (each quarantine and each
    // skip is counted exactly once, when it happens).
    for key in ["quarantined_supernodes", "skipped_edges"] {
        let vals = json_u64s(&body, key);
        assert_eq!(vals.len(), 7, "{key}: 6 queries + 1 summary: {body}");
        let total: u64 = vals[..6].iter().sum();
        assert_eq!(total, vals[6], "{key}: deltas must sum to the report");
        assert!(total > 0, "{key}: the flip must be observed");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A reps root whose `snode_t` numbers pages apart from `snode`, as builds
/// that refined WGᵀ on its own wrote it, would answer backlinks in the wrong
/// ids: `--reuse` refuses it, exit 2, and asks for a rebuild.
#[test]
fn reuse_refuses_a_transpose_numbered_apart() {
    let root = temp_dir("apart");
    let (corpus_dir, reps) = (root.join("corpus"), root.join("reps"));
    let corpus = Corpus::generate(CorpusConfig::scaled(2_000, 17));
    write_corpus(&corpus_dir, &corpus).unwrap();
    let query = || {
        let mut cmd = wgr();
        cmd.arg("query").arg(&corpus_dir).arg("--reps").arg(&reps);
        cmd
    };
    assert!(query().output().unwrap().status.success());
    assert!(query().arg("--reuse").output().unwrap().status.success());

    let renum = Renumbering::read(&reps.join("snode")).unwrap();
    let page = |new: &u32| &corpus.pages[renum.old_of_new[*new as usize] as usize];
    let urls: Vec<&str> = (0..corpus.num_pages())
        .map(|p| page(&p).url.as_str())
        .collect();
    let domains: Vec<u32> = (0..corpus.num_pages()).map(|p| page(&p).domain).collect();
    let transpose = renumber_graph(&corpus.graph, &renum).transpose();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &transpose,
    };
    // Refinement reads URLs and domains only, so WGᵀ refined on its own
    // with the forward build's settings is numbered as `snode` is; a finer
    // URL-split gate gives it a partition, and a numbering, of its own.
    let config = SNodeConfig {
        refine: RefineConfig {
            min_url_split_mean: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let (_, own) = build_snode(input, &config, &reps.join("snode_t")).unwrap();
    assert!(!own.is_identity());
    let out = query().arg("--reuse").output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("rebuild the representations") && !err.contains("panicked"));
    std::fs::remove_dir_all(&root).ok();
}

/// `check --repair --from CORPUS` restores the forward build of CORPUS
/// only. A reps root's `snode_t` with one flipped bit fails its check, but
/// the files that are intact are not the forward build's: the repair exits
/// 2, names both causes and what mends each, and writes nothing.
#[test]
fn repair_refuses_a_directory_that_is_not_the_forward_build() {
    let root = temp_dir("repair_apart");
    let (corpus_dir, reps) = (root.join("corpus"), root.join("reps"));
    let corpus = Corpus::generate(CorpusConfig::scaled(1_500, 9));
    write_corpus(&corpus_dir, &corpus).unwrap();
    let built = (wgr().arg("query").arg(&corpus_dir).arg("--reps").arg(&reps))
        .args(["--scheme", "s-node"])
        .output()
        .unwrap();
    assert!(built.status.success(), "{built:?}");
    let snode_t = reps.join("snode_t");
    let flipped = wgr()
        .arg("corrupt")
        .arg(&snode_t)
        .args(["--seed", "5", "--flips", "1"])
        .output()
        .unwrap();
    assert!(flipped.status.success(), "{flipped:?}");
    let files = || -> std::collections::BTreeMap<_, _> {
        (std::fs::read_dir(&snode_t).unwrap())
            .map(|e| e.unwrap().path())
            .map(|path| (path.clone(), std::fs::read(path).unwrap()))
            .collect()
    };
    let before = files();
    let out = (wgr().arg("check").arg(&snode_t))
        .args(["--repair", "--from"])
        .arg(&corpus_dir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(err.contains("an earlier format or another corpus"), "{err}");
    assert!(err.contains("rebuild the representations"), "{err}");
    assert!(
        files() == before,
        "the repair wrote to {}",
        snode_t.display()
    );
    std::fs::remove_dir_all(&root).ok();
}

/// A directory an earlier format wrote, a superedge graph in the
/// complement form under a `sums.bin` that vouches for it, is refused by
/// readers ("negative superedge graph") and by `check --repair`, whose
/// words name both causes and the command that mends it; the repair
/// writes nothing, and that command does mend it.
#[test]
fn repair_names_the_build_that_mends_a_directory_of_an_earlier_format() {
    let root = temp_dir("repair_earlier");
    let (corpus_dir, dir) = (root.join("corpus"), root.join("snode"));
    let corpus = Corpus::generate(CorpusConfig::scaled(1_500, 9));
    write_corpus(&corpus_dir, &corpus).unwrap();
    let build = || {
        let out = (wgr().arg("build").arg("--corpus").arg(&corpus_dir))
            .arg("--out")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
    };
    build();
    let meta = webgraph_repr::snode::disk::SNodeMeta::read(&dir).unwrap();
    let graph = meta.superedge_loc.iter().flatten().next().unwrap();
    let file = dir.join(format!("index_{:03}.bin", graph.file));
    let mut bytes = std::fs::read(&file).unwrap();
    bytes[graph.offset as usize] |= 0x80; // the kind bit: complement form
    std::fs::write(&file, bytes).unwrap();
    let blobs = IntegrityManifest::blob_crcs(&dir).unwrap();
    (IntegrityManifest::compute(&dir, blobs).unwrap().write(&dir)).unwrap();

    let check = wgr().arg("check").arg(&dir).output().unwrap();
    assert_eq!(check.status.code(), Some(2), "{check:?}");
    let report = String::from_utf8_lossy(&check.stdout);
    assert!(report.contains("negative superedge graph"), "{report}");

    let files = || -> std::collections::BTreeMap<_, _> {
        (std::fs::read_dir(&dir).unwrap())
            .map(|e| e.unwrap().path())
            .map(|path| (path.clone(), std::fs::read(path).unwrap()))
            .collect()
    };
    let before = files();
    let out = (wgr().arg("check").arg(&dir))
        .args(["--repair", "--from"])
        .arg(&corpus_dir)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(err.contains("an earlier format or another corpus"), "{err}");
    let mend = format!(
        "`wgr build --corpus {} --out {}`",
        corpus_dir.display(),
        dir.display()
    );
    assert!(err.contains(&mend), "{err}");
    assert!(files() == before, "the repair wrote to {}", dir.display());

    build();
    let check = wgr().arg("check").arg(&dir).output().unwrap();
    assert_eq!(check.status.code(), Some(0), "{check:?}");
    std::fs::remove_dir_all(&root).ok();
}

/// Flips, in as many superedge graphs of `snode_dir` as have one,
/// a bit past `sources` — in the list stream, or in the dictionary — that
/// leaves `sources` as they were but makes the graph fail to parse, or its
/// first stored list fail to decode: damage a directory without `sums.bin`
/// can only find when a probe draws on the graph. Returns how many graphs
/// were damaged, and how many of those store a dictionary.
fn damage_list_streams(snode_dir: &Path) -> (usize, usize) {
    use webgraph_repr::snode::codec::ListCodec;
    use webgraph_repr::snode::disk::{index_file_path, IndexFileReader, SNodeMeta};
    use webgraph_repr::snode::subgraphs::{Layout, SuperedgeIndex};
    let meta = SNodeMeta::read(snode_dir).unwrap();
    let files = IndexFileReader::open_resident(snode_dir).unwrap();
    let mut flips: Vec<(u32, u64)> = Vec::new();
    let mut dictionaries = 0;
    for s in 0..meta.num_supernodes() {
        let ni = u64::from(meta.supernode_size(s));
        for (k, &j) in meta.supergraph.adj[s as usize].iter().enumerate() {
            let loc = meta.superedge_loc[s as usize][k];
            let nj = u64::from(meta.supernode_size(j));
            let clean = files.read_blob(&loc).unwrap();
            let (first, layout, body) =
                match SuperedgeIndex::parse(&clean, loc.bit_len, ni, nj, ListCodec) {
                    Ok(i) => {
                        let bits = i.bit_breakdown();
                        (i.sources().get(0), i.layout(), bits.header + bits.sources)
                    }
                    _ => continue,
                };
            let Some(first) = first else {
                continue;
            };
            // Search from the end of the graph, where the stored lists lie,
            // back to where `sources` end.
            let found = (body..loc.bit_len).rev().find(|&bit| {
                let mut bytes = clean.to_vec();
                bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
                SuperedgeIndex::parse(&bytes, loc.bit_len, ni, nj, ListCodec).map_or(true, |i| {
                    i.targets_of(&bytes, loc.bit_len, u64::from(first), nj)
                        .is_err()
                })
            });
            if let Some(bit) = found {
                flips.push((loc.file, loc.offset * 8 + bit));
                dictionaries += usize::from(layout != Layout::Lists);
            }
        }
    }
    drop(files);
    for &(file, bit) in &flips {
        let path = index_file_path(snode_dir, file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
        std::fs::write(&path, bytes).unwrap();
    }
    (flips.len(), dictionaries)
}

/// Without `sums.bin` nothing checks a blob before it is parsed, and a
/// superedge graph's list stream is not scanned, nor its
/// dictionary decoded, until a probe whose page is among its sources draws
/// on it. Under the default codec most graphs store a dictionary, so most
/// of the damage lands in one. Damage there must still take the graceful
/// path when it is met: quarantine at decode time, answers that only ever
/// omit edges, and `wgr query` exiting 3.
#[test]
fn manifestless_list_stream_damage_degrades_at_decode_time() {
    let root = temp_dir("lazydegrade");
    let corpus = root.join("corpus");
    let reps = root.join("reps");
    let out = wgr()
        .args(["gen", "--pages", "1500", "--seed", "9", "--out"])
        .arg(&corpus)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen: {out:?}");
    let query = |reuse: bool| {
        let mut cmd = wgr();
        cmd.arg("query").arg(&corpus).arg("--reps").arg(&reps);
        if reuse {
            cmd.arg("--reuse");
        }
        cmd.args(["--scheme", "s-node"]).output().unwrap()
    };
    assert_eq!(query(false).status.code(), Some(0), "clean query");

    let snode_dir = reps.join("snode");
    let truth = SNode::open_resident(&snode_dir, 1 << 20).unwrap();
    let expected: Vec<Vec<u32>> = (0..truth.num_pages())
        .map(|p| truth.out_neighbors(p).unwrap())
        .collect();
    drop(truth);
    std::fs::remove_file(snode_dir.join("sums.bin")).unwrap();
    let (damaged, dictionaries) = damage_list_streams(&snode_dir);
    assert!(damaged > dictionaries, "no list stream could be damaged");
    assert!(dictionaries > 0, "no dictionary could be damaged");

    let snode = SNode::open_degraded(&snode_dir, 1 << 20).unwrap();
    assert!(!snode.verifies_checksums());
    let mut shortened = 0u64;
    for (p, want) in expected.iter().enumerate() {
        let got = snode.out_neighbors(p as u32).unwrap();
        let mut it = want.iter();
        assert!(
            got.iter().all(|t| it.any(|e| e == t)),
            "page {p}: degraded answer invents edges"
        );
        shortened += u64::from(got.len() < want.len());
    }
    let d = snode.degraded();
    assert!(d.quarantined_supernodes > 0 && d.skipped_edges > 0, "{d:?}");
    assert!(shortened > 0, "the damaged lists must be missed somewhere");
    assert_eq!(
        snode.integrity_stats(),
        (0, 0),
        "found by the decoder, not by a checksum"
    );
    drop(snode);

    let out = query(true);
    assert_eq!(out.status.code(), Some(3), "degraded query: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("degraded answers"), "summary on stderr: {err}");
    std::fs::remove_dir_all(&root).ok();
}
