//! Robustness fuzz: `wg_analyze::check` must never panic, whatever bytes
//! it finds on disk, and must find every change. Each case takes a
//! pristine representation, flips one bit or truncates one file at an
//! arbitrary position, and runs the full analyzer: a mutation that
//! changed a byte is at least one error, and one that changed none (a
//! truncation to the full length) leaves the report clean.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::{build_snode, RepoInput, SNodeConfig};

static BASE: OnceLock<PathBuf> = OnceLock::new();
static CASE: AtomicUsize = AtomicUsize::new(0);

/// Builds the pristine representation once per test process.
fn base_dir() -> &'static Path {
    BASE.get_or_init(|| {
        let mut dir = std::env::temp_dir();
        dir.push(format!("wg_analyze_fuzz_base_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = Corpus::generate(CorpusConfig::scaled(400, 11));
        let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
        let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &corpus.graph,
        };
        build_snode(input, &SNodeConfig::default(), &dir).unwrap();
        dir
    })
}

fn fresh_copy() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let mut dst = std::env::temp_dir();
    dst.push(format!("wg_analyze_fuzz_case_{}_{n}", std::process::id()));
    std::fs::remove_dir_all(&dst).ok();
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(base_dir()).unwrap().flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

/// Applies one mutation: bit flip (truncate = false) or truncation.
/// Returns whether it changed the file.
fn mutate(dir: &Path, file_pick: usize, pos: u64, bit: u8, truncate: bool) -> bool {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    files.sort();
    let path = &files[file_pick % files.len()];
    let orig = std::fs::read(path).unwrap();
    let mut bytes = orig.clone();
    if truncate {
        let keep = (pos % (bytes.len() as u64 + 1)) as usize;
        bytes.truncate(keep);
    } else if !bytes.is_empty() {
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1u8 << (bit % 8);
    }
    std::fs::write(path, &bytes).unwrap();
    bytes != orig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn check_never_panics_on_mutated_bytes(
        file_pick in 0usize..64,
        pos in 0u64..10_000_000,
        bit in proptest::prelude::any::<u8>(),
        truncate in proptest::prelude::any::<bool>(),
    ) {
        let dir = fresh_copy();
        let changed = mutate(&dir, file_pick, pos, bit, truncate);
        let report = wg_analyze::check(&dir);
        let _ = report.to_json();
        prop_assert_eq!(report.num_errors() >= 1, changed, "{}", report);
        std::fs::remove_dir_all(&dir).ok();
    }
}
