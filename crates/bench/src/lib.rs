//! Shared machinery for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation (§4).
//!
//! Scaling: the paper's data sets are 25–115 **million** pages from the
//! Stanford WebBase crawl; this harness defaults to a 1:1000 scale
//! (25–115 **thousand** synthetic pages) so every experiment runs on a
//! laptop in minutes. Pass `--scale <f>` to any binary to change it; shapes
//! (who wins, by what factor, where curves bend) are scale-stable, absolute
//! numbers are not and are not claimed to be.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use std::time::Duration;
use wg_corpus::{Corpus, CorpusConfig};
use wg_graph::Graph;
use wg_obs::Stopwatch;

/// The paper's repository sizes in millions of pages.
pub const PAPER_SIZES_M: [u32; 5] = [25, 50, 75, 100, 115];

/// Default scale: synthetic pages per paper-million.
pub const DEFAULT_PAGES_PER_MILLION: u32 = 1_000;

/// The paper's measured mean out-degree, used for the "max repository in
/// 8 GB" extrapolation of Table 1.
pub const PAPER_MEAN_OUT_DEGREE: f64 = 14.0;

/// Simple command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Synthetic pages per paper-million (default 1000 → 25k..115k pages).
    pub pages_per_million: u32,
    /// Corpus seed.
    pub seed: u64,
    /// Trials per measurement where applicable.
    pub trials: u32,
    /// Working directory for on-disk representations.
    pub work_dir: std::path::PathBuf,
}

impl BenchArgs {
    /// Parses `--scale N` (pages per million), `--seed N`, `--trials N`,
    /// `--dir PATH` from `std::env::args`.
    pub fn parse() -> Self {
        let mut out = Self {
            pages_per_million: DEFAULT_PAGES_PER_MILLION,
            seed: 42,
            trials: 6,
            work_dir: std::env::temp_dir().join(format!("wg_bench_{}", std::process::id())),
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            let take = |i: &mut usize| -> Option<String> {
                *i += 1;
                args.get(*i).cloned()
            };
            match args[i].as_str() {
                "--scale" => {
                    out.pages_per_million = take(&mut i)
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a number");
                }
                "--seed" => {
                    out.seed = take(&mut i)
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a number");
                }
                "--trials" => {
                    out.trials = take(&mut i)
                        .and_then(|v| v.parse().ok())
                        .expect("--trials needs a number");
                }
                "--dir" => {
                    out.work_dir = take(&mut i).expect("--dir needs a path").into();
                }
                other => {
                    eprintln!("ignoring unknown argument {other}");
                }
            }
            i += 1;
        }
        out
    }

    /// Number of synthetic pages standing in for `millions` paper-millions.
    pub fn pages_for(&self, millions: u32) -> u32 {
        millions * self.pages_per_million
    }
}

/// Generates the standard corpus for a given paper size.
pub fn corpus_for(args: &BenchArgs, millions: u32) -> Corpus {
    Corpus::generate(CorpusConfig::scaled(args.pages_for(millions), args.seed))
}

/// A crawl prefix: the first `pages` pages of `corpus` and the subgraph
/// induced on them.
///
/// The paper's five data sets are successive prefixes of one crawl
/// ("created by reading the repository sequentially from the beginning",
/// §4, citing Najork & Wiener) — this is what makes its supernode counts
/// grow sub-linearly: later pages mostly join sites the crawl has already
/// visited. Scalability experiments must therefore slice one corpus, not
/// generate independent ones.
pub fn crawl_prefix(corpus: &Corpus, pages: u32) -> (Vec<&str>, Vec<u32>, Graph) {
    let pages = pages.min(corpus.num_pages());
    let urls: Vec<&str> = corpus.pages[..pages as usize]
        .iter()
        .map(|p| p.url.as_str())
        .collect();
    let domains: Vec<u32> = corpus.pages[..pages as usize]
        .iter()
        .map(|p| p.domain)
        .collect();
    let edges = corpus
        .graph
        .edges()
        .filter(|&(u, v)| u < pages && v < pages);
    (urls, domains, Graph::from_edges(pages, edges))
}

/// Extracts the `(urls, domains)` columns the S-Node builder wants.
pub fn repo_columns(corpus: &Corpus) -> (Vec<&str>, Vec<u32>) {
    (
        corpus.pages.iter().map(|p| p.url.as_str()).collect(),
        corpus.pages.iter().map(|p| p.domain).collect(),
    )
}

/// Times a closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Stopwatch::start();
    let r = f();
    (r, t0.elapsed())
}

/// Table 1's extrapolation: how many pages fit in `memory_bytes` given
/// `bits_per_edge` and the paper's mean out-degree of 14.
pub fn max_pages_in_memory(bits_per_edge: f64, memory_bytes: u64) -> u64 {
    if bits_per_edge <= 0.0 {
        return 0;
    }
    let bits_per_page = bits_per_edge * PAPER_MEAN_OUT_DEGREE;
    ((memory_bytes * 8) as f64 / bits_per_page) as u64
}

/// Pretty-prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Mean of a duration sample, in milliseconds.
pub fn mean_ms(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>() / samples.len() as f64
}

/// Nanoseconds per edge for `total` time over `edges` edges.
pub fn ns_per_edge(total: Duration, edges: u64) -> f64 {
    if edges == 0 {
        return 0.0;
    }
    total.as_nanos() as f64 / edges as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pages_matches_paper_arithmetic() {
        // Paper: 15.2 bits/edge, 14 edges/page, 8 GB → ~323 million pages.
        let pages = max_pages_in_memory(15.2, 8 << 30);
        assert!(
            (300_000_000..350_000_000).contains(&pages),
            "got {pages}, paper says ≈323M"
        );
        // 5.07 bits/edge → ~968M.
        let pages = max_pages_in_memory(5.07, 8 << 30);
        assert!(
            (930_000_000..1_010_000_000).contains(&pages),
            "got {pages}, paper says ≈968M"
        );
    }

    #[test]
    fn ns_per_edge_arithmetic() {
        assert_eq!(ns_per_edge(Duration::from_nanos(1000), 10), 100.0);
        assert_eq!(ns_per_edge(Duration::from_secs(1), 0), 0.0);
    }

    #[test]
    fn pages_for_scales() {
        let mut a = BenchArgs::parse();
        a.pages_per_million = 10;
        assert_eq!(a.pages_for(25), 250);
    }
}
