//! **Ablation A1** (DESIGN.md): reference-encoding mode vs compression and
//! build time. Compares no reference encoding with candidate windows of
//! several widths, up to every preceding list: restricted to backward
//! references the affinity graph is acyclic, so `window-all` is its
//! minimum arborescence under the chain cap — the floor of this table.
//!
//! Usage: `cargo run -p wg-bench --release --bin ablation_refenc
//! [--scale pages-per-million]`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use wg_bench::{corpus_for, repo_columns, row, timed, BenchArgs};
use wg_bitio::codes;
use wg_snode::refenc::RefMode;
use wg_snode::{build_snode, RepoInput, SNodeConfig};

fn main() {
    let args = BenchArgs::parse();
    std::fs::create_dir_all(&args.work_dir).expect("work dir");
    let corpus = corpus_for(&args, 25);
    let (urls, domains) = repo_columns(&corpus);
    println!(
        "== Ablation A1: reference-encoding mode ({} pages) ==\n",
        corpus.num_pages()
    );

    let modes = [
        ("none", RefMode::None),
        ("window-1", RefMode::Windowed(1)),
        ("window-8", RefMode::Windowed(8)),
        ("window-32", RefMode::Windowed(32)),
        ("window-128", RefMode::Windowed(128)),
        ("window-all", RefMode::Windowed(u32::MAX)),
    ];
    let widths = [14usize, 12, 14, 14, 12];
    println!(
        "{}",
        row(
            &[
                "mode".into(),
                "bits/edge".into(),
                "intranode b/e".into(),
                "superedge b/e".into(),
                "build(s)".into(),
            ],
            &widths
        )
    );
    for (name, mode) in modes {
        let dir = args.work_dir.join(format!("abl_ref_{name}"));
        let config = SNodeConfig {
            ref_mode: mode,
            ..Default::default()
        };
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &corpus.graph,
        };
        let ((stats, _), elapsed) = timed(|| build_snode(input, &config, &dir).expect("build"));
        let e = stats.num_edges as f64;
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    format!("{:.2}", stats.bits_per_edge()),
                    format!("{:.2}", stats.intranode_bits as f64 / e),
                    format!("{:.2}", stats.superedge_bits as f64 / e),
                    format!("{:.1}", elapsed.as_secs_f64()),
                ],
                &widths
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    println!(
        "\nexpected: a window of 32 recovers most of what every preceding list as a candidate\n\
         would (probes per list grow with the window); no-reference pays more bits per edge."
    );

    // Gap-code family comparison on the corpus's real gap streams: collect
    // the adjacency gaps (per-list, global ids) and charge each code.
    println!("\n-- gap-code family on raw adjacency gaps (bits/gap) --");
    let mut gaps: Vec<u64> = Vec::new();
    for p in 0..corpus.graph.num_nodes() {
        let mut prev: Option<u32> = None;
        for &t in corpus.graph.neighbors(p) {
            if let Some(q) = prev {
                gaps.push(u64::from(t - q - 1));
            }
            prev = Some(t);
        }
    }
    let n = gaps.len() as f64;
    let g_bits: u64 = gaps.iter().map(|&g| codes::gamma_len(g)).sum();
    let d_bits: u64 = gaps.iter().map(|&g| codes::delta_len(g)).sum();
    println!("  gamma : {:.2}", g_bits as f64 / n);
    println!("  delta : {:.2}", d_bits as f64 / n);
    println!(
        "(S-Node stores gaps in *local* id spaces after partitioning, which is why its\n\
         per-edge numbers beat every raw-gap code above)"
    );
}
