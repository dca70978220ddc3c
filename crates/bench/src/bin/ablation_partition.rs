//! **Ablation A2** (DESIGN.md): partitioning policy vs compression.
//! Compares the domain partition alone with the full refinement (URL
//! split, the default build), plus a granularity sweep over the URL-split
//! gate.
//!
//! Usage: `cargo run -p wg-bench --release --bin ablation_partition
//! [--scale pages-per-million]`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use wg_bench::{corpus_for, repo_columns, row, BenchArgs};
use wg_snode::partition::RefineConfig;
use wg_snode::{build_snode, RepoInput, SNodeConfig};

fn main() {
    let args = BenchArgs::parse();
    std::fs::create_dir_all(&args.work_dir).expect("work dir");
    let corpus = corpus_for(&args, 50);
    let (urls, domains) = repo_columns(&corpus);
    println!(
        "== Ablation A2: partitioning policy ({} pages) ==\n",
        corpus.num_pages()
    );

    let domain_only = RefineConfig {
        max_iterations: 0, // P0 untouched
        ..Default::default()
    };
    let coarse = RefineConfig {
        min_url_split_mean: 512,
        ..Default::default()
    };
    let fine = RefineConfig {
        min_url_split_mean: 8,
        ..Default::default()
    };

    let variants: Vec<(&str, SNodeConfig)> = vec![
        (
            "domain-only (P0)",
            SNodeConfig {
                refine: domain_only,
                ..Default::default()
            },
        ),
        ("full refinement", SNodeConfig::default()),
        (
            "gate=512 (coarser)",
            SNodeConfig {
                refine: coarse,
                ..Default::default()
            },
        ),
        (
            "gate=8 (finer)",
            SNodeConfig {
                refine: fine,
                ..Default::default()
            },
        ),
    ];

    let widths = [28usize, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "variant".into(),
                "supernodes".into(),
                "superedges".into(),
                "bits/edge".into(),
            ],
            &widths
        )
    );
    for (name, config) in variants {
        let dir = args
            .work_dir
            .join(format!("abl_part_{}", name.replace([' ', '/'], "_")));
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &corpus.graph,
        };
        let (stats, _) = build_snode(input, &config, &dir).expect("build");
        println!(
            "{}",
            row(
                &[
                    name.into(),
                    stats.num_supernodes.to_string(),
                    stats.num_superedges.to_string(),
                    format!("{:.2}", stats.bits_per_edge()),
                ],
                &widths
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    println!(
        "\nexpected: refinement beyond P0 trades supernode-graph size against intranode\n\
         compressibility."
    );
}
