//! Regenerates **Table 1**: bits/edge for `WG` and `WGᵀ` under Plain
//! Huffman, Link3, and S-Node, plus the "maximum repository representable
//! in 8 GB of memory" extrapolation at the paper's mean out-degree of 14.
//! S-Node's `WGᵀ` is built twice: refined on its own, as the paper builds
//! it, and over `WG`'s partition, as `wgr query --reps` and `wgr serve`
//! store it.
//!
//! Per the paper, each bits/edge figure is the average over the 25 M, 50 M
//! and 100 M-page data sets (scaled here).
//!
//! Usage: `cargo run -p wg-bench --release --bin table1_compression
//! [--scale pages-per-million]`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use wg_baselines::{HuffmanGraph, Link3Graph};
use wg_bench::{corpus_for, crawl_prefix, max_pages_in_memory, row, BenchArgs};
use wg_query::reps::renumber_graph;
use wg_snode::{build_snode, build_snode_transpose, RepoInput, SNodeConfig};

const SIZES_M: [u32; 3] = [25, 50, 100];

fn main() {
    let args = BenchArgs::parse();
    std::fs::create_dir_all(&args.work_dir).expect("work dir");
    println!("== Table 1: compression statistics ==");
    println!(
        "averaged over {:?} paper-million corpora at {} pages/million\n",
        SIZES_M, args.pages_per_million
    );

    // Accumulate bits/edge per scheme, per direction.
    let mut acc = [[0.0f64; 2]; 4]; // [scheme][direction]
    let full = corpus_for(&args, *SIZES_M.last().expect("sizes"));
    for &m in &SIZES_M {
        let (urls, domains, graph) = crawl_prefix(&full, args.pages_for(m));

        // Build the S-Node of WG first: its renumbering defines the shared
        // id space (the Connectivity Server sorts by URL too, so giving
        // Link3/Huffman the URL-grouped ordering matches their papers).
        let dir = args.work_dir.join(format!("t1_{m}"));
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &graph,
        };
        let (stats, renum) =
            build_snode(input, &SNodeConfig::default(), &dir).expect("snode build");
        let renum_graph = renumber_graph(&graph, &renum);
        let transpose = renum_graph.transpose();

        // Transpose S-Node, refined on its own over the renumbered
        // repository (the paper's WGᵀ row).
        let t_urls: Vec<&str> = (0..graph.num_nodes())
            .map(|new| urls[renum.old_of_new[new as usize] as usize])
            .collect();
        let t_domains: Vec<u32> = (0..graph.num_nodes())
            .map(|new| domains[renum.old_of_new[new as usize] as usize])
            .collect();
        let dir_t = args.work_dir.join(format!("t1_{m}_t"));
        let t_input = RepoInput {
            urls: &t_urls,
            domains: &t_domains,
            graph: &transpose,
        };
        let (stats_t, _) =
            build_snode(t_input, &SNodeConfig::default(), &dir_t).expect("snode_t build");
        let stats_shared = build_snode_transpose(&dir, &transpose, &SNodeConfig::default(), &dir_t)
            .expect("snode_t build over WG's partition");

        let huff = HuffmanGraph::build(&renum_graph);
        let huff_t = HuffmanGraph::build(&transpose);
        let link3 = Link3Graph::build(&renum_graph);
        let link3_t = Link3Graph::build(&transpose);

        acc[0][0] += huff.bits_per_edge();
        acc[0][1] += huff_t.bits_per_edge();
        acc[1][0] += link3.bits_per_edge();
        acc[1][1] += link3_t.bits_per_edge();
        acc[2][0] += stats.bits_per_edge();
        acc[2][1] += stats_t.bits_per_edge();
        acc[3][0] += stats.bits_per_edge();
        acc[3][1] += stats_shared.bits_per_edge();

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir_t).ok();
    }
    for s in &mut acc {
        s[0] /= SIZES_M.len() as f64;
        s[1] /= SIZES_M.len() as f64;
    }

    let widths = [28usize, 12, 12, 16, 16];
    println!(
        "{}",
        row(
            &[
                "scheme".into(),
                "WG b/e".into(),
                "WGT b/e".into(),
                "max @8GB (WG)".into(),
                "max @8GB (WGT)".into(),
            ],
            &widths
        )
    );
    let names = [
        "Plain Huffman",
        "Connectivity Server (Link3)",
        "S-Node",
        "S-Node, WG's partition",
    ];
    let paper = [[15.2, 15.4], [5.81, 5.92], [5.07, 5.63]];
    for (i, name) in names.iter().enumerate() {
        println!(
            "{}",
            row(
                &[
                    name.to_string(),
                    format!("{:.2}", acc[i][0]),
                    format!("{:.2}", acc[i][1]),
                    format!("{}M", max_pages_in_memory(acc[i][0], 8 << 30) / 1_000_000),
                    format!("{}M", max_pages_in_memory(acc[i][1], 8 << 30) / 1_000_000),
                ],
                &widths
            )
        );
        let Some(paper) = paper.get(i) else {
            continue;
        };
        println!(
            "{}",
            row(
                &[
                    "  (paper)".into(),
                    format!("{:.2}", paper[0]),
                    format!("{:.2}", paper[1]),
                    String::new(),
                    String::new(),
                ],
                &widths
            )
        );
    }
    println!(
        "\npaper shape: compressed schemes (Link3, S-Node) need ~3x fewer bits/edge than\n\
         plain Huffman; WG compresses better than WGT for similarity-exploiting schemes."
    );
}
