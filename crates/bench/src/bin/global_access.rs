//! Supplementary experiment: the **global-access** story of §1.2.
//!
//! The paper's motivation for extreme compression is that whole-graph
//! computations (SCC, PageRank, diameter) become simple main-memory
//! algorithms when the representation fits in RAM. This harness measures,
//! for a 100 (scaled) M-page repository:
//!
//! * resident size of the S-Node encoded form vs raw adjacency arrays;
//! * time to decode the full graph back to CSR;
//! * SCC, PageRank and effective-diameter runtimes on the decoded graph.
//!
//! Usage: `cargo run -p wg-bench --release --bin global_access
//! [--scale pages-per-million]`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use wg_bench::{corpus_for, repo_columns, timed, BenchArgs};
use wg_graph::bowtie::bowtie_with_transpose;
use wg_graph::diameter::estimate_diameter;
use wg_graph::pagerank::{pagerank, PageRankConfig};
use wg_graph::scc::tarjan_scc;
use wg_graph::trawl::{trawl, TrawlParams};
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

fn main() {
    let args = BenchArgs::parse();
    std::fs::create_dir_all(&args.work_dir).expect("work dir");
    let corpus = corpus_for(&args, 100);
    let (urls, domains) = repo_columns(&corpus);
    println!(
        "== Global access: {} pages, {} edges ==\n",
        corpus.num_pages(),
        corpus.graph.num_edges()
    );

    let dir = args.work_dir.join("global");
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let (stats, _renum) = build_snode(input, &SNodeConfig::default(), &dir).expect("build");
    let raw_bytes = corpus.graph.num_edges() * 4 + u64::from(corpus.num_pages() + 1) * 8;
    println!(
        "representation: {:.2} bits/edge; resident encoded {:.1} MB vs raw CSR {:.1} MB ({:.1}x)",
        stats.bits_per_edge(),
        (stats.meta_bytes + stats.index_bytes) as f64 / (1 << 20) as f64,
        raw_bytes as f64 / (1 << 20) as f64,
        raw_bytes as f64 / (stats.meta_bytes + stats.index_bytes) as f64
    );

    // The open reads meta.bin and the index files whole; each graph is
    // checksummed and parsed where the decode first reads it.
    let (snode, t_open) = timed(|| SNode::open_resident(&dir, 1 << 30).expect("open"));
    println!(
        "open (meta.bin and {} KB of index files resident): {t_open:?}",
        snode.resident_bytes() / 1024
    );

    let (graph, t_decode) = timed(|| snode.to_graph().expect("decode"));
    println!("read, check, parse and decode every graph to CSR: {t_decode:?}");
    assert_eq!(graph.num_edges(), corpus.graph.num_edges(), "edge count");

    let (scc, t_scc) = timed(|| tarjan_scc(&graph));
    println!(
        "SCC: {} components (giant {}) in {t_scc:?}",
        scc.num_components,
        scc.largest()
    );

    let (pr, t_pr) = timed(|| pagerank(&graph, &PageRankConfig::default()));
    println!("PageRank: {} iterations in {t_pr:?}", pr.iterations);

    let (bt, t_bt) = timed(|| bowtie_with_transpose(&graph, &graph.transpose()));
    println!("bow-tie: {bt} in {t_bt:?}");

    let (est, t_diam) = timed(|| estimate_diameter(&graph, 16));
    println!(
        "diameter: max {} hops, effective {} hops ({} sources) in {t_diam:?}",
        est.max_distance, est.effective_diameter, est.sources_sampled
    );

    let (cores, t_trawl) = timed(|| trawl(&graph, &TrawlParams::default()));
    println!(
        "community trawl: {} (3,3)-cores found in {t_trawl:?}",
        cores.len()
    );

    println!(
        "\npaper shape: once the compressed graph fits in memory, every global computation\n\
         is a plain main-memory algorithm — no external-memory machinery required."
    );
    std::fs::remove_dir_all(&dir).ok();
}
