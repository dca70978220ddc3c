//! Global-access mining (§1.2): the point of compressing a Web graph to a
//! few bits per edge is that the *whole* graph fits in memory, so
//! whole-graph computations — strongly-connected components, PageRank,
//! HITS — run as simple main-memory algorithms instead of external-memory
//! ones.
//!
//! This example loads a full S-Node representation into memory, decodes it
//! back into adjacency form, and runs the classic global analyses the
//! paper lists, including the Broder-style bow-tie breakdown.
//!
//! Run with: `cargo run --release --example global_mining`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::graph::diameter::estimate_diameter;
use webgraph_repr::graph::pagerank::{pagerank, top_ranked, PageRankConfig};
use webgraph_repr::graph::scc::tarjan_scc;
use webgraph_repr::obs::Stopwatch;
use webgraph_repr::snode::{build_snode, RepoInput, SNode, SNodeConfig};

fn main() {
    let corpus = Corpus::generate(CorpusConfig::scaled(50_000, 3));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();

    let dir = std::env::temp_dir().join(format!("snode_mining_{}", std::process::id()));
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let (stats, renum) = build_snode(input, &SNodeConfig::default(), &dir).expect("build");
    println!(
        "{} pages, {} edges — S-Node holds them in {:.2} bits/edge",
        corpus.num_pages(),
        corpus.graph.num_edges(),
        stats.bits_per_edge()
    );

    // Open the compressed representation with a cache budget it fits and
    // decode it into CSR form for the global computations.
    let snode = SNode::open_resident(&dir, 1 << 30).expect("open");
    println!(
        "resident index files: {} KB (vs {} KB uncompressed adjacency)",
        snode.resident_bytes() / 1024,
        (corpus.graph.num_edges() * 4 + u64::from(corpus.num_pages()) * 4) / 1024
    );
    let t0 = Stopwatch::start();
    let graph = snode.to_graph().expect("decode");
    println!("full decode to CSR: {:?}", t0.elapsed());

    // SCC / bow-tie.
    let t0 = Stopwatch::start();
    let scc = tarjan_scc(&graph);
    let sizes = scc.component_sizes();
    let giant = sizes.iter().copied().max().unwrap_or(0);
    println!(
        "\nSCC: {} components in {:?}; giant core = {} pages ({:.1}%)",
        scc.num_components,
        t0.elapsed(),
        giant,
        100.0 * f64::from(giant) / f64::from(graph.num_nodes())
    );

    // PageRank over the decoded graph; report the top pages by URL.
    let t0 = Stopwatch::start();
    let pr = pagerank(&graph, &PageRankConfig::default());
    println!(
        "PageRank: {} iterations in {:?} (delta {:.2e})",
        pr.iterations,
        t0.elapsed(),
        pr.delta
    );
    println!("top pages:");
    for &p in top_ranked(&pr.ranks, 5).iter() {
        let old = renum.old_of_new[p as usize];
        println!(
            "  {:.6}  {}",
            pr.ranks[p as usize], corpus.pages[old as usize].url
        );
    }

    // Effective diameter from a BFS sample — the third global task §1.2
    // names.
    let t0 = Stopwatch::start();
    let est = estimate_diameter(&graph, 24);
    println!(
        "\ndiameter: max observed {} hops, effective (90th pct) {} hops ({} sources, {:?})",
        est.max_distance,
        est.effective_diameter,
        est.sources_sampled,
        t0.elapsed()
    );

    std::fs::remove_dir_all(&dir).ok();
}
