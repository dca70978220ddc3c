//! Quickstart: generate a small synthetic Web repository, build its S-Node
//! representation, and navigate it.
//!
//! Run with: `cargo run --release --example quickstart`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::snode::{build_snode, RepoInput, SNode, SNodeConfig};

fn main() {
    // 1. A 20k-page synthetic repository with realistic Web-graph structure
    //    (link copying, host locality, Zipfian domains).
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 7));
    println!(
        "repository: {} pages, {} links, {} domains, {} hosts",
        corpus.num_pages(),
        corpus.graph.num_edges(),
        corpus.domains.len(),
        corpus.hosts.len()
    );

    // 2. Build the S-Node representation on disk.
    let dir = std::env::temp_dir().join(format!("snode_quickstart_{}", std::process::id()));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let (stats, renum) = build_snode(input, &SNodeConfig::default(), &dir).expect("build");
    println!(
        "s-node: {} supernodes, {} superedges, {:.2} bits/edge",
        stats.num_supernodes,
        stats.num_superedges,
        stats.bits_per_edge(),
    );

    // 3. Open it with a 1 MiB decoded-graph budget and look around.
    let snode = SNode::open_resident(&dir, 1 << 20).expect("open");

    // Pick the first page of the first .edu domain and walk its links.
    let edu = corpus.domains_with_tld("edu")[0];
    let page = snode.pages_in_domain(edu)[0];
    let old_id = renum.old_of_new[page as usize];
    println!(
        "\npage {page} = {} (domain {})",
        corpus.pages[old_id as usize].url, corpus.domains[edu as usize]
    );
    let neighbors = snode.out_neighbors(page).expect("navigate");
    println!("links to {} pages:", neighbors.len());
    for &t in neighbors.iter().take(5) {
        let old = renum.old_of_new[t as usize];
        println!("  -> {}", corpus.pages[old as usize].url);
    }

    // 4. The cache instrumentation shows how few graphs that touched.
    let cs = snode.cache_stats();
    println!(
        "\ncache: {} loads ({} KB decoded), {} hits",
        cs.misses,
        cs.bytes_loaded / 1024,
        cs.hits
    );

    std::fs::remove_dir_all(&dir).ok();
}
