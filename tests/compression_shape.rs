//! Integration tests pinning the *shape* of the paper's compression results
//! (Table 1 direction): the compressed schemes beat plain Huffman by a wide
//! margin, reference encoding pays for itself, and S-Node reconstructs both
//! WG and WGᵀ exactly.

use webgraph_repr::baselines::{HuffmanGraph, Link3Graph};
use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::graph::Graph;
use webgraph_repr::snode::{build_snode, build_snode_transpose, RepoInput, SNode, SNodeConfig};

fn build(pages: u32, seed: u64, name: &str) -> (Corpus, Graph, f64, std::path::PathBuf) {
    let corpus = Corpus::generate(CorpusConfig::scaled(pages, seed));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let mut dir = std::env::temp_dir();
    dir.push(format!("wg_shape_{name}_{}", std::process::id()));
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let (stats, renum) = build_snode(input, &SNodeConfig::default(), &dir).expect("build");
    let renumbered = Graph::from_edges(
        corpus.graph.num_nodes(),
        corpus
            .graph
            .edges()
            .map(|(u, v)| (renum.new_of_old[u as usize], renum.new_of_old[v as usize])),
    );
    (corpus, renumbered, stats.bits_per_edge(), dir)
}

#[test]
fn compressed_schemes_beat_plain_huffman_substantially() {
    let (_corpus, graph, snode_bpe, dir) = build(10_000, 42, "beats_huffman");
    let huffman = HuffmanGraph::build(&graph).bits_per_edge();
    let link3 = Link3Graph::build(&graph).bits_per_edge();
    assert!(
        snode_bpe < huffman * 0.75,
        "s-node ({snode_bpe:.2}) must clearly beat huffman ({huffman:.2})"
    );
    assert!(
        link3 < huffman * 0.75,
        "link3 ({link3:.2}) must clearly beat huffman ({huffman:.2})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn huffman_bits_per_edge_lands_near_the_paper() {
    // The paper measured 15.2 b/e for in-degree Huffman on WebBase; the
    // synthetic corpus is calibrated to the same degree structure, so the
    // number should land in the same band (it is scale-robust).
    let (_c, graph, _s, dir) = build(10_000, 7, "huffband");
    let huffman = HuffmanGraph::build(&graph).bits_per_edge();
    assert!(
        (11.0..20.0).contains(&huffman),
        "huffman b/e {huffman:.2} far from the paper's 15.2"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snode_is_edge_exact_for_wg_and_wgt() {
    let (_corpus, graph, _bpe, dir) = build(3_000, 13, "exact_both");
    let snode = SNode::open_resident(&dir, 1 << 30).expect("open");
    for p in (0..graph.num_nodes()).step_by(29) {
        assert_eq!(snode.out_neighbors(p).expect("decode"), graph.neighbors(p));
    }

    // The transpose, laid out over the forward directory's partition and
    // page ids, as `wgr query --reps` stores it.
    let transpose = graph.transpose();
    let mut dir_t = std::env::temp_dir();
    dir_t.push(format!("wg_shape_exact_t_{}", std::process::id()));
    let stats_t =
        build_snode_transpose(&dir, &transpose, &SNodeConfig::default(), &dir_t).expect("build t");
    assert_eq!(
        stats_t.refine,
        Default::default(),
        "refinement runs once, for WG"
    );
    let snode_t = SNode::open_resident(&dir_t, 1 << 30).expect("open t");
    for p in (0..transpose.num_nodes()).step_by(31) {
        assert_eq!(
            snode_t.out_neighbors(p).expect("decode"),
            transpose.neighbors(p)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_t).ok();
}

#[test]
fn supernode_graph_is_a_small_fraction_of_the_repository() {
    // Scalability requirement (§4.1): the supernode graph must be small
    // enough to stay memory-resident.
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 55));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let mut dir = std::env::temp_dir();
    dir.push(format!("wg_shape_supersize_{}", std::process::id()));
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };
    let (stats, _) = build_snode(input, &SNodeConfig::default(), &dir).expect("build");
    let total_bytes = stats.total_bits() / 8;
    assert!(
        stats.supernode_graph_bytes_with_pointers < total_bytes / 2,
        "supernode graph ({}) should be a fraction of the representation ({})",
        stats.supernode_graph_bytes_with_pointers,
        total_bytes
    );
    assert!(stats.num_supernodes < corpus.num_pages() / 4);
    std::fs::remove_dir_all(&dir).ok();
}
