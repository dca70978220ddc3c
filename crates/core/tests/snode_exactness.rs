//! Cross-module integration tests: the S-Node representation must be an
//! *exact* lossless representation of realistic corpus graphs, under every
//! configuration knob.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use wg_corpus::{Corpus, CorpusConfig};
use wg_graph::Graph;
use wg_snode::partition::RefineConfig;
use wg_snode::refenc::RefMode;
use wg_snode::subgraphs::SuperedgePolicy;
use wg_snode::{build_snode, RepoInput, SNode, SNodeConfig};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wg_snode_it_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn check_exact(name: &str, urls: &[&str], domains: &[u32], graph: &Graph, config: &SNodeConfig) {
    let dir = temp_dir(name);
    let input = RepoInput {
        urls,
        domains,
        graph,
    };
    let (stats, renum) = build_snode(input, config, &dir).unwrap();
    assert_eq!(stats.num_edges, graph.num_edges());

    let disk = SNode::open_resident(&dir, 4 << 20).unwrap();
    let decoded = SNode::open_resident(&dir, 1 << 30)
        .and_then(|snode| snode.to_graph())
        .unwrap();
    for old in 0..graph.num_nodes() {
        let new = renum.new_of_old[old as usize];
        let mut expect: Vec<u32> = graph
            .neighbors(old)
            .iter()
            .map(|&t| renum.new_of_old[t as usize])
            .collect();
        expect.sort_unstable();
        assert_eq!(disk.out_neighbors(new).unwrap(), expect, "disk, old {old}");
        assert_eq!(decoded.neighbors(new), expect, "to_graph, old {old}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_graph_round_trips_exactly() {
    let corpus = Corpus::generate(CorpusConfig::scaled(1_500, 2024));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    check_exact(
        "corpus",
        &urls,
        &domains,
        &corpus.graph,
        &SNodeConfig::default(),
    );
}

#[test]
fn corpus_graph_round_trips_with_edge_count_policy_and_tight_files() {
    let corpus = Corpus::generate(CorpusConfig::scaled(800, 7));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let config = SNodeConfig {
        superedge_policy: SuperedgePolicy::EdgeCount,
        max_file_bytes: 512, // many tiny index files
        ref_mode: RefMode::Windowed(4),
        ..Default::default()
    };
    check_exact("edgecount", &urls, &domains, &corpus.graph, &config);
}

#[test]
fn corpus_graph_round_trips_without_reference_encoding() {
    let corpus = Corpus::generate(CorpusConfig::scaled(600, 99));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let config = SNodeConfig {
        ref_mode: RefMode::None,
        ..Default::default()
    };
    check_exact("noref", &urls, &domains, &corpus.graph, &config);
}

#[test]
fn transpose_graph_round_trips_exactly() {
    // The paper builds S-Node representations of WGᵀ too (backlinks).
    let corpus = Corpus::generate(CorpusConfig::scaled(1_000, 5));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let transpose = corpus.graph.transpose();
    check_exact(
        "transpose",
        &urls,
        &domains,
        &transpose,
        &SNodeConfig::default(),
    );
}

#[test]
fn reference_encoding_compresses_corpus_graphs() {
    // Sanity on the headline claim's direction: with reference encoding the
    // representation is smaller than without it.
    let corpus = Corpus::generate(CorpusConfig::scaled(2_000, 31));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let input = RepoInput {
        urls: &urls,
        domains: &domains,
        graph: &corpus.graph,
    };

    let dir_ref = temp_dir("cmp_ref");
    let (stats_ref, _) = build_snode(input, &SNodeConfig::default(), &dir_ref).unwrap();
    let dir_plain = temp_dir("cmp_plain");
    let config_plain = SNodeConfig {
        ref_mode: RefMode::None,
        ..Default::default()
    };
    let (stats_plain, _) = build_snode(input, &config_plain, &dir_plain).unwrap();

    assert!(
        stats_ref.bits_per_edge() < stats_plain.bits_per_edge(),
        "reference encoding must shrink the representation: {} vs {}",
        stats_ref.bits_per_edge(),
        stats_plain.bits_per_edge()
    );
    std::fs::remove_dir_all(&dir_ref).ok();
    std::fs::remove_dir_all(&dir_plain).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary small repositories (random URLs across hosts/dirs, random
    /// graphs) must round-trip exactly under arbitrary split behaviour.
    #[test]
    fn arbitrary_small_repositories_round_trip(
        n in 2u32..60,
        edges in prop::collection::vec((0u32..60, 0u32..60), 0..400),
        min_url_split_mean in 1u32..=64,
    ) {
        let urls: Vec<String> = (0..n)
            .map(|i| {
                format!(
                    "http://h{}.dom{}.org/d{}/p{:03}.html",
                    i % 4,
                    i % 3,
                    i % 5,
                    i
                )
            })
            .collect();
        let domains: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .collect();
        let graph = Graph::from_edges(n, edges);
        let config = SNodeConfig {
            refine: RefineConfig { min_url_split_mean, ..Default::default() },
            max_file_bytes: 256,
            ..Default::default()
        };
        let dir = temp_dir(&format!("prop_{min_url_split_mean}_{n}"));
        let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let input = RepoInput { urls: &url_refs, domains: &domains, graph: &graph };
        let (_stats, renum) = build_snode(input, &config, &dir).unwrap();
        let snode = SNode::open_resident(&dir, 64 << 10).unwrap();
        for old in 0..n {
            let new = renum.new_of_old[old as usize];
            let mut expect: Vec<u32> = graph
                .neighbors(old)
                .iter()
                .map(|&t| renum.new_of_old[t as usize])
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(snode.out_neighbors(new).unwrap(), expect);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
