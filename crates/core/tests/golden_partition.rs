//! Refinement pinned to constants: the partition of one generated corpus,
//! as `RefineStats` and a hash of `elem_of`, under the default budget (URL
//! splits and k-means aborts decide it) and under one large enough that
//! clustered split fires. A change to refinement that is meant to be
//! invisible — how vectors are laid out, how distances are summed, how
//! many threads run the assignment loop — must leave every number here
//! alone; one that is meant to move the partition updates them and says so.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use wg_corpus::{Corpus, CorpusConfig};
use wg_snode::partition::{refine, RefineConfig, RefineStats};

/// FNV-1a over the little-endian bytes of every entry.
fn fnv1a(values: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn refinement_of_a_generated_corpus_is_the_committed_partition() {
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();

    let default_budget = RefineConfig::default();
    let large_budget = RefineConfig {
        kmeans_ops_budget: 200_000_000,
        ..default_budget
    };
    let golden = [
        (
            default_budget,
            RefineStats {
                iterations: 304,
                url_splits: 46,
                clustered_splits: 0,
                clustered_aborts: 258,
            },
            0x7778_7932_c260_d38c_u64,
        ),
        (
            large_budget,
            RefineStats {
                iterations: 505,
                url_splits: 46,
                clustered_splits: 2,
                clustered_aborts: 457,
            },
            0xd73b_bc56_b311_02a8,
        ),
    ];
    for (config, want_stats, want_hash) in golden {
        for threads in [1, 4] {
            let config = RefineConfig { threads, ..config };
            let (partition, stats) = refine(&urls, &domains, &corpus.graph, &config);
            assert!(partition.validate(corpus.num_pages()));
            let budget = config.kmeans_ops_budget;
            assert_eq!(stats, want_stats, "budget {budget}, {threads} threads");
            let hash = fnv1a(&partition.elem_of);
            assert_eq!(
                hash, want_hash,
                "budget {budget}, {threads} threads: elem_of hashes to {hash:#018x}"
            );
        }
    }
}
