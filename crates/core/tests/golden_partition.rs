//! Refinement pinned to constants: the partition of one generated corpus,
//! as `RefineStats` and a hash of `elem_of`. A change to refinement that is
//! meant to be invisible — how prefixes are ranked, how groups are keyed —
//! must leave every number here alone; one that is meant to move the
//! partition updates them and says so.

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

    // `cuts` and the hash moved when elements above `MAX_ELEMENT_PAGES`
    // came to be cut into runs: this corpus's largest is cut in two.
    let (partition, stats) = refine(&urls, &domains, &RefineConfig::default());
    assert!(partition.validate(corpus.num_pages()));
    assert_eq!(
        stats,
        RefineStats {
            iterations: 304,
            url_splits: 46,
            cuts: 1,
        }
    );
    let hash = fnv1a(&partition.elem_of);
    assert_eq!(
        hash, 0xf3cf_3b95_8d3e_bbac,
        "elem_of hashes to {hash:#018x}"
    );
}
