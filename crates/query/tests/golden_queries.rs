//! The six queries pinned to constants: over the corpus `golden_build.rs`
//! pins the build of (20 000 pages, seed 42, a 1 MiB cache), every scheme
//! answers Q1–6 with the same rows — the six fingerprints below, which are
//! also the reference `wgr serve CORPUS --smoke 100` holds every concurrent
//! answer to on that corpus — twice in a row with the same cost counters, and S-Node does it inside the decode
//! and lookup counts it was last committed with. A change that moves a
//! fingerprint changed an answer; one that raises a ceiling made a probe
//! do more work, and says why where it edits the table.

// Test/bench code: unwrap on setup failure is the desired behaviour.
#![allow(clippy::unwrap_used)]

use wg_corpus::{Corpus, CorpusConfig};
use wg_query::obsrun::run_observed;
use wg_query::queries::{QueryEnv, Workload};
use wg_query::reps::{Scheme, SchemeSet};
use wg_query::{DomainTable, PageRankIndex, TextIndex};
use wg_snode::SNodeConfig;

/// `fingerprint_rows` of Q1–6, identical across `Scheme::ALL`.
const ROW_FINGERPRINTS: [u64; 6] = [
    15_945_576_765_193_180_813,
    2_165_486_489_747_596_172,
    11_525_307_627_967_136_155,
    12_914_757_971_950_109_329,
    2_746_696_819_854_928_331,
    10_646_603_754_172_872_598,
];

/// What S-Node may spend on each query, cold: `intra_lists_decoded`,
/// `super_lists_decoded` and graph-cache lookups (`cache_hits +
/// cache_misses`). More intranode or superedge list decodes means the
/// frontier-batched fast path regressed. More lookups means a probe is
/// asking for graphs its fanout does not name: one lookup per
/// out-superedge made 12 103 over the six queries where the fanout makes
/// these 5 810. Q3's decodes fell from 381 to 312 and its lookups from 414
/// to 342, Q4's from 277 to 181 and from 296 to 189, when WGᵀ came to be
/// stored over WG's partition: a backlink probe then reads the lists of
/// 258 supernodes' graphs where it read 402's. Lookups fell from
/// 203/241/342/189/4 443/213 (5 631 over the six) to these (2 441), and
/// superedge list decodes from 197/235/282/173/3 947/205, when the fanout
/// came to answer single-target dictionaries of one entry itself: such a
/// graph's answer is one number the fanout holds, so it is neither looked
/// up nor counted as a list decoded. The rows did not move.
const SNODE_CEILINGS: [[u64; 3]; 6] = [
    [3, 102, 108],
    [3, 115, 121],
    [30, 142, 202],
    [8, 136, 152],
    [248, 1248, 1744],
    [4, 106, 114],
];

#[test]
fn six_queries_answer_and_cost_what_they_were_committed_to() {
    // Counters register when a representation opens: up before any does.
    wg_obs::set_metrics_enabled(true);
    let corpus = Corpus::generate(CorpusConfig::scaled(20_000, 42));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let root = std::env::temp_dir().join(format!("wg_golden_queries_{}", std::process::id()));
    let set = SchemeSet::build(
        &root,
        &urls,
        &domains,
        &corpus.graph,
        &SNodeConfig::default(),
        1 << 20,
    )
    .unwrap();
    let text = TextIndex::build(&corpus, &set.renumbering);
    let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
    let domain_table = DomainTable::build(&corpus, &set.renumbering);
    let env = QueryEnv {
        text: &text,
        pagerank: &pagerank,
        domains: &domain_table,
    };
    let workload = Workload::discover(&text, &domain_table);

    for scheme in Scheme::ALL {
        let first = run_observed(env, &set, scheme, &workload).unwrap();
        let second = run_observed(env, &set, scheme, &workload).unwrap();
        assert_eq!(first.queries.len(), 6);
        for (k, (a, b)) in first.queries.iter().zip(&second.queries).enumerate() {
            let (name, q) = (scheme.name(), a.query);
            assert_eq!(
                a.deterministic_fields(),
                b.deterministic_fields(),
                "{name} {q}: two passes disagree"
            );
            assert_eq!(a.fingerprint, ROW_FINGERPRINTS[k], "{name} {q} rows moved");
            if scheme == Scheme::SNode {
                let spent = [
                    a.intra_lists_decoded,
                    a.super_lists_decoded,
                    a.cache_hits + a.cache_misses,
                ];
                let what = ["intra lists", "super lists", "lookups"];
                for ((got, allowed), what) in spent.iter().zip(SNODE_CEILINGS[k]).zip(what) {
                    assert!(got <= &allowed, "{name} {q}: {got} {what} > {allowed}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
