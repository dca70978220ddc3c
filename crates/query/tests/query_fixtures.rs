//! Hand-computed query fixtures: a tiny repository whose query answers are
//! worked out by hand, evaluated against the real pipeline end-to-end.
//!
//! Layout (8 pages):
//!
//! | page | domain        | phrases | out-links |
//! |------|---------------|---------|-----------|
//! | 0    | alpha.edu (0) | {T}     | 4, 5      |
//! | 1    | alpha.edu (0) | {T}     | 4         |
//! | 2    | alpha.edu (0) | {}      | 6         |
//! | 3    | beta.edu  (1) | {T}     | 4, 7      |
//! | 4    | gamma.edu (2) | {}      | 0         |
//! | 5    | delta.com (3) | {}      | —         |
//! | 6    | gamma.edu (2) | {}      | —         |
//! | 7    | delta.com (3) | {}      | —         |
//!
//! T = the topic phrase. alpha.edu plays stanford; beta.edu plays berkeley.

use wg_corpus::{Corpus, HostInfo, PageMeta};
use wg_graph::Graph;
use wg_query::queries::*;
use wg_query::reps::{renumber_graph, Scheme, SchemeSet};
use wg_query::{DomainTable, PageRankIndex, TextIndex};
use wg_snode::SNodeConfig;

/// Builds the fixture corpus by hand (bypassing the generator).
fn fixture_corpus() -> Corpus {
    let domains = vec![
        "alpha.edu".to_string(),
        "beta.edu".to_string(),
        "gamma.edu".to_string(),
        "delta.com".to_string(),
    ];
    let urls = [
        "http://www.alpha.edu/a/p0.html",
        "http://www.alpha.edu/a/p1.html",
        "http://www.alpha.edu/b/p2.html",
        "http://www.beta.edu/p3.html",
        "http://www.gamma.edu/p4.html",
        "http://www.delta.com/p5.html",
        "http://www.gamma.edu/p6.html",
        "http://www.delta.com/p7.html",
    ];
    let page_domain = [0u32, 0, 0, 1, 2, 3, 2, 3];
    let hosts: Vec<HostInfo> = (0..4)
        .map(|d| HostInfo {
            name: format!("www.{}", domains[d as usize]),
            domain: d,
            pages_by_url: (0..8u32)
                .filter(|&p| page_domain[p as usize] == d)
                .collect(),
        })
        .collect();
    let host_of = |p: usize| page_domain[p]; // one host per domain here
    let pages: Vec<PageMeta> = urls
        .iter()
        .enumerate()
        .map(|(i, u)| PageMeta {
            url: u.to_string(),
            host: host_of(i),
            domain: page_domain[i],
        })
        .collect();
    let graph = Graph::from_edges(8, [(0, 4), (0, 5), (1, 4), (2, 6), (3, 4), (3, 7)]);
    // Phrase 0 = topic T on pages 0, 1, 3.
    let page_phrases = vec![
        vec![0u32],
        vec![0],
        vec![],
        vec![0],
        vec![],
        vec![],
        vec![],
        vec![],
    ];
    Corpus {
        domains,
        hosts,
        pages,
        graph,
        phrases: vec!["mobile networking".to_string()],
        page_phrases,
    }
}

struct Fx {
    root: std::path::PathBuf,
    set: SchemeSet,
    text: TextIndex,
    pagerank: PageRankIndex,
    domains: DomainTable,
}

impl Drop for Fx {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn setup(name: &str) -> Fx {
    let corpus = fixture_corpus();
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let doms: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
    let mut root = std::env::temp_dir();
    root.push(format!("wg_qfix_{name}_{}", std::process::id()));
    let set = SchemeSet::build(
        &root,
        &urls,
        &doms,
        &corpus.graph,
        &SNodeConfig::default(),
        1 << 18,
    )
    .expect("build");
    let text = TextIndex::build(&corpus, &set.renumbering);
    let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
    let domains = DomainTable::build(&corpus, &set.renumbering);
    Fx {
        root,
        set,
        text,
        pagerank,
        domains,
    }
}

fn env<'a>(f: &'a Fx) -> QueryEnv<'a> {
    QueryEnv {
        text: &f.text,
        pagerank: &f.pagerank,
        domains: &f.domains,
    }
}

/// Translate an original page id into the shared (renumbered) id space.
fn nid(f: &Fx, old: u32) -> u64 {
    u64::from(f.set.renumbering.new_of_old[old as usize])
}

#[test]
fn query1_scores_exact_domains() {
    let f = setup("q1");
    // S = phrase pages of alpha.edu = {0, 1}; weights = normalised PageRank.
    // Page 0 → {gamma.edu (4), delta.com (5)}; page 1 → {gamma.edu}.
    // Target TLD .edu, excluding alpha.edu ⇒ only gamma.edu scores, with
    // weight w(0) + w(1) = 1.0 (both of S point into it; delta.com is .com).
    let mut rep = f.set.open(Scheme::SNode).unwrap();
    let out = query1(
        env(&f),
        rep.as_mut(),
        &Q1Params {
            phrase: 0,
            source_domain: 0,
            target_tld: "edu".to_string(),
        },
    )
    .unwrap();
    assert_eq!(
        out.rows.len(),
        1,
        "only gamma.edu qualifies: {:?}",
        out.rows
    );
    assert_eq!(out.rows[0].0, 2, "gamma.edu is domain 2");
    assert!(
        (out.rows[0].1 - 1.0).abs() < 1e-9,
        "both S pages point there"
    );
}

#[test]
fn query2_counts_c1_plus_c2() {
    let f = setup("q2");
    // One "comic": words = {T, T, T} (≥2 hits ⇒ any page with T counts);
    // site = delta.com. Audience alpha.edu = {0,1,2}; C1 = |{0,1}| = 2.
    // C2 = links from alpha.edu into delta.com = 0→5 only ⇒ 1. Total 3.
    let mut rep = f.set.open(Scheme::SNode).unwrap();
    let out = query2(
        env(&f),
        rep.as_mut(),
        &Q2Params {
            comics: vec![Comic {
                words: vec![0, 0, 0],
                site: 3,
            }],
            audience_domain: 0,
        },
    )
    .unwrap();
    assert_eq!(out.rows, vec![(0, 3.0)]);
}

#[test]
fn query3_base_set_exact() {
    let f = setup("q3");
    // Roots = all phrase pages {0,1,3} (k=100 ≫ 3). Base set = roots ∪
    // out{4,5,7} ∪ in{} = {0,1,3,4,5,7}.
    let mut fwd = f.set.open(Scheme::SNode).unwrap();
    let mut back = f.set.open_transpose(Scheme::SNode).unwrap();
    let out = query3(
        env(&f),
        fwd.as_mut(),
        back.as_mut(),
        &Q3Params {
            phrase: 0,
            root_k: 100,
        },
    )
    .unwrap();
    let mut expect: Vec<u64> = [0u32, 1, 3, 4, 5, 7].iter().map(|&o| nid(&f, o)).collect();
    expect.sort_unstable();
    let got: Vec<u64> = out.rows.iter().map(|&(k, _)| k).collect();
    assert_eq!(got, expect);
}

#[test]
fn query4_external_indegree() {
    let f = setup("q4");
    // University = beta.edu; its phrase page is 3; external in-links to 3:
    // none ⇒ score 0. University alpha.edu: phrase pages {0,1}, in-links
    // from outside alpha.edu: none ⇒ scores 0 (but rows still emitted).
    let mut back = f.set.open_transpose(Scheme::SNode).unwrap();
    let out = query4(
        env(&f),
        back.as_mut(),
        &Q4Params {
            phrase: 0,
            universities: vec![0, 1],
            k: 10,
        },
    )
    .unwrap();
    assert_eq!(out.rows.len(), 3, "pages 0,1 for alpha + page 3 for beta");
    assert!(out.rows.iter().all(|&(_, s)| s == 0.0));
}

#[test]
fn query5_induced_indegree() {
    let f = setup("q5");
    // S = {0,1,3}; induced edges: none (all targets outside S) ⇒ all
    // scores 0; .edu filter keeps all three (alpha, beta are .edu).
    let mut rep = f.set.open(Scheme::SNode).unwrap();
    let out = query5(
        env(&f),
        rep.as_mut(),
        &Q5Params {
            phrase: 0,
            result_tld: "edu".to_string(),
            k: 10,
        },
    )
    .unwrap();
    assert_eq!(out.rows.len(), 3);
    assert!(out.rows.iter().all(|&(_, s)| s == 0.0));
}

#[test]
fn query6_cocitation_exact() {
    let f = setup("q6");
    // S1 = alpha phrase pages {0,1}; S2 = beta phrase pages {3}.
    // Targets outside both domains: from S1 → {4,5}; from S2 → {4,7}.
    // Intersection = {4}; rank = in-links from S1∪S2 = 0→4, 1→4, 3→4 = 3.
    let mut rep = f.set.open(Scheme::SNode).unwrap();
    let out = query6(
        env(&f),
        rep.as_mut(),
        &Q6Params {
            phrase: 0,
            domain1: 0,
            domain2: 1,
        },
    )
    .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0], (nid(&f, 4), 3.0));
}

#[test]
fn fixtures_agree_across_all_schemes() {
    let f = setup("allschemes");
    let q1p = Q1Params {
        phrase: 0,
        source_domain: 0,
        target_tld: "edu".to_string(),
    };
    let mut expect = None;
    for scheme in Scheme::ALL {
        let mut rep = f.set.open(scheme).unwrap();
        let out = query1(env(&f), rep.as_mut(), &q1p).unwrap();
        match &expect {
            None => expect = Some(out.rows),
            Some(e) => assert_eq!(&out.rows, e, "{}", scheme.name()),
        }
    }
}

#[test]
fn renumber_graph_helper_is_consistent_with_fixture() {
    let f = setup("renum");
    let corpus = fixture_corpus();
    let rg = renumber_graph(&corpus.graph, &f.set.renumbering);
    assert_eq!(rg, f.set.graph);
}
