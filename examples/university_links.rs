//! Analysis 1 from the paper's introduction: *"Generate a list of
//! universities that Stanford researchers working on 'Mobile networking'
//! refer to and collaborate with."*
//!
//! The plan (§1.1): take the pages of the home university that contain the
//! topic phrase, weight each by normalised PageRank, follow their
//! out-links, and score every other `.edu` domain by the summed weight of
//! the pages pointing into it.
//!
//! Run with: `cargo run --release --example university_links`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::query::queries::{query1, Q1Params, QueryEnv};
use webgraph_repr::query::reps::{Scheme, SchemeSet};
use webgraph_repr::query::{DomainTable, PageRankIndex, TextIndex};
use webgraph_repr::snode::SNodeConfig;

fn main() {
    let corpus = Corpus::generate(CorpusConfig::scaled(30_000, 11));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();

    // Materialise every representation once; we query through S-Node here.
    let root = std::env::temp_dir().join(format!("snode_uni_{}", std::process::id()));
    let set = SchemeSet::build(
        &root,
        &urls,
        &domains,
        &corpus.graph,
        &SNodeConfig::default(),
        1 << 20,
    )
    .expect("build");
    let text = TextIndex::build(&corpus, &set.renumbering);
    let pagerank = PageRankIndex::build(&corpus.graph, &set.renumbering);
    let dt = DomainTable::build(&corpus, &set.renumbering);

    // "Stanford" = the largest .edu domain; the topic = the phrase with the
    // most support inside it.
    let stanford = *dt
        .domains_with_tld("edu")
        .iter()
        .max_by_key(|&&d| dt.pages_of(d).len())
        .expect("an .edu domain exists");
    let topic = (0..text.num_phrases())
        .max_by_key(|&ph| {
            dt.filter_to_domain(text.pages_with_phrase(ph), stanford)
                .len()
        })
        .expect("phrases exist");
    println!(
        "home domain: {}   topic: {:?}",
        dt.name(stanford),
        text.phrases()[topic as usize]
    );

    let env = QueryEnv {
        text: &text,
        pagerank: &pagerank,
        domains: &dt,
    };
    let mut rep = set.open(Scheme::SNode).expect("open s-node");
    let out = query1(
        env,
        rep.as_mut(),
        &Q1Params {
            phrase: topic,
            source_domain: stanford,
            target_tld: "edu".to_string(),
        },
    )
    .expect("query");

    println!("\nuniversities referred to, by summed researcher weight:");
    for (rank, &(domain, weight)) in out.rows.iter().take(10).enumerate() {
        println!(
            "  {:2}. {:<28} weight {:.4}",
            rank + 1,
            dt.name(domain as u32),
            weight
        );
    }
    println!(
        "\nnavigation: {} adjacency fetches, {} edges touched, {:?}",
        out.nav.nav_calls, out.nav.edges_touched, out.nav.nav_time
    );
    std::fs::remove_dir_all(&root).ok();
}
