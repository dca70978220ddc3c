//! Analysis 2 from the paper's introduction: *relative popularity of comic
//! strips among students* — for each strip, count the home-domain pages
//! mentioning at least two of its characteristic phrases (`C1`) plus the
//! links from the home domain into the strip's website (`C2`);
//! popularity = `C1 + C2`.
//!
//! Run with: `cargo run --release --example comic_popularity`

#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

use webgraph_repr::corpus::{Corpus, CorpusConfig};
use webgraph_repr::query::queries::{query2, Comic, Q2Params, QueryEnv};
use webgraph_repr::query::reps::{Scheme, SchemeSet};
use webgraph_repr::query::{DomainTable, PageRankIndex, TextIndex};
use webgraph_repr::snode::SNodeConfig;

fn main() {
    let corpus = Corpus::generate(CorpusConfig::scaled(30_000, 23));
    let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
    let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();

    let root = std::env::temp_dir().join(format!("snode_comics_{}", std::process::id()));
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

    // Audience = the largest .edu domain ("stanford.edu"); the three
    // "comic strips" are the three largest .com domains, each with the
    // vocabulary of its three most-popular phrases.
    let audience = *dt
        .domains_with_tld("edu")
        .iter()
        .max_by_key(|&&d| dt.pages_of(d).len())
        .expect(".edu domain");
    let mut coms = dt.domains_with_tld("com");
    coms.sort_by_key(|&d| std::cmp::Reverse(dt.pages_of(d).len()));
    let mut by_popularity: Vec<u32> = (0..text.num_phrases()).collect();
    by_popularity.sort_by_key(|&ph| std::cmp::Reverse(text.pages_with_phrase(ph).len()));

    let comics: Vec<Comic> = (0..3)
        .map(|i| Comic {
            words: by_popularity[3 * i + 1..3 * i + 4].to_vec(),
            site: coms[i],
        })
        .collect();
    for (i, c) in comics.iter().enumerate() {
        println!(
            "strip {}: site {:<24} vocabulary {:?}",
            i,
            dt.name(c.site),
            c.words
                .iter()
                .map(|&w| text.phrases()[w as usize].clone())
                .collect::<Vec<_>>()
        );
    }

    let env = QueryEnv {
        text: &text,
        pagerank: &pagerank,
        domains: &dt,
    };
    let mut rep = set.open(Scheme::SNode).expect("open");
    let out = query2(
        env,
        rep.as_mut(),
        &Q2Params {
            comics: comics.clone(),
            audience_domain: audience,
        },
    )
    .expect("query");

    println!(
        "\npopularity among {} readers (C1 + C2), most popular first:",
        dt.name(audience)
    );
    for &(idx, score) in &out.rows {
        println!(
            "  {:<24} score {}",
            dt.name(comics[idx as usize].site),
            score as u64
        );
    }
    println!(
        "\nnavigation: {} adjacency fetches over the audience domain, {:?}",
        out.nav.nav_calls, out.nav.nav_time
    );
    std::fs::remove_dir_all(&root).ok();
}
