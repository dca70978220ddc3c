//! Auxiliary repository indexes shared by every scheme.
//!
//! All structures live in the **S-Node page-id space** (the renumbering
//! every representation in this workspace adopts, mirroring §3.3's
//! repository-wide numbering): queries resolve their predicates here, then
//! navigate whichever graph representation is under test.

use std::collections::HashMap;
use wg_corpus::Corpus;
use wg_graph::pagerank::{pagerank, PageRankConfig};
use wg_graph::{Graph, PageId};
use wg_snode::Renumbering;

/// Inverted phrase index: phrase id → sorted page ids containing it.
#[derive(Debug, Clone)]
pub struct TextIndex {
    postings: Vec<Vec<PageId>>,
    phrases: Vec<String>,
}

impl TextIndex {
    /// Builds the index from a corpus, in renumbered page ids.
    pub fn build(corpus: &Corpus, renum: &Renumbering) -> Self {
        let mut postings: Vec<Vec<PageId>> = vec![Vec::new(); corpus.phrases.len()];
        for (old, set) in corpus.page_phrases.iter().enumerate() {
            let new = renum.new_of_old[old];
            for &ph in set {
                postings[ph as usize].push(new);
            }
        }
        for list in &mut postings {
            list.sort_unstable();
        }
        Self {
            postings,
            phrases: corpus.phrases.clone(),
        }
    }

    /// Pages containing phrase `ph` (sorted).
    pub fn pages_with_phrase(&self, ph: u32) -> &[PageId] {
        self.postings.get(ph as usize).map_or(&[], |v| v.as_slice())
    }

    /// The phrase vocabulary.
    pub fn phrases(&self) -> &[String] {
        &self.phrases
    }

    /// Number of postings lists.
    pub fn num_phrases(&self) -> u32 {
        self.postings.len() as u32
    }
}

/// PageRank index (normalised ranks per page, renumbered ids).
#[derive(Debug, Clone)]
pub struct PageRankIndex {
    ranks: Vec<f64>,
}

impl PageRankIndex {
    /// Computes PageRank over `graph` (old ids) and permutes into new ids.
    pub fn build(graph: &Graph, renum: &Renumbering) -> Self {
        let result = pagerank(graph, &PageRankConfig::default());
        let mut ranks = vec![0.0f64; result.ranks.len()];
        for (old, &r) in result.ranks.iter().enumerate() {
            ranks[renum.new_of_old[old] as usize] = r;
        }
        Self { ranks }
    }

    /// The rank of page `p`.
    pub fn rank(&self, p: PageId) -> f64 {
        self.ranks[p as usize]
    }

    /// All ranks (indexed by page id).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// The `k` top-ranked pages among `candidates` (descending rank, ties
    /// by ascending id).
    pub fn top_k_of(&self, candidates: &[PageId], k: usize) -> Vec<PageId> {
        let mut v: Vec<PageId> = candidates.to_vec();
        v.sort_by(|&a, &b| {
            self.ranks[b as usize]
                .partial_cmp(&self.ranks[a as usize])
                .expect("ranks finite")
                .then(a.cmp(&b))
        });
        v.truncate(k);
        v
    }
}

/// Domain metadata: page → domain, domain → pages, names, TLD lookup.
#[derive(Debug, Clone)]
pub struct DomainTable {
    domain_of: Vec<u32>,
    pages_of: Vec<Vec<PageId>>,
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl DomainTable {
    /// Builds the table from a corpus, in renumbered page ids.
    pub fn build(corpus: &Corpus, renum: &Renumbering) -> Self {
        let n = corpus.num_pages() as usize;
        let mut domain_of = vec![0u32; n];
        let mut pages_of: Vec<Vec<PageId>> = vec![Vec::new(); corpus.domains.len()];
        for (old, page) in corpus.pages.iter().enumerate() {
            let new = renum.new_of_old[old];
            domain_of[new as usize] = page.domain;
            pages_of[page.domain as usize].push(new);
        }
        for list in &mut pages_of {
            list.sort_unstable();
        }
        let by_name = corpus
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| (d.clone(), i as u32))
            .collect();
        Self {
            domain_of,
            pages_of,
            names: corpus.domains.clone(),
            by_name,
        }
    }

    /// Domain of page `p`.
    pub fn domain_of(&self, p: PageId) -> u32 {
        self.domain_of[p as usize]
    }

    /// Pages of domain `d` (sorted).
    pub fn pages_of(&self, d: u32) -> &[PageId] {
        self.pages_of.get(d as usize).map_or(&[], |v| v.as_slice())
    }

    /// Domain name.
    pub fn name(&self, d: u32) -> &str {
        &self.names[d as usize]
    }

    /// Number of domains.
    pub fn num_domains(&self) -> u32 {
        self.names.len() as u32
    }

    /// Domain id by exact name.
    pub fn id_by_name(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Domains whose name ends with `.{tld}`.
    pub fn domains_with_tld(&self, tld: &str) -> Vec<u32> {
        let suffix = format!(".{tld}");
        (0..self.num_domains())
            .filter(|&d| self.names[d as usize].ends_with(&suffix))
            .collect()
    }

    /// Intersects a sorted page list with a domain (both sorted).
    pub fn filter_to_domain(&self, pages: &[PageId], d: u32) -> Vec<PageId> {
        pages
            .iter()
            .copied()
            .filter(|&p| self.domain_of(p) == d)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_corpus::CorpusConfig;
    use wg_snode::{build_snode, RepoInput, SNodeConfig};

    /// `name` keeps concurrently running tests out of each other's
    /// directory: a build removes the index files it finds there.
    fn setup(name: &str) -> (Corpus, Renumbering, std::path::PathBuf) {
        let corpus = Corpus::generate(CorpusConfig::scaled(800, 3));
        let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
        let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
        let mut dir = std::env::temp_dir();
        dir.push(format!("wg_query_idx_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = RepoInput {
            urls: &urls,
            domains: &domains,
            graph: &corpus.graph,
        };
        let (_s, renum) = build_snode(input, &SNodeConfig::default(), &dir).unwrap();
        (corpus, renum, dir)
    }

    #[test]
    fn text_index_matches_corpus_membership() {
        let (corpus, renum, dir) = setup("text");
        let idx = TextIndex::build(&corpus, &renum);
        for ph in (0..corpus.phrases.len() as u32).step_by(7) {
            let pages = idx.pages_with_phrase(ph);
            assert!(pages.windows(2).all(|w| w[0] < w[1]), "sorted postings");
            for &new in pages {
                let old = renum.old_of_new[new as usize];
                assert!(corpus.page_has_phrase(old, ph));
            }
            // Count agreement.
            let expect = (0..corpus.num_pages())
                .filter(|&old| corpus.page_has_phrase(old, ph))
                .count();
            assert_eq!(pages.len(), expect);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn domain_table_round_trips() {
        let (corpus, renum, dir) = setup("domains");
        let dt = DomainTable::build(&corpus, &renum);
        assert_eq!(dt.num_domains(), corpus.domains.len() as u32);
        let mut covered = 0usize;
        for d in 0..dt.num_domains() {
            for &p in dt.pages_of(d) {
                assert_eq!(dt.domain_of(p), d);
                covered += 1;
            }
            assert_eq!(dt.id_by_name(dt.name(d)), Some(d));
        }
        assert_eq!(covered, corpus.num_pages() as usize);
        assert!(!dt.domains_with_tld("edu").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pagerank_index_is_permuted_correctly() {
        let (corpus, renum, dir) = setup("pagerank");
        let pr = PageRankIndex::build(&corpus.graph, &renum);
        let direct = pagerank(&corpus.graph, &PageRankConfig::default());
        for old in (0..corpus.num_pages()).step_by(97) {
            let new = renum.new_of_old[old as usize];
            assert!((pr.rank(new) - direct.ranks[old as usize]).abs() < 1e-15);
        }
        let sum: f64 = pr.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn top_k_of_ranks_descending() {
        let pr = PageRankIndex {
            ranks: vec![0.1, 0.5, 0.2, 0.2],
        };
        assert_eq!(pr.top_k_of(&[0, 1, 2, 3], 2), vec![1, 2]);
        assert_eq!(pr.top_k_of(&[3, 0], 5), vec![3, 0]);
    }
}
