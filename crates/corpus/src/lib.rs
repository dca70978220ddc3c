//! Synthetic Web-corpus generator — the workspace's stand-in for the
//! Stanford WebBase crawl used in the paper's evaluation.
//!
//! The ICDE'03 experiments run over 25–115 million crawled pages. That crawl
//! is not available, so this crate generates corpora that reproduce the
//! three empirical observations the S-Node construction exploits (§3 of the
//! paper), which are what make its compression and query numbers come out
//! the way they do:
//!
//! 1. **Link copying** — new pages copy a fraction of an existing page's
//!    adjacency list (the Kumar et al. evolving copying model), creating
//!    clusters of pages with near-identical out-links.
//! 2. **Domain and URL locality** — ≈75 % of links stay on the source host
//!    (Suel & Yuan's measurement, quoted in the paper), and intra-host links
//!    prefer lexicographically nearby URLs.
//! 3. **Page similarity** — a consequence of 1: topically related pages
//!    share adjacency-list structure.
//!
//! Pages live in a generated DNS/URL hierarchy (domains → hosts → directory
//! trees → pages) and carry phrase sets so the query layer can evaluate
//! text predicates ("pages in stanford.edu containing *Mobile networking*").
//!
//! There is one generator, [`stream`]: three phases over one seeded RNG
//! that either write the text format straight to disk
//! ([`stream::stream_corpus`], bounded memory at a million pages) or
//! collect a [`Corpus`] ([`Corpus::generate`]). [`textio`] reads and
//! writes the text format, so a corpus can also come from any other tool.
//! Everything is deterministic given [`CorpusConfig::seed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod names;
pub mod stream;
pub mod textio;

use wg_graph::{Graph, PageId};

/// Identifier of a generated domain (index into [`Corpus::domains`]).
pub type DomainId = u32;
/// Identifier of a generated host (index into [`Corpus::hosts`]).
pub type HostId = u32;
/// Identifier of a generated phrase (index into [`Corpus::phrases`]).
pub type PhraseId = u32;

/// Tuning knobs for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of pages to generate.
    pub num_pages: u32,
    /// RNG seed; equal configs produce identical corpora.
    pub seed: u64,
    /// Target mean out-degree. The paper measured 14 on WebBase.
    pub mean_out_degree: f64,
    /// Fraction of links that stay on the source host (paper quotes ~0.75).
    pub intra_host_fraction: f64,
    /// Probability that a page is built by copying a prototype's links.
    pub copy_page_probability: f64,
    /// Per-link probability of keeping a prototype link when copying.
    pub copy_link_probability: f64,
    /// Number of second-level domains.
    pub num_domains: u32,
    /// Mean hosts per domain (host counts are geometric, min 1).
    pub hosts_per_domain_mean: f64,
    /// Maximum URL directory depth below the host root.
    pub max_path_depth: u32,
    /// Size of the phrase vocabulary.
    pub num_phrases: u32,
    /// Mean number of phrases attached to a page.
    pub phrases_per_page_mean: f64,
}

impl CorpusConfig {
    /// A configuration scaled sensibly for `num_pages` pages.
    ///
    /// The domain count grows **sub-linearly** (`≈ 4·pages^0.4`): a
    /// breadth-first crawl keeps returning to large popular sites, so new
    /// domains accrue ever more slowly — which is exactly what makes the
    /// paper's supernode counts grow sub-linearly in Figure 9 (the data
    /// sets are successive prefixes of one crawl, §4). WebBase crawled
    /// large sites deeply: domains average hundreds of pages.
    pub fn scaled(num_pages: u32, seed: u64) -> Self {
        let domains = (4.0 * f64::from(num_pages).powf(0.4)) as u32;
        Self {
            num_pages,
            seed,
            mean_out_degree: 14.0,
            intra_host_fraction: 0.75,
            copy_page_probability: 0.6,
            copy_link_probability: 0.8,
            num_domains: domains.clamp(4, 200_000),
            hosts_per_domain_mean: 3.0,
            max_path_depth: 4,
            num_phrases: (num_pages / 50).clamp(16, 1_000_000),
            phrases_per_page_mean: 6.0,
        }
    }
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self::scaled(10_000, 42)
    }
}

/// A generated host: `name.domain` (e.g. `cs.stanford.edu`).
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Fully-qualified host name, e.g. `"cs.stanford.edu"`.
    pub name: String,
    /// The owning domain.
    pub domain: DomainId,
    /// Pages on this host, in **lexicographic URL order**.
    pub pages_by_url: Vec<PageId>,
}

/// Per-page metadata.
#[derive(Debug, Clone)]
pub struct PageMeta {
    /// Full URL, e.g. `"http://cs.stanford.edu/students/grad/page0042.html"`.
    pub url: String,
    /// Owning host.
    pub host: HostId,
    /// Owning domain (denormalised from the host for fast predicates).
    pub domain: DomainId,
}

/// A complete synthetic repository: URL hierarchy, link graph, and phrase
/// assignments.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Domain names, e.g. `"stanford.edu"`. Indexed by [`DomainId`].
    pub domains: Vec<String>,
    /// Hosts. Indexed by [`HostId`].
    pub hosts: Vec<HostInfo>,
    /// Per-page metadata. Indexed by [`PageId`].
    pub pages: Vec<PageMeta>,
    /// The Web graph WG over the pages.
    pub graph: Graph,
    /// Phrase vocabulary (synthetic two-word phrases).
    pub phrases: Vec<String>,
    /// Sorted phrase ids per page.
    pub page_phrases: Vec<Vec<PhraseId>>,
}

impl Corpus {
    /// Generates a corpus from `config`: the generator's three phases
    /// ([`stream`]) collected in memory.
    pub fn generate(config: CorpusConfig) -> Self {
        stream::collect_corpus(&config)
    }

    /// Number of pages.
    pub fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// All pages in the given domain (ascending page id).
    pub fn pages_in_domain(&self, domain: DomainId) -> Vec<PageId> {
        (0..self.num_pages())
            .filter(|&p| self.pages[p as usize].domain == domain)
            .collect()
    }

    /// Looks up a domain id by name.
    pub fn domain_by_name(&self, name: &str) -> Option<DomainId> {
        self.domains
            .iter()
            .position(|d| d == name)
            .map(|i| i as DomainId)
    }

    /// Whether page `p` carries phrase `ph`.
    pub fn page_has_phrase(&self, p: PageId, ph: PhraseId) -> bool {
        self.page_phrases[p as usize].binary_search(&ph).is_ok()
    }

    /// Domains with TLD `tld` (e.g. `"edu"`).
    pub fn domains_with_tld(&self, tld: &str) -> Vec<DomainId> {
        let suffix = format!(".{tld}");
        self.domains
            .iter()
            .enumerate()
            .filter(|(_, d)| d.ends_with(&suffix))
            .map(|(i, _)| i as DomainId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(CorpusConfig::scaled(2_000, 7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.domains, b.domains);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.page_phrases, b.page_phrases);
        assert_eq!(
            a.pages.iter().map(|p| &p.url).collect::<Vec<_>>(),
            b.pages.iter().map(|p| &p.url).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(CorpusConfig::scaled(2_000, 7));
        let b = Corpus::generate(CorpusConfig::scaled(2_000, 8));
        assert_ne!(a.graph, b.graph);
    }

    #[test]
    fn page_count_matches_config() {
        let c = small();
        assert_eq!(c.num_pages(), 2_000);
        assert_eq!(c.pages.len(), 2_000);
        assert_eq!(c.page_phrases.len(), 2_000);
        assert_eq!(c.graph.num_nodes(), 2_000);
    }

    #[test]
    fn urls_are_unique_and_well_formed() {
        let c = small();
        let mut urls: Vec<&str> = c.pages.iter().map(|p| p.url.as_str()).collect();
        urls.sort_unstable();
        let before = urls.len();
        urls.dedup();
        assert_eq!(before, urls.len(), "URLs must be unique");
        for p in &c.pages {
            assert!(p.url.starts_with("http://"), "bad url {}", p.url);
            let host = &c.hosts[p.host as usize];
            assert!(
                p.url["http://".len()..].starts_with(&host.name),
                "url {} not under host {}",
                p.url,
                host.name
            );
            assert!(host.name.ends_with(&c.domains[p.domain as usize]));
        }
    }

    #[test]
    fn hosts_pages_by_url_is_lexicographic_and_complete() {
        let c = small();
        let mut seen = 0u32;
        for h in &c.hosts {
            for w in h.pages_by_url.windows(2) {
                assert!(
                    c.pages[w[0] as usize].url < c.pages[w[1] as usize].url,
                    "host page list must be URL-sorted"
                );
            }
            for &p in &h.pages_by_url {
                assert_eq!(c.hosts[c.pages[p as usize].host as usize].name, h.name);
                seen += 1;
            }
        }
        assert_eq!(seen, c.num_pages(), "every page belongs to one host list");
    }

    #[test]
    fn phrases_are_sorted_unique_and_in_range() {
        let c = small();
        for set in &c.page_phrases {
            assert!(set.windows(2).all(|w| w[0] < w[1]));
            assert!(set.iter().all(|&p| (p as usize) < c.phrases.len()));
        }
    }

    #[test]
    fn some_edu_domains_exist() {
        let c = small();
        assert!(
            !c.domains_with_tld("edu").is_empty(),
            "queries need .edu domains"
        );
    }

    #[test]
    fn domain_lookup_round_trips() {
        let c = small();
        for (i, name) in c.domains.iter().enumerate() {
            assert_eq!(c.domain_by_name(name), Some(i as DomainId));
        }
        assert_eq!(c.domain_by_name("no.such.domain"), None);
    }

    #[test]
    fn pages_in_domain_is_consistent() {
        let c = small();
        let d = c.pages[0].domain;
        let pages = c.pages_in_domain(d);
        assert!(pages.contains(&0));
        for &p in &pages {
            assert_eq!(c.pages[p as usize].domain, d);
        }
    }
}
