//! The corpus generator: the copying model over a DNS/URL hierarchy, in
//! three phases that draw from one seeded RNG — the URL universe, the
//! links, the phrases.
//!
//! Each phase hands what it draws to a sink as it draws it, and there are
//! two sinks: [`stream_corpus`] writes the text format (`urls.txt`,
//! `domains.txt`, `edges.txt`, `phrases.txt`) straight to disk, and
//! [`Corpus::generate`] collects a [`Corpus`] in memory. Between phases
//! the generator holds only the compact state the copying model needs:
//!
//! * per page: its host id and its URL rank within the host, never the
//!   URL string;
//! * per host: its name, domain and URL-sorted page list, plus the
//!   directory-tree strings until the ranks are computed;
//! * for link generation: a flat adjacency arena of `O(edges)` ids — the
//!   copying model's prototypes are inherently the whole history — plus
//!   the preferential-attachment pool.
//!
//! So a million pages stream to disk in bounded memory, and because both
//! sinks see the same draws, `write_corpus(dir, &Corpus::generate(config))`
//! writes the same bytes as `stream_corpus(dir, &config)`.

use crate::names::{self, DIR_WORDS, DOMAIN_WORDS, HOST_WORDS, TLDS};
use crate::textio::TextIoError;
use crate::{Corpus, CorpusConfig, DomainId, HostId, HostInfo, PageMeta, PhraseId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use wg_graph::{GraphBuilder, PageId};

/// Summary counts from a streamed generation (the data itself is on disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Pages generated.
    pub num_pages: u32,
    /// Edges written to `edges.txt`.
    pub num_edges: u64,
    /// Domains generated.
    pub num_domains: u32,
    /// Hosts generated.
    pub num_hosts: u32,
}

/// Where the generator puts what it draws, in the order it draws it.
trait Sink {
    /// What a write can fail with.
    type Error;
    /// The domain names in id order, before any page.
    fn domains(&mut self, names: Vec<String>) -> Result<(), Self::Error>;
    /// The next page in id order.
    fn page(
        &mut self,
        url: fmt::Arguments<'_>,
        host: HostId,
        domain: DomainId,
    ) -> Result<(), Self::Error>;
    /// Page `v`'s targets, ascending, for ascending `v`.
    fn links(&mut self, v: PageId, targets: &[PageId]) -> Result<(), Self::Error>;
    /// The phrase vocabulary in id order, before any phrase set.
    fn vocabulary(&mut self, phrases: impl Iterator<Item = String>) -> Result<(), Self::Error>;
    /// The next page's phrase ids, ascending and distinct.
    fn phrase_set(&mut self, set: Vec<PhraseId>) -> Result<(), Self::Error>;
}

/// The text format's four files, each written line by line as its phase
/// draws it.
struct TextSink {
    urls: BufWriter<File>,
    domains: BufWriter<File>,
    edges: BufWriter<File>,
    phrases: BufWriter<File>,
}

impl TextSink {
    fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let file = |name: &str| File::create(dir.join(name)).map(BufWriter::new);
        Ok(TextSink {
            urls: file("urls.txt")?,
            domains: file("domains.txt")?,
            edges: file("edges.txt")?,
            phrases: file("phrases.txt")?,
        })
    }

    fn finish(mut self) -> io::Result<()> {
        self.urls.flush()?;
        self.domains.flush()?;
        self.edges.flush()?;
        self.phrases.flush()
    }
}

impl Sink for TextSink {
    type Error = io::Error;

    fn domains(&mut self, names: Vec<String>) -> io::Result<()> {
        for name in names {
            writeln!(self.domains, "{name}")?;
        }
        writeln!(self.domains, "--")
    }

    fn page(&mut self, url: fmt::Arguments<'_>, _: HostId, domain: DomainId) -> io::Result<()> {
        writeln!(self.urls, "{url}")?;
        writeln!(self.domains, "{domain}")
    }

    fn links(&mut self, v: PageId, targets: &[PageId]) -> io::Result<()> {
        for t in targets {
            writeln!(self.edges, "{v} {t}")?;
        }
        Ok(())
    }

    fn vocabulary(&mut self, phrases: impl Iterator<Item = String>) -> io::Result<()> {
        for phrase in phrases {
            writeln!(self.phrases, "{phrase}")?;
        }
        writeln!(self.phrases, "--")
    }

    fn phrase_set(&mut self, set: Vec<PhraseId>) -> io::Result<()> {
        for (i, p) in set.iter().enumerate() {
            if i > 0 {
                self.phrases.write_all(b" ")?;
            }
            write!(self.phrases, "{p}")?;
        }
        writeln!(self.phrases)
    }
}

/// A [`Corpus`] collected field by field.
struct MemorySink {
    domains: Vec<String>,
    pages: Vec<PageMeta>,
    graph: GraphBuilder,
    phrases: Vec<String>,
    page_phrases: Vec<Vec<PhraseId>>,
}

impl MemorySink {
    fn new(config: &CorpusConfig) -> Self {
        let n = config.num_pages;
        let edges = (f64::from(n) * config.mean_out_degree) as usize + 16;
        MemorySink {
            domains: Vec::new(),
            pages: Vec::with_capacity(n as usize),
            graph: GraphBuilder::with_edge_capacity(n, edges),
            phrases: Vec::new(),
            page_phrases: Vec::with_capacity(n as usize),
        }
    }
}

impl Sink for MemorySink {
    type Error = Infallible;

    fn domains(&mut self, names: Vec<String>) -> Result<(), Infallible> {
        self.domains = names;
        Ok(())
    }

    fn page(
        &mut self,
        url: fmt::Arguments<'_>,
        host: HostId,
        domain: DomainId,
    ) -> Result<(), Infallible> {
        let url = url.to_string();
        self.pages.push(PageMeta { url, host, domain });
        Ok(())
    }

    fn links(&mut self, v: PageId, targets: &[PageId]) -> Result<(), Infallible> {
        for &t in targets {
            self.graph.add_edge(v, t);
        }
        Ok(())
    }

    fn vocabulary(&mut self, phrases: impl Iterator<Item = String>) -> Result<(), Infallible> {
        self.phrases = phrases.collect();
        Ok(())
    }

    fn phrase_set(&mut self, set: Vec<PhraseId>) -> Result<(), Infallible> {
        self.page_phrases.push(set);
        Ok(())
    }
}

/// Generates the corpus for `config` directly into `dir` as the standard
/// text format (`urls.txt`, `domains.txt`, `edges.txt`, `phrases.txt`).
pub fn stream_corpus(dir: &Path, config: &CorpusConfig) -> Result<StreamStats, TextIoError> {
    let mut sink = TextSink::create(dir)?;
    let (stats, _hosts) = generate(config, &mut sink)?;
    sink.finish()?;
    Ok(stats)
}

/// The corpus for `config`, in memory: what [`Corpus::generate`] returns.
pub(crate) fn collect_corpus(config: &CorpusConfig) -> Corpus {
    let mut sink = MemorySink::new(config);
    let Ok((_, hosts)) = generate(config, &mut sink);
    Corpus {
        domains: sink.domains,
        hosts,
        pages: sink.pages,
        graph: sink.graph.build(),
        phrases: sink.phrases,
        page_phrases: sink.page_phrases,
    }
}

/// Writes `c` through the text sink, as `textio::write_corpus`.
pub(crate) fn write_text(dir: &Path, c: &Corpus) -> io::Result<()> {
    let mut sink = TextSink::create(dir)?;
    sink.domains(c.domains.clone())?;
    for p in &c.pages {
        sink.page(format_args!("{}", p.url), p.host, p.domain)?;
    }
    for v in 0..c.graph.num_nodes() {
        sink.links(v, c.graph.neighbors(v))?;
    }
    sink.vocabulary(c.phrases.iter().cloned())?;
    for set in &c.page_phrases {
        sink.phrase_set(set.clone())?;
    }
    sink.finish()
}

/// Runs the three phases for `config` into `sink`, and returns the host
/// table in id order, hosts without a page included: the files hold none,
/// as a reader derives the hosts that own pages from the URLs.
fn generate<S: Sink>(
    config: &CorpusConfig,
    sink: &mut S,
) -> Result<(StreamStats, Vec<HostInfo>), S::Error> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let universe = stream_universe(config, &mut rng, sink)?;
    let num_edges = stream_links(config, &universe, &mut rng, sink)?;

    // Link-phase state (the adjacency arena, the PA pool) died with the
    // phase; the phrase phase only needs each page's domain, by its host.
    let StreamedUniverse {
        num_domains,
        hosts,
        page_host,
        ..
    } = universe;
    let page_domains = page_host.iter().map(|&h| hosts[h as usize].domain);
    stream_phrases(config, num_domains, page_domains, &mut rng, sink)?;
    let stats = StreamStats {
        num_pages: page_host.len() as u32,
        num_edges,
        num_domains,
        num_hosts: hosts.len() as u32,
    };
    Ok((stats, hosts))
}

/// Cross-phase state: what link and phrase generation need from the URL
/// universe, with no page's URL string.
struct StreamedUniverse {
    num_domains: u32,
    /// The host table, each host's pages in lexicographic URL order.
    hosts: Vec<HostInfo>,
    page_host: Vec<HostId>,
    /// Per page, its rank within its host's URL-sorted list.
    url_rank_in_host: Vec<u32>,
}

/// Phase 0, the URL universe: domain names, host names, directory trees,
/// page URLs.
///
/// Domain sizes are Zipfian (a few yahoo.com-scale giants, a long tail of
/// tiny sites), matching the skew the paper leans on when it notes that
/// "supernodes containing pages from popular domains … will have much
/// higher in-degree" (§3.3, footnote 8). Directory trees grow by
/// preferential attachment so that real-looking shared prefixes emerge,
/// which is what URL split (§3.2) exploits.
///
/// The RNG draws domain names, then host counts, then the crawl
/// interleaving order, then each page's host and directory.
fn stream_universe<S: Sink>(
    config: &CorpusConfig,
    rng: &mut SmallRng,
    sink: &mut S,
) -> Result<StreamedUniverse, S::Error> {
    let n = config.num_pages;
    let ndom = config.num_domains.max(1);

    // --- Domains -----------------------------------------------------------
    let mut domains = Vec::with_capacity(ndom as usize);
    let mut used = std::collections::HashSet::new();
    let tld_total: u32 = TLDS.iter().map(|&(_, w)| w).sum();
    for i in 0..ndom {
        // Guarantee the first few domains cover every TLD so predicates like
        // ".edu" always have targets even in tiny corpora.
        let tld = if (i as usize) < TLDS.len() {
            TLDS[i as usize].0
        } else {
            let mut x = rng.gen_range(0..tld_total);
            let mut pick = TLDS[0].0;
            for &(t, w) in TLDS {
                if x < w {
                    pick = t;
                    break;
                }
                x -= w;
            }
            pick
        };
        // Base word plus a disambiguating suffix when exhausted.
        let base = DOMAIN_WORDS[rng.gen_range(0..DOMAIN_WORDS.len())];
        let mut name = format!("{base}.{tld}");
        let mut counter = 2;
        while !used.insert(name.clone()) {
            name = format!("{base}{counter}.{tld}");
            counter += 1;
        }
        domains.push(name);
    }

    // Zipf page allocation across domains: weight 1/(rank+1), every domain
    // getting at least one page when possible.
    let weights: Vec<f64> = (0..ndom).map(|i| 1.0 / (f64::from(i) + 1.0)).collect();
    let wsum: f64 = weights.iter().sum();
    let mut domain_pages = vec![0u32; ndom as usize];
    let mut assigned = 0u32;
    for (i, &w) in weights.iter().enumerate() {
        let share = ((w / wsum) * f64::from(n)) as u32;
        let share = share.max(1).min(n - assigned);
        domain_pages[i] = share;
        assigned += share;
        if assigned == n {
            break;
        }
    }
    // Distribute any remainder to the largest domains (first ranks).
    let mut i = 0usize;
    while assigned < n {
        domain_pages[i % ndom as usize] += 1;
        assigned += 1;
        i += 1;
    }

    // --- Hosts -------------------------------------------------------------
    let mut hosts: Vec<HostInfo> = Vec::new();
    let mut host_of_domain: Vec<Vec<HostId>> = vec![Vec::new(); ndom as usize];
    for (d, name) in domains.iter().enumerate() {
        // Geometric host count with the configured mean, at least 1, capped
        // by the pages available.
        let p_stop = 1.0 / config.hosts_per_domain_mean;
        let mut count = 1u32;
        while rng.gen::<f64>() >= p_stop && count < 12 {
            count += 1;
        }
        let count = count.min(domain_pages[d].max(1));
        for h in 0..count {
            let label = HOST_WORDS[h as usize % HOST_WORDS.len()];
            host_of_domain[d].push(hosts.len() as HostId);
            hosts.push(HostInfo {
                name: format!("{label}.{name}"),
                domain: d as DomainId,
                pages_by_url: Vec::new(),
            });
        }
    }
    sink.domains(domains)?;

    // --- Pages -------------------------------------------------------------
    // Each domain's pages are split across its hosts (first host, typically
    // `www`, gets the biggest share), and each host grows a directory tree by
    // preferential attachment.
    struct HostState {
        /// Existing directories as path prefixes: index 0 is the root
        /// `""`, the others end in `/`.
        dirs: Vec<String>,
        /// Attachment weight per directory (children spawn near busy dirs).
        dir_pages: Vec<u32>,
        next_page_number: u32,
    }
    let mut host_state: Vec<HostState> = hosts
        .iter()
        .map(|_| HostState {
            dirs: vec![String::new()],
            dir_pages: vec![0],
            next_page_number: 0,
        })
        .collect();

    // Interleave page creation across domains the way a crawl frontier does:
    // round-robin weighted by remaining quota. The full order is drawn
    // before any page exists.
    let mut remaining: Vec<u32> = domain_pages.clone();
    let mut order: Vec<DomainId> = Vec::with_capacity(n as usize);
    let mut live: Vec<DomainId> = (0..ndom).filter(|&d| remaining[d as usize] > 0).collect();
    while !live.is_empty() {
        let idx = rng.gen_range(0..live.len());
        let d = live[idx];
        order.push(d);
        remaining[d as usize] -= 1;
        if remaining[d as usize] == 0 {
            live.swap_remove(idx);
        }
    }

    let mut page_host: Vec<HostId> = Vec::with_capacity(n as usize);
    // Transient per-page (directory, number) pair — the whole URL, given
    // the host, without storing the string.
    let mut page_dir: Vec<u32> = Vec::with_capacity(n as usize);
    let mut page_number: Vec<u32> = Vec::with_capacity(n as usize);

    for d in order {
        let hs = &host_of_domain[d as usize];
        // Zipf-ish host choice within the domain: first host favoured.
        let hidx = if hs.len() == 1 {
            0
        } else {
            let r: f64 = rng.gen();
            ((r * r) * hs.len() as f64) as usize
        };
        let host_id = hs[hidx.min(hs.len() - 1)];
        let st = &mut host_state[host_id as usize];

        // Choose a directory. Content pages overwhelmingly live in
        // subdirectories on real sites (the root holds index pages), so:
        // grow a child immediately while the tree is trivial, otherwise
        // mostly attach to an existing non-root directory by popularity,
        // occasionally spawn a new child.
        let spawn = st.dirs.len() == 1 || rng.gen::<f64>() < 0.03;
        let dir_idx = if !spawn {
            // Preferential attachment over existing dirs (+1 smoothing);
            // the root's weight is clamped so it stops hoarding pages once
            // real directories exist.
            let w = |i: usize, c: u32| -> u32 {
                if i == 0 && st.dirs.len() > 1 {
                    1
                } else {
                    c + 1
                }
            };
            let total: u32 = st.dir_pages.iter().enumerate().map(|(i, &c)| w(i, c)).sum();
            let mut x = rng.gen_range(0..total);
            let mut pick = 0usize;
            for (i, &c) in st.dir_pages.iter().enumerate() {
                if x < w(i, c) {
                    pick = i;
                    break;
                }
                x -= w(i, c);
            }
            pick
        } else {
            // Spawn a child of a random existing directory within depth cap.
            let parent = rng.gen_range(0..st.dirs.len());
            let depth = st.dirs[parent].matches('/').count() as u32;
            if depth >= config.max_path_depth {
                parent
            } else {
                let word = DIR_WORDS[rng.gen_range(0..DIR_WORDS.len())];
                let path = format!("{}{word}/", st.dirs[parent]);
                // Reuse an identical path if it already exists.
                if let Some(existing) = st.dirs.iter().position(|p| p == &path) {
                    existing
                } else {
                    st.dirs.push(path);
                    st.dir_pages.push(0);
                    st.dirs.len() - 1
                }
            }
        };
        st.dir_pages[dir_idx] += 1;
        let number = st.next_page_number;
        st.next_page_number += 1;
        let (host, dir) = (&hosts[host_id as usize].name, &st.dirs[dir_idx]);
        sink.page(
            format_args!("http://{host}/{dir}page{number:06}.html"),
            host_id,
            d,
        )?;
        page_host.push(host_id);
        page_dir.push(dir_idx as u32);
        page_number.push(number);
    }

    // --- Host page lists in URL order + per-page rank ----------------------
    // Within one host every URL shares the `http://host/` prefix, so URL
    // order is path order. Paths are materialised transiently per host for
    // the comparison (zero-padded page numbers are *not* numeric order
    // once a host crosses 10^6 pages, so compare real strings).
    for (pid, &h) in page_host.iter().enumerate() {
        hosts[h as usize].pages_by_url.push(pid as PageId);
    }
    let mut url_rank_in_host = vec![0u32; page_host.len()];
    for (host, st) in hosts.iter_mut().zip(&host_state) {
        host.pages_by_url.sort_by_cached_key(|&p| {
            let dir = &st.dirs[page_dir[p as usize] as usize];
            let number = page_number[p as usize];
            format!("{dir}page{number:06}.html")
        });
        for (rank, &p) in host.pages_by_url.iter().enumerate() {
            url_rank_in_host[p as usize] = rank as u32;
        }
    }

    Ok(StreamedUniverse {
        num_domains: ndom,
        hosts,
        page_host,
        url_rank_in_host,
    })
}

/// Phase 1, the links: the evolving copying model with host locality.
///
/// Pages are processed in creation (crawl) order. Each page draws an
/// out-degree from a shifted-geometric distribution around the configured
/// mean, then fills its adjacency list from three sources:
///
/// * **Copied links** — with probability `copy_page_probability` the page
///   picks a *prototype*: an already-processed page on the same host (or
///   any processed page when the host has none), and keeps each prototype
///   link with probability `copy_link_probability`. This is the Kumar et
///   al. copying step and yields clusters of near-identical adjacency
///   lists — Observation 1 of the paper.
/// * **Host-local links** — remaining slots are filled intra-host with
///   probability `intra_host_fraction`, targeting pages whose URL rank is
///   geometrically close to the source's (Observation 2: lexicographic
///   locality).
/// * **Global links** — the rest go to arbitrary pages via preferential
///   attachment (append-to-pool sampling), producing the heavy-tailed
///   in-degree distribution Huffman-by-in-degree coding relies on.
///
/// Each page's targets reach the sink sorted and deduplicated, for
/// ascending sources: the order `Graph::edges()` yields. The adjacency
/// lives in a flat arena (`O(edges)` ids, no per-page `Vec` headers): the
/// copying model needs the full history as prototype material, so this
/// is the floor for faithful generation. Returns the number of edges.
fn stream_links<S: Sink>(
    config: &CorpusConfig,
    u: &StreamedUniverse,
    rng: &mut SmallRng,
    sink: &mut S,
) -> Result<u64, S::Error> {
    let n = u.page_host.len() as u32;
    if n == 0 {
        return Ok(0);
    }

    let mut adj_data: Vec<PageId> =
        Vec::with_capacity((f64::from(n) * config.mean_out_degree) as usize + 16);
    let mut adj_off: Vec<usize> = Vec::with_capacity(n as usize + 1);
    adj_off.push(0);

    // Processed pages per host, for prototype choice.
    let mut processed_in_host: Vec<Vec<PageId>> = vec![Vec::new(); u.hosts.len()];
    // Preferential-attachment pool: every link target is appended, so a
    // uniform draw from the pool is proportional to in-degree (+ the seed
    // entries giving newcomers a chance).
    let mut pa_pool: Vec<PageId> = Vec::with_capacity(n as usize * 4);
    // Per-host *link profiles*. Real pages do not each invent their own
    // external links: they copy a template or an existing page (paper §3,
    // Observation 1 — link copying — and the Kumar et al. model). Each
    // host therefore carries a handful of profiles (shared sets of external
    // targets: a blogroll, a template footer, a department link list), and
    // each page adopts one. Pages sharing a profile have near-identical
    // external adjacency — exactly the "clusters of pages with very similar
    // adjacency lists" S-Node's clustered split and reference encoding
    // exploit.
    let mut host_profiles: Vec<Vec<Vec<PageId>>> = vec![Vec::new(); u.hosts.len()];
    const PROFILES_PER_HOST: usize = 3;
    const PROFILE_MAX: usize = 6;

    // Shifted geometric out-degree: d = 1 + Geom(p), mean = 1 + (1-p)/p.
    let p_geom = 1.0 / config.mean_out_degree.max(1.0);

    for v in 0..n {
        let host = u.page_host[v as usize];
        let host_pages = &u.hosts[host as usize].pages_by_url;
        let my_rank = u.url_rank_in_host[v as usize] as i64;

        let mut degree = 1u32;
        while rng.gen::<f64>() >= p_geom && degree < 300 {
            degree += 1;
        }
        // A page cannot link to more distinct pages than exist (minus itself).
        let degree = degree.min(n - 1);

        let mut targets: Vec<PageId> = Vec::with_capacity(degree as usize);

        // 1. Copying step: the prototype's list is a slice of the arena.
        if rng.gen::<f64>() < config.copy_page_probability {
            let proto = if !processed_in_host[host as usize].is_empty() && rng.gen::<f64>() < 0.9 {
                let list = &processed_in_host[host as usize];
                Some(list[rng.gen_range(0..list.len())])
            } else if v > 0 {
                Some(rng.gen_range(0..v))
            } else {
                None
            };
            if let Some(p) = proto {
                let (lo, hi) = (adj_off[p as usize], adj_off[p as usize + 1]);
                for &t in &adj_data[lo..hi] {
                    if t != v && rng.gen::<f64>() < config.copy_link_probability {
                        targets.push(t);
                    }
                }
            }
        }

        // Adopt a link profile for this page's external links.
        let profile_idx = {
            let profiles = &mut host_profiles[host as usize];
            if profiles.is_empty()
                || (profiles.len() < PROFILES_PER_HOST && rng.gen::<f64>() < 0.15)
            {
                profiles.push(Vec::new());
                profiles.len() - 1
            } else {
                // Zipf-ish: earlier (template) profiles dominate.
                let r: f64 = rng.gen();
                ((r * r) * profiles.len() as f64) as usize % profiles.len()
            }
        };

        // 2. Fill remaining slots.
        let mut attempts = 0u32;
        while (targets.len() as u32) < degree && attempts < degree * 8 {
            attempts += 1;
            let t = if rng.gen::<f64>() < config.intra_host_fraction && host_pages.len() > 1 {
                if rng.gen::<f64>() < 0.85 {
                    // Site-template link: every page of a host links to the
                    // same handful of navigation/index pages (the first few
                    // in URL order). This shared structure is what makes
                    // same-host adjacency lists similar on the real Web.
                    let nav = host_pages.len().min(6);
                    host_pages[rng.gen_range(0..nav)]
                } else {
                    // Host-local, lexicographically nearby: offset ~ ±Geom.
                    let mut off = 1i64;
                    while rng.gen::<f64>() < 0.7 && off < host_pages.len() as i64 {
                        off += 1;
                    }
                    let off = if rng.gen::<bool>() { off } else { -off };
                    let rank = (my_rank + off).rem_euclid(host_pages.len() as i64);
                    host_pages[rank as usize]
                }
            } else {
                // External link from the page's adopted profile; profiles
                // grow lazily from preferential-attachment picks.
                let profile = &mut host_profiles[host as usize][profile_idx];
                if !profile.is_empty() && (profile.len() >= PROFILE_MAX || rng.gen::<f64>() < 0.9) {
                    profile[rng.gen_range(0..profile.len())]
                } else {
                    let fresh = if !pa_pool.is_empty() && rng.gen::<f64>() < 0.7 {
                        // Preferential attachment.
                        pa_pool[rng.gen_range(0..pa_pool.len())]
                    } else {
                        // Uniform fallback.
                        rng.gen_range(0..n)
                    };
                    profile.push(fresh);
                    fresh
                }
            };
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }

        targets.sort_unstable();
        targets.dedup();
        targets.truncate(degree as usize);
        sink.links(v, &targets)?;
        pa_pool.extend_from_slice(&targets);
        adj_data.extend_from_slice(&targets);
        adj_off.push(adj_data.len());
        processed_in_host[host as usize].push(v);
    }

    Ok(adj_data.len() as u64)
}

/// Phase 2, the phrases: each phrase gets a Zipfian base popularity and a
/// small set of "home" domains where it is an order of magnitude more
/// likely — this produces the focused phrase-in-domain page sets the
/// paper's queries select on. Only each page's domain id is consulted, so
/// the phase holds `O(phrases)` state.
fn stream_phrases<S: Sink>(
    config: &CorpusConfig,
    num_domains: u32,
    page_domains: impl Iterator<Item = DomainId>,
    rng: &mut SmallRng,
    sink: &mut S,
) -> Result<(), S::Error> {
    let nph = config.num_phrases as usize;
    sink.vocabulary((0..nph).map(|i| names::phrase_text(i as u32)))?;

    // Home domains: 1–3 per phrase.
    let mut home_domains: Vec<Vec<DomainId>> = Vec::with_capacity(nph);
    for _ in 0..nph {
        let k = rng.gen_range(1..=3usize);
        let homes = (0..k).map(|_| rng.gen_range(0..num_domains)).collect();
        home_domains.push(homes);
    }

    // Cumulative Zipf distribution over the vocabulary for base sampling.
    let weight = |i: usize| 1.0 / (i as f64 + 1.0);
    let total_weight: f64 = (0..nph).map(weight).sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = (0..nph)
        .map(|i| {
            acc += weight(i);
            acc / total_weight
        })
        .collect();
    let sample_phrase = |rng: &mut SmallRng| -> PhraseId {
        let x: f64 = rng.gen();
        cdf.partition_point(|&c| c < x).min(nph - 1) as PhraseId
    };

    for domain in page_domains {
        // Geometric phrase count around the mean.
        let p_stop = 1.0 / (config.phrases_per_page_mean + 1.0);
        let mut set = Vec::new();
        loop {
            if rng.gen::<f64>() < p_stop || set.len() >= 64 {
                break;
            }
            // 40% of picks come from phrases whose home includes this page's
            // domain (when any exist); the rest from the global Zipf.
            let ph = if rng.gen::<f64>() < 0.4 {
                // Rejection-sample a phrase at home in this domain: try a few
                // times, fall back to a deterministic domain-homed phrase.
                let mut found = None;
                for _ in 0..8 {
                    let cand = sample_phrase(rng);
                    if home_domains[cand as usize].contains(&domain) {
                        found = Some(cand);
                        break;
                    }
                }
                found.unwrap_or_else(|| {
                    let base = (u64::from(domain) * 2654435761) % nph as u64;
                    base as PhraseId
                })
            } else {
                sample_phrase(rng)
            };
            set.push(ph);
        }
        set.sort_unstable();
        set.dedup();
        sink.phrase_set(set)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textio::write_corpus;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_stream_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn corpus(n: u32, seed: u64) -> Corpus {
        Corpus::generate(CorpusConfig::scaled(n, seed))
    }

    const FILES: [&str; 4] = ["urls.txt", "domains.txt", "edges.txt", "phrases.txt"];

    /// The memory sink, written by `write_corpus`, against the text sink.
    fn assert_identical(config: CorpusConfig, tag: &str) {
        let dir_mem = temp(&format!("{tag}_mem"));
        let dir_str = temp(&format!("{tag}_str"));
        let corpus = Corpus::generate(config.clone());
        write_corpus(&dir_mem, &corpus).unwrap();
        let stats = stream_corpus(&dir_str, &config).unwrap();
        assert_eq!(stats.num_pages, corpus.num_pages());
        assert_eq!(stats.num_edges, corpus.graph.num_edges());
        assert_eq!(stats.num_domains as usize, corpus.domains.len());
        assert_eq!(stats.num_hosts as usize, corpus.hosts.len());
        for f in FILES {
            let a = std::fs::read(dir_mem.join(f)).unwrap();
            let b = std::fs::read(dir_str.join(f)).unwrap();
            assert!(a == b, "{f} differs for {tag}");
        }
        std::fs::remove_dir_all(&dir_mem).ok();
        std::fs::remove_dir_all(&dir_str).ok();
    }

    #[test]
    fn streamed_files_match_in_memory_writer() {
        assert_identical(CorpusConfig::scaled(3_000, 42), "s42");
        assert_identical(CorpusConfig::scaled(777, 7), "s7");
    }

    #[test]
    fn tiny_corpora_stream_without_panic() {
        for n in [1u32, 2, 5, 16] {
            assert_identical(CorpusConfig::scaled(n, 3), &format!("tiny{n}"));
        }
    }

    #[test]
    fn streamed_corpus_reads_back() {
        let dir = temp("readback");
        let config = CorpusConfig::scaled(1_200, 11);
        let stats = stream_corpus(&dir, &config).unwrap();
        let corpus = crate::textio::read_corpus(&dir).unwrap();
        assert_eq!(corpus.num_pages(), stats.num_pages);
        assert_eq!(corpus.graph.num_edges(), stats.num_edges);
        std::fs::remove_dir_all(&dir).ok();
    }

    // --- The URL universe --------------------------------------------------

    #[test]
    fn every_tld_is_represented() {
        let c = corpus(3_000, 1);
        for &(tld, _) in TLDS {
            assert!(!c.domains_with_tld(tld).is_empty(), "missing TLD {tld}");
        }
    }

    #[test]
    fn domain_names_are_unique() {
        let mut d = corpus(3_000, 2).domains;
        d.sort();
        let n = d.len();
        d.dedup();
        assert_eq!(n, d.len());
    }

    #[test]
    fn domain_sizes_are_skewed() {
        let c = corpus(5_000, 3);
        let mut counts = vec![0u32; c.domains.len()];
        for p in &c.pages {
            counts[p.domain as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(min >= 1, "every domain owns at least one page");
        assert!(
            max > 20 * min.max(1),
            "Zipf allocation should be heavily skewed (max {max}, min {min})"
        );
    }

    #[test]
    fn url_rank_matches_sorted_position() {
        let cfg = CorpusConfig::scaled(2_000, 4);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let Ok(u) = stream_universe(&cfg, &mut rng, &mut MemorySink::new(&cfg));
        for h in &u.hosts {
            for (rank, &p) in h.pages_by_url.iter().enumerate() {
                assert_eq!(u.url_rank_in_host[p as usize], rank as u32);
            }
        }
    }

    #[test]
    fn directory_depth_is_bounded() {
        for p in &corpus(4_000, 5).pages {
            let path = p
                .url
                .splitn(4, '/')
                .nth(3)
                .expect("url has a path component");
            // path = "dir1/dir2/.../pageNNN.html"; directory depth = segments - 1
            let depth = path.matches('/').count();
            assert!(depth <= 4, "url {} exceeds depth cap", p.url);
        }
    }

    #[test]
    fn shared_prefixes_exist_for_url_split() {
        // URL split needs sibling pages sharing multi-level prefixes.
        let c = corpus(5_000, 6);
        let mut by_prefix = std::collections::HashMap::new();
        for p in &c.pages {
            if let Some(slash) = p.url.rfind('/') {
                *by_prefix.entry(&p.url[..slash]).or_insert(0u32) += 1;
            }
        }
        let multi = by_prefix.values().filter(|&&c| c >= 5).count();
        assert!(
            multi > 10,
            "expected many directories with >=5 pages, got {multi}"
        );
    }

    // --- The links ---------------------------------------------------------

    #[test]
    fn mean_out_degree_is_near_target() {
        let c = corpus(8_000, 11);
        let target = CorpusConfig::scaled(8_000, 11).mean_out_degree;
        let mean = c.graph.mean_out_degree();
        assert!(
            (mean - target).abs() < target * 0.35,
            "mean out-degree {mean} too far from target {target}"
        );
    }

    #[test]
    fn no_self_loops_from_generator() {
        for (u, v) in corpus(3_000, 12).graph.edges() {
            assert_ne!(u, v, "generator should not emit self-loops");
        }
    }

    #[test]
    fn intra_host_fraction_is_respected() {
        let c = corpus(8_000, 13);
        let (mut intra_host, mut intra_domain, mut total) = (0u64, 0u64, 0u64);
        for (a, b) in c.graph.edges() {
            let (a, b) = (&c.pages[a as usize], &c.pages[b as usize]);
            total += 1;
            intra_host += u64::from(a.host == b.host);
            intra_domain += u64::from(a.domain == b.domain);
        }
        let frac = intra_host as f64 / total as f64;
        // Copied links inherit their prototype's mix, so allow a wide band
        // around the configured fraction.
        let configured = CorpusConfig::scaled(8_000, 13).intra_host_fraction;
        assert!(
            frac > configured - 0.25 && frac < 0.97,
            "intra-host fraction {frac} out of plausible range"
        );
        assert!(intra_domain >= intra_host, "a host is inside its domain");
    }

    #[test]
    fn in_degree_distribution_is_heavy_tailed() {
        let g = corpus(10_000, 14).graph;
        let t = g.transpose();
        let mut degs: Vec<u32> = (0..t.num_nodes()).map(|v| t.out_degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let mean = g.mean_out_degree();
        assert!(
            f64::from(degs[0]) > mean * 8.0,
            "max in-degree {} should dwarf the mean {mean}",
            degs[0]
        );
    }

    #[test]
    fn adjacency_similarity_clusters_exist() {
        // The copying model must produce pairs of pages sharing most of
        // their adjacency lists — the foundation of reference encoding.
        let c = corpus(6_000, 15);
        let g = &c.graph;
        let mut best_overlap = 0f64;
        // Compare same-host neighbours (the candidates reference encoding
        // actually uses).
        for h in &c.hosts {
            let pages = &h.pages_by_url;
            for w in pages.windows(8) {
                let a = g.neighbors(w[0]);
                if a.len() < 4 {
                    continue;
                }
                for &b_id in &w[1..] {
                    let b = g.neighbors(b_id);
                    if b.is_empty() {
                        continue;
                    }
                    let shared = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
                    let overlap = shared as f64 / a.len().max(b.len()) as f64;
                    best_overlap = best_overlap.max(overlap);
                }
            }
        }
        assert!(
            best_overlap > 0.5,
            "copying model should create similar adjacency lists, best overlap {best_overlap}"
        );

        // Pages adjacent in their host's URL order share links notably more
        // than random pairs would (random Jaccard ≈ degree/n ≈ 0.002).
        let (mut sum, mut pairs) = (0f64, 0u32);
        for h in &c.hosts {
            for w in h.pages_by_url.windows(2) {
                let (a, b) = (g.neighbors(w[0]), g.neighbors(w[1]));
                if a.is_empty() && b.is_empty() {
                    continue;
                }
                let shared = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
                sum += shared as f64 / (a.len() + b.len() - shared) as f64;
                pairs += 1;
            }
        }
        let jaccard = sum / f64::from(pairs);
        assert!(
            jaccard > 0.05,
            "URL-neighbour jaccard {jaccard} shows no copying signal"
        );
    }

    #[test]
    fn graph_edges_within_bounds() {
        let g = corpus(1_000, 16).graph;
        assert_eq!(g.num_nodes(), 1_000);
        assert!(g.num_edges() > 1_000, "graph should be reasonably dense");
        for (a, b) in g.edges() {
            assert!(a < 1_000 && b < 1_000);
        }
    }

    #[test]
    fn tiny_corpora_do_not_panic() {
        for n in [1u32, 2, 3, 5, 10] {
            assert_eq!(corpus(n, 17).graph.num_nodes(), n);
        }
    }
}
