//! Iterative partition refinement (§3.2 of the paper).
//!
//! The partition starts as the **domain partition** `P0` (all pages of
//! `stanford.edu` together, keyed by the top two DNS levels), then is
//! refined one element at a time by **URL split**: grouping an element's
//! pages by a URL prefix one level deeper than the prefix that produced
//! it, from hostname down to three directory levels. The largest element
//! that can still split is refined first, until none can; an element whose
//! prefixes are used up is final. Last, every element above
//! [`MAX_ELEMENT_PAGES`] is cut into runs of URL order, so no supernode's
//! graphs grow with the largest directory a site has.
//!
//! The paper refines further by clustered split, k-means over the pages'
//! supernode-adjacency bit vectors, and picks elements at random. Neither
//! is here: on generated corpora clustered split never fired under its
//! default budget, and where a larger one made it fire it made compression
//! worse (DESIGN.md §4b), so URL order alone decides the partition, and
//! the cut bounds what clustered split was there to bound.

use wg_graph::PageId;
use wg_obs::{record_span, Stopwatch};

/// Deepest URL-prefix level used by URL split (hostname = 0, then three
/// directory levels), per the paper's manual-inspection finding.
pub const MAX_URL_DEPTH: u32 = 3;

/// Elements smaller than this are never split further.
const MIN_ELEMENT_SIZE: u32 = 2;

/// The most pages an element keeps once refinement ends: a larger one is
/// cut into `⌈n / MAX_ELEMENT_PAGES⌉` runs of its URL order, sizes one
/// apart at most. Every read of a supernode's graphs costs in its size, so
/// the cap bounds a cold probe; and a superedge graph's targets are local
/// ids of the supernode it leads to, so a smaller one spends fewer bits an
/// id. Half of it (1 024) bought more speed and cost bits; twice it
/// (4 096) saved a few more bits and gave up most of the speed (DESIGN.md
/// §4b).
pub const MAX_ELEMENT_PAGES: usize = 2_048;

/// How an element may be split next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitState {
    /// Next split groups by URL prefix at this depth (0 = hostname).
    Url {
        /// Prefix depth for the next URL split.
        depth: u32,
    },
    /// URL prefixes are used up: the element is final.
    Exhausted,
    /// A run of at most [`MAX_ELEMENT_PAGES`] pages cut out of a larger
    /// element: final, its pages already in the order `build::number_pages`
    /// lays them out in.
    Cut,
}

/// One element of the partition.
#[derive(Debug, Clone)]
pub struct Element {
    /// Pages in this element: ascending page id, or for a run the cut
    /// made ([`SplitState::Cut`]), in URL order, ties by page id.
    pub pages: Vec<PageId>,
    /// The domain every page of this element belongs to (Property 2).
    pub domain: u32,
    /// Split technique to apply next.
    pub state: SplitState,
}

/// A partition of the repository's pages.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Partition elements. Indices are stable across URL split; the cut
    /// puts an element's runs where it stood.
    pub elements: Vec<Element>,
    /// `elem_of[p]` = element index of page `p`.
    pub elem_of: Vec<u32>,
}

impl Partition {
    /// The initial partition `P0`: one element per domain.
    pub fn initial(domains: &[u32]) -> Self {
        // Domain ids are dense, so one counting pass sizes every element
        // and a second fills them, pages ascending; a domain without pages
        // gets no element.
        let num_domains = domains.iter().max().map_or(0, |&d| d as usize + 1);
        let mut sizes = vec![0usize; num_domains];
        for &d in domains {
            sizes[d as usize] += 1;
        }
        let mut elem_of_domain = vec![0u32; num_domains];
        let mut elements = Vec::new();
        for (d, &size) in sizes.iter().enumerate().filter(|(_, &size)| size > 0) {
            elem_of_domain[d] = elements.len() as u32;
            elements.push(Element {
                pages: Vec::with_capacity(size),
                domain: d as u32,
                state: SplitState::Url { depth: 0 },
            });
        }
        let elem_of: Vec<u32> = domains
            .iter()
            .map(|&d| elem_of_domain[d as usize])
            .collect();
        for (p, &e) in elem_of.iter().enumerate() {
            elements[e as usize].pages.push(p as PageId);
        }
        Self { elements, elem_of }
    }

    /// The partition whose element `s` is pages `range_start[s]..
    /// range_start[s + 1]`, of the domain whose list in `domain_supernodes`
    /// (one per domain, in domain order) names `s`: what a built
    /// directory's PageID and domain indexes say of the partition it was
    /// built over.
    pub fn from_ranges<'a>(
        range_start: &[u32],
        domain_supernodes: impl IntoIterator<Item = &'a [u32]>,
    ) -> Self {
        let mut elem_of = Vec::new();
        let mut elements: Vec<Element> = (range_start.windows(2).enumerate())
            .map(|(s, range)| {
                elem_of.extend((range[0]..range[1]).map(|_| s as u32));
                Element {
                    pages: (range[0]..range[1]).collect(),
                    domain: 0,
                    state: SplitState::Exhausted,
                }
            })
            .collect();
        for (d, supernodes) in domain_supernodes.into_iter().enumerate() {
            for &s in supernodes {
                elements[s as usize].domain = d as u32;
            }
        }
        Self { elements, elem_of }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the partition is empty (no pages at all).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Checks the partition invariant: every page in exactly one element,
    /// `elem_of` consistent. Used by tests and debug assertions.
    pub fn validate(&self, num_pages: u32) -> bool {
        let mut seen = vec![false; num_pages as usize];
        for (i, e) in self.elements.iter().enumerate() {
            if e.pages.is_empty() {
                return false;
            }
            for &p in &e.pages {
                if p >= num_pages || seen[p as usize] || self.elem_of[p as usize] != i as u32 {
                    return false;
                }
                seen[p as usize] = true;
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Replaces element `idx` with `groups` (each non-empty, each carrying
    /// its own split state). The first group keeps index `idx`; the rest
    /// get fresh indices.
    fn apply_split(&mut self, idx: u32, groups: Vec<(Vec<PageId>, SplitState)>) {
        debug_assert!(groups.len() >= 2);
        debug_assert!(groups.iter().all(|(g, _)| !g.is_empty()));
        let domain = self.elements[idx as usize].domain;
        let mut iter = groups.into_iter();
        #[allow(clippy::expect_used)] // Build side: the caller splits into two or more.
        let (first, first_state) = iter.next().expect("at least two groups");
        for &p in &first {
            self.elem_of[p as usize] = idx;
        }
        self.elements[idx as usize] = Element {
            pages: first,
            domain,
            state: first_state,
        };
        for (group, state) in iter {
            let new_idx = self.elements.len() as u32;
            for &p in &group {
                self.elem_of[p as usize] = new_idx;
            }
            self.elements.push(Element {
                pages: group,
                domain,
                state,
            });
        }
    }
}

/// Configuration of the refinement loop.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// A URL split is applied only if the mean size of the groups it
    /// produces is at least this; otherwise the element keeps its current
    /// granularity and is final. Requirement 1 (§3): the partition must
    /// "produce intranode and superedge graphs that are highly
    /// compressible", and groups of a handful of pages trade away all
    /// reference-encoding opportunity for per-graph overhead. The default
    /// of 128 matches the granularity the paper's partition ends at (Fig 9a:
    /// several hundred pages per supernode on crawls whose hosts are ~1000×
    /// larger than this harness's synthetic ones).
    pub min_url_split_mean: u32,
    /// Cap on URL-split iterations (0 leaves `P0` to the cut alone; the
    /// default is never reached).
    pub max_iterations: u64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self {
            min_url_split_mean: 128,
            max_iterations: 10_000_000,
        }
    }
}

/// Statistics of a refinement run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Iterations executed: elements picked, whether they split or were
    /// found final.
    pub iterations: u64,
    /// Successful URL splits.
    pub url_splits: u64,
    /// Elements above [`MAX_ELEMENT_PAGES`] cut into runs.
    pub cuts: u64,
}

/// Runs iterative refinement to completion and returns the final partition.
///
/// `urls[p]` must be the full URL of page `p` and `domains[p]` its domain
/// id: the partition is a function of these alone, not of the links.
pub fn refine(urls: &[&str], domains: &[u32], config: &RefineConfig) -> (Partition, RefineStats) {
    assert_eq!(urls.len(), domains.len());
    let mut partition = Partition::initial(domains);
    if partition.is_empty() {
        return (partition, RefineStats::default());
    }

    let t = Stopwatch::start();
    let ranks = rank_prefixes(&partition, urls);
    record_span("core.build.refine.rank_prefixes", "build", &t);
    let mut stats = largest_first(&mut partition, &ranks, config);
    let t = Stopwatch::start();
    stats.cuts = cut_large(&mut partition, urls);
    record_span("core.build.refine.cut", "build", &t);

    debug_assert!(partition.validate(urls.len() as u32));
    (partition, stats)
}

/// Cuts every element above [`MAX_ELEMENT_PAGES`] into `⌈n /
/// MAX_ELEMENT_PAGES⌉` runs of consecutive pages in the order
/// `build::number_pages` lays it out in (URL, then page id), the first
/// `n mod runs` a page longer than the rest; returns how many it cut. The
/// runs stand in the element's place, one after another, so pages keep
/// the ids the element gave them and each run is a range of them. A run
/// keeps its pages in that order ([`SplitState::Cut`]), so the element is
/// sorted by URL once, here, and not again when its pages are numbered;
/// an element at or under the cap is moved, not sorted or copied.
fn cut_large(partition: &mut Partition, urls: &[&str]) -> u64 {
    let over = |e: &Element| e.pages.len() > MAX_ELEMENT_PAGES;
    let Some(first) = partition.elements.iter().position(over) else {
        return 0;
    };
    let (mut cuts, tail) = (0, partition.elements.split_off(first));
    for mut element in tail {
        if !over(&element) {
            partition.elements.push(element);
            continue;
        }
        cuts += 1;
        let pages = &mut element.pages;
        pages.sort_unstable_by(|&a, &b| urls[a as usize].cmp(urls[b as usize]).then(a.cmp(&b)));
        let runs = pages.len().div_ceil(MAX_ELEMENT_PAGES);
        let (len, longer) = (pages.len() / runs, pages.len() % runs);
        let mut rest = &pages[..];
        for run in 0..runs {
            let (this, more) = rest.split_at(len + usize::from(run < longer));
            rest = more;
            partition.elements.push(Element {
                pages: this.to_vec(),
                domain: element.domain,
                state: SplitState::Cut,
            });
        }
    }
    for (e, element) in partition.elements.iter().enumerate().skip(first) {
        for &p in &element.pages {
            partition.elem_of[p as usize] = e as u32;
        }
    }
    cuts
}

/// The refinement loop: a lazy max-heap of (size, element), so every
/// element gets exactly one pick per size (the split element and its new
/// siblings re-enter; one that does not split is final and does not).
fn largest_first(
    partition: &mut Partition,
    ranks: &[PrefixRanks],
    config: &RefineConfig,
) -> RefineStats {
    use std::collections::BinaryHeap;
    let mut stats = RefineStats::default();
    let mut heap: BinaryHeap<(usize, u32)> = (0..partition.len() as u32)
        .map(|i| (partition.elements[i as usize].pages.len(), i))
        .collect();
    while let Some((size, idx)) = heap.pop() {
        if stats.iterations >= config.max_iterations {
            break;
        }
        let element = &partition.elements[idx as usize];
        if element.pages.len() != size {
            continue; // stale heap entry
        }
        stats.iterations += 1;
        let SplitState::Url { depth } = element.state else {
            continue;
        };
        let t = Stopwatch::start();
        let before = partition.len() as u32;
        let split = try_url_split(partition, idx, depth, ranks, config);
        record_span("core.build.refine.url_split", "build", &t);
        if split {
            stats.url_splits += 1;
            heap.push((partition.elements[idx as usize].pages.len(), idx));
            for i in before..partition.len() as u32 {
                heap.push((partition.elements[i as usize].pages.len(), i));
            }
        }
    }
    stats
}

/// A page's URL prefix at every depth URL split groups by, each as its
/// rank among the prefixes of that depth in the page's domain.
type PrefixRanks = [u32; URL_LEVELS];

/// Depths URL split groups by: the hostname and [`MAX_URL_DEPTH`]
/// directory levels.
const URL_LEVELS: usize = MAX_URL_DEPTH as usize + 1;

/// Ranks every page's URL prefixes, a domain (an element of the initial
/// `partition`) at a time, by sorting the domain's pages on the hostname
/// prefix, then each stretch of pages that agree so far on the segment the
/// next level adds. Prefixes of one depth that continue the same prefix one
/// level up are neighbours in that order and stand as their text does, a
/// prefix that adds nothing (the filename follows) first, so ranks stand
/// in for the text wherever URL split groups and orders the pages of an
/// element — and the text, which no two visits to a domain find cached,
/// is read this once.
fn rank_prefixes(partition: &Partition, urls: &[&str]) -> Vec<PrefixRanks> {
    /// A page while its domain is ranked: what the level being ranked adds
    /// to its prefix, and the rest of its URL.
    struct Ranked<'a> {
        segment: &'a str,
        rest: &'a str,
        page: PageId,
        ranks: PrefixRanks,
    }
    let mut ranks = vec![PrefixRanks::default(); urls.len()];
    let mut domain: Vec<Ranked<'_>> = Vec::new();
    // Where each stretch of `domain` that agrees on every level ranked so
    // far ends, and the same with the level being ranked.
    let (mut stretches, mut parted): (Vec<usize>, Vec<usize>) = Default::default();
    for element in &partition.elements {
        domain.clear();
        domain.extend(element.pages.iter().map(|&page| {
            let url = urls[page as usize];
            let (segment, rest) = url.split_at(host_end(url));
            Ranked {
                segment,
                rest,
                page,
                ranks: PrefixRanks::default(),
            }
        }));
        stretches.clear();
        stretches.push(domain.len());
        for depth in 0..URL_LEVELS {
            parted.clear();
            let (mut start, mut rank) = (0, 0u32);
            for &end in &stretches {
                let stretch = &mut domain[start..end];
                stretch.sort_unstable_by_key(|ranked| ranked.segment);
                for at in 0..stretch.len() {
                    if at > 0 && stretch[at - 1].segment != stretch[at].segment {
                        rank += 1;
                        parted.push(start + at);
                    }
                    stretch[at].ranks[depth] = rank;
                }
                rank += 1;
                parted.push(end);
                start = end;
            }
            std::mem::swap(&mut stretches, &mut parted);
            for ranked in &mut domain {
                let (segment, rest) = ranked.rest.split_at(one_deeper(ranked.rest, 0));
                (ranked.segment, ranked.rest) = (segment, rest);
            }
        }
        for ranked in &domain {
            ranks[ranked.page as usize] = ranked.ranks;
        }
    }
    ranks
}

/// Attempts URL split at `depth`, deepening past non-discriminating levels
/// (single-group results) until a split happens or the budget runs out;
/// returns whether the element was split. One that was not is marked
/// [`SplitState::Exhausted`].
fn try_url_split(
    partition: &mut Partition,
    idx: u32,
    start_depth: u32,
    ranks: &[PrefixRanks],
    config: &RefineConfig,
) -> bool {
    let element = &partition.elements[idx as usize];
    if (element.pages.len() as u32) < MIN_ELEMENT_SIZE {
        partition.elements[idx as usize].state = SplitState::Exhausted;
        return false;
    }
    let mut depth = start_depth;
    let mut keyed: Vec<(u32, PageId)> = Vec::new();
    loop {
        let pages = &partition.elements[idx as usize].pages;
        keyed.clear();
        keyed.extend(
            pages
                .iter()
                .map(|&p| (ranks[p as usize][depth as usize], p)),
        );
        // Groups in prefix order (every page of the element has the same
        // prefix one level up — that is how the element came to be — so
        // its groups' ranks order as their prefixes do), each one's pages
        // ascending: what hashing the prefixes and sorting the keys
        // arrived at.
        keyed.sort_unstable();
        if keyed[0].0 != keyed[keyed.len() - 1].0 {
            // Granularity gate (Requirement 1): prefix groups below the
            // minimum size would spend more on per-graph overhead than
            // reference encoding saves, so they pool into one residual
            // element (still same-domain, same-host-prefix pages) while
            // every sufficiently large group becomes its own element.
            let gate = config.min_url_split_mean.max(1) as usize;
            let next_state = if depth + 1 > MAX_URL_DEPTH {
                SplitState::Exhausted
            } else {
                SplitState::Url { depth: depth + 1 }
            };
            let mut children: Vec<(Vec<PageId>, SplitState)> = Vec::new();
            let mut residual: Vec<PageId> = Vec::new();
            for group in keyed.chunk_by(|a, b| a.0 == b.0) {
                let group = group.iter().map(|&(_, p)| p);
                if group.len() >= gate {
                    children.push((group.collect(), next_state));
                } else {
                    residual.extend(group);
                }
            }
            if !residual.is_empty() {
                residual.sort_unstable();
                // Mixed prefixes: URL split would regroup it identically,
                // so it is final.
                children.push((residual, SplitState::Exhausted));
            }
            if children.len() >= 2 {
                partition.apply_split(idx, children);
                return true;
            }
            // Everything pooled into one group: no usable URL structure at
            // this depth or below.
            break;
        }
        if depth >= MAX_URL_DEPTH {
            break;
        }
        depth += 1;
    }
    partition.elements[idx as usize].state = SplitState::Exhausted;
    false
}

/// The URL prefix at `depth`: the hostname (with its `scheme://`, if the
/// URL has one) for depth 0, plus the first `depth` directory segments
/// otherwise. The trailing filename never participates. A prefix of `url`
/// for any string: URL text comes from outside the program.
pub fn url_prefix(url: &str, depth: u32) -> &str {
    let mut end = host_end(url);
    for _ in 0..depth {
        end = one_deeper(url, end);
    }
    &url[..end]
}

/// Where the hostname of `url` ends: at the first `/` after its
/// `scheme://` (letters, digits, `+`, `-` and `.`, then `://`), or after
/// the start of a URL that has none.
fn host_end(url: &str) -> usize {
    let is_scheme = |b: &u8| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.');
    let scheme = url.bytes().take_while(|b| is_scheme(b)).count();
    let host_start = match &url.as_bytes()[scheme..] {
        [b':', b'/', b'/', ..] if scheme > 0 => scheme + 3,
        _ => 0,
    };
    url[host_start..]
        .find('/')
        .map_or(url.len(), |i| host_start + i)
}

/// Where the prefix one directory below `url[..end]` — the hostname or a
/// deeper prefix, so followed by a `/` or by nothing — ends: after the
/// next path segment if a further `/` follows it, and at `end` itself if
/// it is the filename, which never participates.
fn one_deeper(url: &str, end: usize) -> usize {
    let segment = url.get(end + 1..).and_then(|rest| rest.find('/'));
    segment.map_or(end, |i| end + 1 + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urls_and_domains() -> (Vec<&'static str>, Vec<u32>) {
        let urls = vec![
            "http://www.alpha.edu/a/x/p0.html", // 0
            "http://www.alpha.edu/a/y/p1.html", // 1
            "http://www.alpha.edu/b/p2.html",   // 2
            "http://cs.alpha.edu/p3.html",      // 3
            "http://www.beta.com/p4.html",      // 4
            "http://www.beta.com/q/p5.html",    // 5
        ];
        let domains = vec![0, 0, 0, 0, 1, 1];
        (urls, domains)
    }

    #[test]
    fn url_prefix_levels() {
        let u = "http://www.alpha.edu/a/x/p0.html";
        assert_eq!(url_prefix(u, 0), "http://www.alpha.edu");
        assert_eq!(url_prefix(u, 1), "http://www.alpha.edu/a");
        assert_eq!(url_prefix(u, 2), "http://www.alpha.edu/a/x");
        // Depth beyond the available directories saturates.
        assert_eq!(url_prefix(u, 3), "http://www.alpha.edu/a/x");
        let root = "http://www.alpha.edu/p.html";
        assert_eq!(url_prefix(root, 0), "http://www.alpha.edu");
        assert_eq!(url_prefix(root, 2), "http://www.alpha.edu");
    }

    /// Anything may stand in `urls.txt`: whatever the scheme, or none, the
    /// hostname ends at the first slash after it, and no prefix is cut
    /// anywhere but at a slash or the end.
    #[test]
    fn url_prefix_is_a_prefix_of_any_string() {
        let cases = [
            (
                "https://example.org/a/b.html",
                ["https://example.org", "https://example.org/a"],
            ),
            ("example.com/a/b.html", ["example.com", "example.com/a"]),
            ("ftp://a/b", ["ftp://a", "ftp://a"]),
            ("a/b", ["a", "a"]),
            (
                "http://www.alpha.edu/a/x/p0.html",
                ["http://www.alpha.edu", "http://www.alpha.edu/a"],
            ),
            (
                "http://bücher.example/straße/ü.html",
                ["http://bücher.example", "http://bücher.example/straße"],
            ),
            // No scheme: what precedes `://` is not one, or nothing does.
            ("://x/y/z", [":", ":/"]),
            ("a b://c/d/e", ["a b:", "a b:/"]),
            ("host:8080/d/p", ["host:8080", "host:8080/d"]),
            ("", ["", ""]),
            ("/", ["", ""]),
            ("//", ["", "/"]),
            ("ü", ["ü", "ü"]),
        ];
        for (url, [host, one_directory]) in cases {
            assert_eq!(url_prefix(url, 0), host, "{url:?}");
            assert_eq!(url_prefix(url, 1), one_directory, "{url:?}");
            for depth in 0..6 {
                assert!(
                    url.starts_with(url_prefix(url, depth)),
                    "{url:?} at {depth}"
                );
            }
        }
    }

    /// Ranks order the prefixes of an element's pages as their text does,
    /// level by level, whatever bytes the segments are made of.
    #[test]
    fn prefix_ranks_group_and_order_as_prefix_text_does() {
        let urls = [
            "http://h.x.com/a/p.html",
            "http://h.x.com/a-b/p.html",
            "http://h.x.com/a/b/p.html",
            "http://h.x.com/p.html",
            "http://h.x.com/a.b/c/d/e.html",
            "https://h.x.com/a/p.html",
            "h.x.com/a/p.html",
            "http://h.x.com/a/b/q.html",
            "http://h.x.com./a/p.html",
            "http://h.x.com/a/b/c/r.html",
        ];
        let partition = Partition::initial(&[0; 10]);
        let ranks = rank_prefixes(&partition, &urls);
        for depth in 0..=MAX_URL_DEPTH {
            let prefix = |url| url_prefix(url, depth);
            for (url, of_url) in urls.iter().zip(&ranks) {
                for (other, of_other) in urls.iter().zip(&ranks) {
                    // Only pages that agree one level up are ever compared.
                    if depth > 0 && url_prefix(url, depth - 1) != url_prefix(other, depth - 1) {
                        continue;
                    }
                    let by_rank = of_url[depth as usize].cmp(&of_other[depth as usize]);
                    assert_eq!(
                        by_rank,
                        prefix(url).cmp(prefix(other)),
                        "{url} {other} {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn initial_partition_groups_by_domain() {
        let (_, domains) = urls_and_domains();
        let p = Partition::initial(&domains);
        assert_eq!(p.len(), 2);
        assert!(p.validate(6));
        assert_eq!(p.elements[0].pages, vec![0, 1, 2, 3]);
        assert_eq!(p.elements[1].pages, vec![4, 5]);
        assert_eq!(p.elements[0].domain, 0);
    }

    #[test]
    fn url_split_separates_hosts_then_directories() {
        let (urls, domains) = urls_and_domains();
        let mut p = Partition::initial(&domains);
        // Tiny fixture: disable the granularity gate so prefix mechanics
        // are observable.
        let cfg = RefineConfig {
            min_url_split_mean: 1,
            ..Default::default()
        };
        let ranks = rank_prefixes(&p, &urls);
        // Element 0 (alpha.edu): host split → www vs cs.
        assert!(
            try_url_split(&mut p, 0, 0, &ranks, &cfg),
            "host-level split must succeed"
        );
        assert!(p.validate(6));
        assert_eq!(p.len(), 3);
        // The www.alpha.edu element can split again at directory level.
        let www_idx = p.elem_of[0];
        let depth = match p.elements[www_idx as usize].state {
            SplitState::Url { depth } => depth,
            _ => panic!("www element should still be URL-splittable"),
        };
        assert_eq!(depth, 1);
        assert!(
            try_url_split(&mut p, www_idx, depth, &ranks, &cfg),
            "directory-level split must succeed"
        );
        assert!(p.validate(6));
        // /a pages together, /b page separate.
        assert_eq!(p.elem_of[0], p.elem_of[1]);
        assert_ne!(p.elem_of[0], p.elem_of[2]);
    }

    #[test]
    fn url_split_exhausts_identical_prefixes() {
        // All pages share every prefix level → exhausted.
        let urls = vec![
            "http://h.x.com/a/b/c/p0.html",
            "http://h.x.com/a/b/c/p1.html",
        ];
        let domains = vec![0, 0];
        let mut p = Partition::initial(&domains);
        let cfg = RefineConfig::default();
        let ranks = rank_prefixes(&p, &urls);
        assert!(
            !try_url_split(&mut p, 0, 0, &ranks, &cfg),
            "identical prefixes cannot split"
        );
        assert_eq!(p.elements[0].state, SplitState::Exhausted);
    }

    #[test]
    fn refine_end_to_end_small() {
        let (urls, domains) = urls_and_domains();
        let (p, stats) = refine(&urls, &domains, &RefineConfig::default());
        assert!(p.validate(6));
        assert!(stats.iterations > 0);
        assert!(p.len() >= 2, "domains never merge");
        // Property 2: every element is domain-pure.
        for e in &p.elements {
            assert!(e.pages.iter().all(|&pg| domains[pg as usize] == e.domain));
        }
    }

    #[test]
    fn refine_is_deterministic() {
        let (urls, domains) = urls_and_domains();
        let cfg = RefineConfig::default();
        let (p1, s1) = refine(&urls, &domains, &cfg);
        let (p2, s2) = refine(&urls, &domains, &cfg);
        assert_eq!(s1, s2);
        assert_eq!(p1.elem_of, p2.elem_of);
    }

    #[test]
    fn refine_handles_empty_input() {
        let (p, stats) = refine(&[], &[], &RefineConfig::default());
        assert!(p.is_empty());
        assert_eq!(stats.iterations, 0);
    }

    /// One domain of `big` pages in one directory, seven pages to a URL and
    /// numbered against URL order (page `p` is file `(big - 1 - p) / 7 *
    /// 7`), then a domain of 3 pages.
    fn one_big_directory(big: u32) -> (Vec<String>, Vec<u32>) {
        let mut urls: Vec<String> = (0..big)
            .map(|p| format!("http://www.big.com/d/p{:05}.html", (big - 1 - p) / 7 * 7))
            .collect();
        urls.extend((0..3).map(|p| format!("http://www.small.org/p{p}.html")));
        let domains = (0..big + 3).map(|p| u32::from(p >= big)).collect();
        (urls, domains)
    }

    /// The partition URL split alone leaves: what `refine` was before the
    /// cut.
    fn url_split_only(urls: &[&str], domains: &[u32]) -> Partition {
        let mut partition = Partition::initial(domains);
        let ranks = rank_prefixes(&partition, urls);
        largest_first(&mut partition, &ranks, &RefineConfig::default());
        partition
    }

    #[test]
    fn the_cut_leaves_no_element_above_the_cap() {
        for big in [2_049, 5_000, 3 * MAX_ELEMENT_PAGES as u32] {
            let (urls, domains) = one_big_directory(big);
            let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
            let (p, stats) = refine(&urls, &domains, &RefineConfig::default());
            assert!(p.validate(big + 3));
            assert_eq!(stats.cuts, 1, "{big} pages");
            assert!(p
                .elements
                .iter()
                .all(|e| e.pages.len() <= MAX_ELEMENT_PAGES));
            let runs = p.elements.iter().filter(|e| e.domain == 0).count();
            assert_eq!(
                runs,
                (big as usize).div_ceil(MAX_ELEMENT_PAGES),
                "{big} pages"
            );
        }
    }

    /// A cut element's runs stand one after another where it stood, and
    /// read in order they are its pages in URL order, ties by page id: the
    /// order `build::number_pages` lays them out in, which each run keeps.
    /// Their sizes are at most one apart, longer ones first.
    #[test]
    fn the_runs_of_a_cut_element_are_consecutive_in_url_order() {
        let big = 5_000;
        let (urls, domains) = one_big_directory(big);
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
        let (p, _) = refine(&urls, &domains, &RefineConfig::default());
        let runs: Vec<&Element> = p.elements.iter().filter(|e| e.domain == 0).collect();
        assert_eq!(runs.len(), 3);
        let first = p.elem_of[runs[0].pages[0] as usize] as usize;
        for (k, run) in runs.iter().enumerate() {
            assert_eq!(p.elem_of[run.pages[0] as usize] as usize, first + k);
            assert_eq!(run.state, SplitState::Cut);
        }
        let sizes: Vec<usize> = runs.iter().map(|r| r.pages.len()).collect();
        assert_eq!(sizes, [1_667, 1_667, 1_666]);

        let mut want: Vec<PageId> = (0..big).collect();
        want.sort_by(|&a, &b| urls[a as usize].cmp(urls[b as usize]));
        let got: Vec<PageId> = runs.iter().flat_map(|run| run.pages.clone()).collect();
        assert_eq!(got, want);
    }

    /// Where no element is above the cap — 5 000 generated pages — the cut
    /// changes nothing: `refine` is URL split's partition.
    #[test]
    fn under_the_cap_the_partition_is_url_splits() {
        let corpus = wg_corpus::Corpus::generate(wg_corpus::CorpusConfig::scaled(5_000, 42));
        let urls: Vec<&str> = corpus.pages.iter().map(|p| p.url.as_str()).collect();
        let domains: Vec<u32> = corpus.pages.iter().map(|p| p.domain).collect();
        let before = url_split_only(&urls, &domains);
        assert!(before
            .elements
            .iter()
            .all(|e| e.pages.len() <= MAX_ELEMENT_PAGES));
        let (after, stats) = refine(&urls, &domains, &RefineConfig::default());
        assert!(after.validate(corpus.num_pages()));
        assert_eq!(stats.cuts, 0);
        assert_eq!(after.elem_of, before.elem_of);
        let pages = |p: &Partition| -> Vec<Vec<PageId>> {
            p.elements.iter().map(|e| e.pages.clone()).collect()
        };
        assert_eq!(pages(&after), pages(&before));
    }

    /// Over the cap, the cut only divides: each run lies inside one
    /// element URL split left, and the elements it left under the cap are
    /// untouched.
    #[test]
    fn the_cut_only_divides_the_elements_above_the_cap() {
        let (urls, domains) = one_big_directory(5_000);
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
        let before = url_split_only(&urls, &domains);
        let (after, _) = refine(&urls, &domains, &RefineConfig::default());
        for e in &after.elements {
            let from = &before.elements[before.elem_of[e.pages[0] as usize] as usize];
            assert!(e.pages.iter().all(|p| from.pages.binary_search(p).is_ok()));
            if from.pages.len() <= MAX_ELEMENT_PAGES {
                assert_eq!(e.pages, from.pages);
            }
        }
    }

    #[test]
    fn singleton_elements_never_split() {
        let urls = vec!["http://a.x.com/p.html"];
        let domains = vec![0];
        let (p, _) = refine(&urls, &domains, &RefineConfig::default());
        assert_eq!(p.len(), 1);
        assert!(p.validate(1));
    }
}
