//! Iterative partition refinement (§3.2 of the paper).
//!
//! The partition starts as the **domain partition** `P0` (all pages of
//! `stanford.edu` together, keyed by the top two DNS levels), then is
//! refined one element at a time:
//!
//! * an element still inside its URL budget is split by **URL split** —
//!   grouping by a URL prefix one level deeper than the prefix that
//!   produced it, from hostname down to three directory levels;
//! * past that depth, by **clustered split** — k-means over the pages'
//!   supernode-adjacency bit vectors, starting with `k` equal to the
//!   element's supernode out-degree, `k += 2` after every non-converged
//!   (aborted) run, giving up after a fixed number of attempts.
//!
//! The element to refine is chosen uniformly at random (the paper found
//! "largest first" and "random" indistinguishable and adopted random).
//! Refinement stops after `abort_max` consecutive clustered-split aborts,
//! with `abort_max` a fixed fraction (default 6 %) of the current number of
//! elements — exactly the paper's stopping criterion.
//!
//! One implementation note: the paper maintains the supernode graph
//! incrementally across iterations; we recompute the (element-local) slice
//! of it that clustered split needs on demand from `elem_of`. The results
//! are identical; only the bookkeeping differs.

use crate::kmeans::{kmeans_binary, KMeansOutcome, KMeansParams, SparseRows};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use wg_graph::{Graph, PageId};

/// Deepest URL-prefix level used by URL split (hostname = 0, then three
/// directory levels), per the paper's manual-inspection finding.
pub const MAX_URL_DEPTH: u32 = 3;

/// How an element may be split next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitState {
    /// Next split groups by URL prefix at this depth (0 = hostname).
    Url {
        /// Prefix depth for the next URL split.
        depth: u32,
    },
    /// URL prefixes are exhausted; only clustered split applies.
    Clustered,
}

/// One element of the partition.
#[derive(Debug, Clone)]
pub struct Element {
    /// Pages in this element (ascending page id).
    pub pages: Vec<PageId>,
    /// The domain every page of this element belongs to (Property 2).
    pub domain: u32,
    /// Split technique to apply next.
    pub state: SplitState,
    /// Set once clustered split aborted on this element: future picks
    /// abort immediately instead of re-running k-means. A pure
    /// cost optimisation over the paper's loop (it re-ran k-means on every
    /// pick); it can only make re-splittable-after-neighbour-changes
    /// elements stay whole, never split anything the paper would not.
    pub sterile: bool,
}

/// A partition of the repository's pages.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Partition elements. Indices are stable across refinement.
    pub elements: Vec<Element>,
    /// `elem_of[p]` = element index of page `p`.
    pub elem_of: Vec<u32>,
}

impl Partition {
    /// The initial partition `P0`: one element per domain.
    pub fn initial(domains: &[u32]) -> Self {
        let mut by_domain: HashMap<u32, Vec<PageId>> = HashMap::new();
        for (p, &d) in domains.iter().enumerate() {
            by_domain.entry(d).or_default().push(p as PageId);
        }
        let mut keys: Vec<u32> = by_domain.keys().copied().collect();
        keys.sort_unstable();
        let mut elements = Vec::with_capacity(keys.len());
        let mut elem_of = vec![0u32; domains.len()];
        for d in keys {
            let pages = by_domain.remove(&d).expect("key exists");
            let idx = elements.len() as u32;
            for &p in &pages {
                elem_of[p as usize] = idx;
            }
            elements.push(Element {
                pages,
                domain: d,
                state: SplitState::Url { depth: 0 },
                sterile: false,
            });
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
        let (first, first_state) = iter.next().expect("at least two groups");
        for &p in &first {
            self.elem_of[p as usize] = idx;
        }
        self.elements[idx as usize] = Element {
            pages: first,
            domain,
            state: first_state,
            sterile: false,
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
                sterile: false,
            });
        }
    }
}

/// Which element the refinement loop picks each iteration.
///
/// The paper tried "always split the largest" and "pick at random" and
/// measured them indistinguishable (§3.2), then used random. At the
/// reduced scales this harness runs, random picking interacts badly with
/// the consecutive-abort stopping criterion: with few hundred elements of
/// which only a handful are splittable, a short unlucky streak (6 % of a
/// small partition is a small number) stops refinement before the large
/// splittable elements are ever touched. Largest-first is deterministic,
/// runs to true exhaustion, and by the paper's own measurement produces
/// the same partitions — so it is the default here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PickPolicy {
    /// Deterministically refine the largest refinable element each round.
    #[default]
    LargestFirst,
    /// The paper's final policy: uniform random element each round.
    Random,
}

/// Configuration of the refinement loop.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// RNG seed (element choice, k-means init).
    pub seed: u64,
    /// Element-choice policy.
    pub pick: PickPolicy,
    /// `abort_max` as a fraction of the current element count (paper: 6 %).
    pub abort_fraction: f64,
    /// Iteration bound per k-means run (the paper's execution-time bound).
    pub kmeans_max_iterations: u32,
    /// Operation budget per k-means run — the deterministic stand-in for
    /// the paper's wall-clock bound on clustered split. Large elements
    /// with large supernode out-degrees blow this budget and abort, which
    /// is the mechanism that keeps the final partition's elements at
    /// realistic sizes instead of shattering to singletons.
    pub kmeans_ops_budget: u64,
    /// k-means attempts (`k`, `k+2`, …) before clustered split aborts.
    pub kmeans_attempts: u32,
    /// Elements smaller than this are never split further.
    pub min_element_size: u32,
    /// A URL split is applied only if the mean size of the groups it
    /// produces is at least this; otherwise the element keeps its current
    /// granularity and moves on to clustered split. Same Requirement-1
    /// rationale as `min_mean_cluster_size`: the partition must "produce
    /// intranode and superedge graphs that are highly compressible", and
    /// groups of a handful of pages trade away all reference-encoding
    /// opportunity for per-graph overhead. The default of 32 matches the
    /// granularity the paper's partition ends at (Fig 9a: several hundred
    /// pages per supernode on crawls whose hosts are ~1000× larger than
    /// this harness's synthetic ones).
    pub min_url_split_mean: u32,
    /// A converged clustered split is accepted only if the mean size of
    /// its non-empty clusters is at least this. Requirement 1 (§3) wants
    /// partitions whose elements compress well under reference encoding;
    /// a split whose clusters are near-singletons destroys every
    /// reference-encoding candidate while multiplying per-graph overhead,
    /// so it is treated as "no usable cluster structure" (the element is
    /// cohesive) rather than applied.
    pub min_mean_cluster_size: u32,
    /// Hard cap on refinement iterations (safety valve; effectively
    /// unreachable for sane inputs).
    pub max_iterations: u64,
    /// Worker threads for the k-means distance/assignment loops (1 =
    /// serial; [`crate::build::build_snode`] overrides this with the
    /// build-level thread count). Refinement *decisions* are unaffected:
    /// the parallel loops are deterministic and the RNG is consumed only
    /// on the serial path (element picks, Forgy initialisation).
    pub threads: u32,
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            pick: PickPolicy::LargestFirst,
            abort_fraction: 0.06,
            kmeans_max_iterations: 30,
            kmeans_ops_budget: 400_000,
            kmeans_attempts: 3,
            min_element_size: 2,
            min_url_split_mean: 128,
            min_mean_cluster_size: 16,
            max_iterations: 10_000_000,
            threads: 1,
        }
    }
}

/// Statistics of a refinement run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Iterations executed.
    pub iterations: u64,
    /// Successful URL splits.
    pub url_splits: u64,
    /// Successful clustered splits.
    pub clustered_splits: u64,
    /// Clustered-split aborts.
    pub clustered_aborts: u64,
}

/// Runs iterative refinement to completion and returns the final partition.
///
/// `urls[p]` must be the full URL of page `p`; `domains[p]` its domain id;
/// `graph` the Web graph.
pub fn refine(
    urls: &[&str],
    domains: &[u32],
    graph: &Graph,
    config: &RefineConfig,
) -> (Partition, RefineStats) {
    assert_eq!(urls.len(), domains.len());
    assert_eq!(urls.len(), graph.num_nodes() as usize);
    let mut partition = Partition::initial(domains);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut stats = RefineStats::default();

    if partition.is_empty() {
        return (partition, stats);
    }

    match config.pick {
        PickPolicy::LargestFirst => {
            refine_largest_first(&mut partition, urls, graph, config, &mut rng, &mut stats);
        }
        PickPolicy::Random => {
            refine_random(&mut partition, urls, graph, config, &mut rng, &mut stats);
        }
    }

    debug_assert!(partition.validate(graph.num_nodes()));
    (partition, stats)
}

/// One refinement attempt on element `idx`; returns whether it split.
fn refine_one(
    partition: &mut Partition,
    idx: u32,
    urls: &[&str],
    graph: &Graph,
    config: &RefineConfig,
    rng: &mut SmallRng,
    stats: &mut RefineStats,
) -> bool {
    // URL split while the element has prefix budget left.
    if let SplitState::Url { depth } = partition.elements[idx as usize].state {
        match try_url_split(partition, idx, depth, urls, config) {
            UrlSplitOutcome::Split => {
                stats.url_splits += 1;
                return true;
            }
            UrlSplitOutcome::Exhausted => {
                // Fall through to clustered split below.
            }
        }
    }
    if try_clustered_split(partition, idx, graph, config, rng) {
        stats.clustered_splits += 1;
        true
    } else {
        stats.clustered_aborts += 1;
        false
    }
}

/// Deterministic policy: a lazy max-heap of (size, element); every element
/// gets exactly one shot per size (children re-enter after splits; failed
/// elements turn sterile and never re-enter). Runs to true exhaustion.
fn refine_largest_first(
    partition: &mut Partition,
    urls: &[&str],
    graph: &Graph,
    config: &RefineConfig,
    rng: &mut SmallRng,
    stats: &mut RefineStats,
) {
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<(usize, u32)> = (0..partition.len() as u32)
        .map(|i| (partition.elements[i as usize].pages.len(), i))
        .collect();
    while let Some((size, idx)) = heap.pop() {
        if stats.iterations >= config.max_iterations {
            break;
        }
        let e = &partition.elements[idx as usize];
        if e.sterile || e.pages.len() != size {
            continue; // stale heap entry
        }
        stats.iterations += 1;
        let before = partition.len() as u32;
        if refine_one(partition, idx, urls, graph, config, rng, stats) {
            // Re-enter the shrunken element and its new siblings.
            heap.push((partition.elements[idx as usize].pages.len(), idx));
            for i in before..partition.len() as u32 {
                heap.push((partition.elements[i as usize].pages.len(), i));
            }
        }
        // On failure the element is sterile (clustered split marks it) or
        // exhausted-and-sterile; either way it does not re-enter.
    }
}

/// The paper's random policy with its consecutive-abort stopping criterion.
fn refine_random(
    partition: &mut Partition,
    urls: &[&str],
    graph: &Graph,
    config: &RefineConfig,
    rng: &mut SmallRng,
    stats: &mut RefineStats,
) {
    let mut consecutive_aborts = 0u64;
    while stats.iterations < config.max_iterations {
        let abort_max = ((partition.len() as f64 * config.abort_fraction).ceil() as u64).max(2);
        if consecutive_aborts >= abort_max {
            break;
        }
        stats.iterations += 1;
        let idx = rng.gen_range(0..partition.len()) as u32;
        if refine_one(partition, idx, urls, graph, config, rng, stats) {
            consecutive_aborts = 0;
        } else {
            consecutive_aborts += 1;
        }
    }
}

enum UrlSplitOutcome {
    /// The element was split into ≥ 2 groups.
    Split,
    /// No prefix up to [`MAX_URL_DEPTH`] discriminates; the element is now
    /// marked [`SplitState::Clustered`].
    Exhausted,
}

/// Attempts URL split at `depth`, deepening past non-discriminating levels
/// (single-group results) until a split happens or the budget runs out.
fn try_url_split(
    partition: &mut Partition,
    idx: u32,
    start_depth: u32,
    urls: &[&str],
    config: &RefineConfig,
) -> UrlSplitOutcome {
    let element = &partition.elements[idx as usize];
    if (element.pages.len() as u32) < config.min_element_size.max(2) {
        partition.elements[idx as usize].state = SplitState::Clustered;
        return UrlSplitOutcome::Exhausted;
    }
    let mut depth = start_depth;
    loop {
        let mut groups: HashMap<&str, Vec<PageId>> = HashMap::new();
        for &p in &partition.elements[idx as usize].pages {
            groups
                .entry(url_prefix(urls[p as usize], depth))
                .or_default()
                .push(p);
        }
        if groups.len() >= 2 {
            // Granularity gate (Requirement 1): prefix groups below the
            // minimum size would spend more on per-graph overhead than
            // reference encoding saves, so they pool into one residual
            // element (still same-domain, same-host-prefix pages) while
            // every sufficiently large group becomes its own element.
            let gate = config.min_url_split_mean.max(1) as usize;
            let mut keyed: Vec<(&str, Vec<PageId>)> = groups.into_iter().collect();
            keyed.sort_by(|a, b| a.0.cmp(b.0));
            let next_state = if depth + 1 > MAX_URL_DEPTH {
                SplitState::Clustered
            } else {
                SplitState::Url { depth: depth + 1 }
            };
            let mut children: Vec<(Vec<PageId>, SplitState)> = Vec::new();
            let mut residual: Vec<PageId> = Vec::new();
            for (_, g) in keyed {
                if g.len() >= gate {
                    children.push((g, next_state));
                } else {
                    residual.extend(g);
                }
            }
            if !residual.is_empty() {
                residual.sort_unstable();
                // Mixed prefixes: URL split would regroup it identically,
                // so only clustered split may refine it further.
                children.push((residual, SplitState::Clustered));
            }
            if children.len() >= 2 {
                partition.apply_split(idx, children);
                return UrlSplitOutcome::Split;
            }
            // Everything pooled into one group: no usable URL structure at
            // this depth or below.
            partition.elements[idx as usize].state = SplitState::Clustered;
            return UrlSplitOutcome::Exhausted;
        }
        if depth >= MAX_URL_DEPTH {
            partition.elements[idx as usize].state = SplitState::Clustered;
            return UrlSplitOutcome::Exhausted;
        }
        depth += 1;
        partition.elements[idx as usize].state = SplitState::Url { depth };
    }
}

/// Attempts clustered split; returns whether the element was split.
fn try_clustered_split(
    partition: &mut Partition,
    idx: u32,
    graph: &Graph,
    config: &RefineConfig,
    rng: &mut SmallRng,
) -> bool {
    let element = &partition.elements[idx as usize];
    let m = element.pages.len();
    if element.sterile || (m as u32) < config.min_element_size.max(2) {
        return false;
    }

    // Supernode-adjacency bit vectors: dimensions are the *other* elements
    // this element points to (the supernode's out-neighbours, Figure 6),
    // numbered in the order the pages' links first reach them: a slot per
    // partition element holds its dimension once it has one.
    const NO_DIM: u32 = u32::MAX;
    let mut dim_of = vec![NO_DIM; partition.len()];
    let mut dims = 0u32;
    let mut vectors = SparseRows::default();
    for &p in &element.pages {
        let others = graph
            .neighbors(p)
            .iter()
            .map(|&t| partition.elem_of[t as usize])
            .filter(|&e| e != idx);
        vectors.push_row(others.map(|e| {
            let dim = &mut dim_of[e as usize];
            if *dim == NO_DIM {
                *dim = dims;
                dims += 1;
            }
            *dim
        }));
    }
    if dims == 0 {
        return false; // nothing to discriminate on
    }

    // k starts at the supernode out-degree; k += 2 per aborted attempt.
    let mut k = dims;
    for _attempt in 0..config.kmeans_attempts.max(1) {
        let outcome = kmeans_binary(
            &vectors,
            dims,
            KMeansParams {
                k,
                max_iterations: config.kmeans_max_iterations,
                max_ops: config.kmeans_ops_budget / u64::from(config.kmeans_attempts.max(1)),
                threads: config.threads,
            },
            rng,
        );
        match outcome {
            KMeansOutcome::Converged {
                assignment,
                non_empty,
            } if non_empty >= 2 => {
                // A usable split must leave clusters big enough to keep
                // reference encoding effective (Requirement 1): shattered
                // output means the element has no real cluster structure.
                if (m as u32) < non_empty * config.min_mean_cluster_size.max(1) {
                    partition.elements[idx as usize].sterile = true;
                    return false;
                }
                // Split into non-empty clusters.
                let kk = (k as usize).clamp(1, m);
                let mut groups: Vec<Vec<PageId>> = vec![Vec::new(); kk];
                let pages = partition.elements[idx as usize].pages.clone();
                for (i, &p) in pages.iter().enumerate() {
                    groups[assignment[i] as usize].push(p);
                }
                groups.retain(|g| !g.is_empty());
                let children = groups
                    .into_iter()
                    .map(|g| (g, SplitState::Clustered))
                    .collect();
                partition.apply_split(idx, children);
                return true;
            }
            KMeansOutcome::Converged { .. } => {
                // Converged to a single cluster: the element is cohesive;
                // a larger k will not help (same fixed point dominates).
                partition.elements[idx as usize].sterile = true;
                return false;
            }
            KMeansOutcome::Aborted => {
                k += 2;
            }
        }
    }
    partition.elements[idx as usize].sterile = true;
    false
}

/// The URL prefix at `depth`: the hostname for depth 0, plus the first
/// `depth` directory segments otherwise. The trailing filename never
/// participates.
#[allow(clippy::needless_range_loop)] // byte positions drive slicing logic
pub fn url_prefix(url: &str, depth: u32) -> &str {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let base = "http://".len().min(url.len());
    // End of hostname.
    let host_end = rest.find('/').map_or(url.len(), |i| base + i);
    if depth == 0 {
        return &url[..host_end];
    }
    // Walk `depth` directory segments past the hostname. The final path
    // segment is the filename and is excluded, so only segments followed by
    // a further '/' count.
    let path = &url[host_end..];
    let mut end = host_end;
    let mut seen = 0u32;
    let bytes = path.as_bytes();
    let mut seg_start = 1usize; // skip leading '/'
    if bytes.is_empty() {
        return &url[..host_end];
    }
    for i in 1..bytes.len() {
        if bytes[i] == b'/' {
            // Segment [seg_start, i) is a directory.
            seen += 1;
            end = host_end + i;
            seg_start = i + 1;
            if seen == depth {
                break;
            }
        }
    }
    let _ = seg_start;
    if seen == 0 {
        &url[..host_end]
    } else {
        &url[..end]
    }
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
        // Element 0 (alpha.edu): host split → www vs cs.
        match try_url_split(&mut p, 0, 0, &urls, &cfg) {
            UrlSplitOutcome::Split => {}
            _ => panic!("host-level split must succeed"),
        }
        assert!(p.validate(6));
        assert_eq!(p.len(), 3);
        // The www.alpha.edu element can split again at directory level.
        let www_idx = p.elem_of[0];
        let depth = match p.elements[www_idx as usize].state {
            SplitState::Url { depth } => depth,
            _ => panic!("www element should still be URL-splittable"),
        };
        assert_eq!(depth, 1);
        match try_url_split(&mut p, www_idx, depth, &urls, &cfg) {
            UrlSplitOutcome::Split => {}
            _ => panic!("directory-level split must succeed"),
        }
        assert!(p.validate(6));
        // /a pages together, /b page separate.
        assert_eq!(p.elem_of[0], p.elem_of[1]);
        assert_ne!(p.elem_of[0], p.elem_of[2]);
    }

    #[test]
    fn url_split_exhausts_to_clustered() {
        // All pages share every prefix level → exhausted.
        let urls = vec![
            "http://h.x.com/a/b/c/p0.html",
            "http://h.x.com/a/b/c/p1.html",
        ];
        let domains = vec![0, 0];
        let mut p = Partition::initial(&domains);
        let cfg = RefineConfig::default();
        match try_url_split(&mut p, 0, 0, &urls, &cfg) {
            UrlSplitOutcome::Exhausted => {}
            _ => panic!("identical prefixes cannot split"),
        }
        assert_eq!(p.elements[0].state, SplitState::Clustered);
    }

    #[test]
    fn clustered_split_separates_by_target_supernode() {
        // Element 0 = {0..8}; element 1 = {8}; element 2 = {9}.
        // Pages 0-3 point into element 1; pages 4-7 into element 2.
        let domains = vec![0, 0, 0, 0, 0, 0, 0, 0, 1, 2];
        let graph = Graph::from_edges(
            10,
            [
                (0, 8),
                (1, 8),
                (2, 8),
                (3, 8),
                (4, 9),
                (5, 9),
                (6, 9),
                (7, 9),
            ],
        );
        let mut p = Partition::initial(&domains);
        let cfg = RefineConfig {
            min_mean_cluster_size: 2,
            ..Default::default()
        };
        // Forgy init can collapse when both seeds land in one group; retry
        // over seeds like the refinement loop's repeated picks would.
        let split = (0..16u64).any(|seed| {
            let mut q = p.clone();
            let mut rng = SmallRng::seed_from_u64(seed);
            try_clustered_split(&mut q, 0, &graph, &cfg, &mut rng) && {
                p = q;
                true
            }
        });
        assert!(split, "no seed produced a clustered split");
        assert!(p.validate(10));
        assert_eq!(p.elem_of[0], p.elem_of[3]);
        assert_eq!(p.elem_of[4], p.elem_of[7]);
        assert_ne!(p.elem_of[0], p.elem_of[4]);
    }

    #[test]
    fn clustered_split_aborts_without_external_links() {
        let urls: Vec<String> = (0..3)
            .map(|i| format!("http://h.x.com/p{i}.html"))
            .collect();
        let _ = urls;
        let domains = vec![0, 0, 0];
        // Only internal links.
        let graph = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut p = Partition::initial(&domains);
        let cfg = RefineConfig::default();
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(!try_clustered_split(&mut p, 0, &graph, &cfg, &mut rng));
    }

    #[test]
    fn refine_end_to_end_small() {
        let (urls, domains) = urls_and_domains();
        let graph = Graph::from_edges(
            6,
            [
                (0, 1),
                (1, 0),
                (2, 4),
                (3, 5),
                (0, 4),
                (1, 4),
                (4, 5),
                (5, 0),
            ],
        );
        let cfg = RefineConfig {
            seed: 7,
            ..Default::default()
        };
        let (p, stats) = refine(&urls, &domains, &graph, &cfg);
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
        let graph = Graph::from_edges(6, [(0, 4), (1, 4), (2, 5), (3, 5), (4, 0)]);
        let cfg = RefineConfig {
            seed: 42,
            ..Default::default()
        };
        let (p1, s1) = refine(&urls, &domains, &graph, &cfg);
        let (p2, s2) = refine(&urls, &domains, &graph, &cfg);
        assert_eq!(s1, s2);
        assert_eq!(p1.elem_of, p2.elem_of);
    }

    #[test]
    fn refine_handles_empty_input() {
        let (p, stats) = refine(
            &[],
            &[],
            &Graph::from_edges(0, []),
            &RefineConfig::default(),
        );
        assert!(p.is_empty());
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn singleton_elements_never_split() {
        let urls = vec!["http://a.x.com/p.html"];
        let domains = vec![0];
        let graph = Graph::from_edges(1, []);
        let (p, _) = refine(&urls, &domains, &graph, &RefineConfig::default());
        assert_eq!(p.len(), 1);
        assert!(p.validate(1));
    }
}
