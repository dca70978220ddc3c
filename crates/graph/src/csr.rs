//! Compressed-sparse-row directed graphs.
//!
//! [`Graph`] is the workspace's canonical in-memory form: an offsets array
//! and a flat, per-source-sorted target array. It is the input to every
//! compressed representation and the ground truth every representation is
//! tested against.

use crate::PageId;

/// Immutable directed graph in compressed-sparse-row form.
///
/// Adjacency lists are sorted ascending and deduplicated. Self-loops are
/// permitted (they occur on the real Web: pages linking to themselves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    offsets: Vec<u64>,
    /// Concatenated, per-source ascending adjacency lists.
    targets: Vec<PageId>,
}

impl Graph {
    /// Builds a graph from an edge list; duplicates are removed, targets are
    /// sorted, and vertex count is fixed at `num_nodes`.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: u32, edges: impl IntoIterator<Item = (PageId, PageId)>) -> Self {
        let mut b = GraphBuilder::new(num_nodes);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Builds a graph from per-vertex adjacency lists (sorted + deduped
    /// internally).
    pub fn from_adjacency(lists: Vec<Vec<PageId>>) -> Self {
        let n = lists.len() as u32;
        let mut b = GraphBuilder::new(n);
        for (u, list) in lists.into_iter().enumerate() {
            for v in list {
                b.add_edge(u as PageId, v);
            }
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: PageId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// The sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: PageId) -> &[PageId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Whether the edge `u → v` exists (binary search: O(log deg)).
    #[inline]
    pub fn has_edge(&self, u: PageId, v: PageId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all edges in `(source, target)` order.
    pub fn edges(&self) -> impl Iterator<Item = (PageId, PageId)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Builds the transpose graph (every edge reversed). The paper calls
    /// this `WGᵀ`; its edges are "backlinks".
    pub fn transpose(&self) -> Graph {
        let n = self.num_nodes() as usize;
        let mut in_deg = vec![0u64; n];
        for &t in &self.targets {
            in_deg[t as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + in_deg[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as PageId; self.targets.len()];
        for u in 0..self.num_nodes() {
            for &v in self.neighbors(u) {
                targets[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        // Sources are visited in ascending order, so each reversed list is
        // already sorted; no per-list sort needed.
        Graph { offsets, targets }
    }

    /// Mean out-degree (0 for the empty graph).
    pub fn mean_out_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / f64::from(self.num_nodes())
        }
    }

    /// Heap the two arrays hold, in bytes: their capacities, not their
    /// lengths.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u64>()
            + self.targets.capacity() * std::mem::size_of::<PageId>()
    }
}

/// Incremental builder for [`Graph`].
///
/// Edges may be added in any order and duplicates are tolerated. Edges that
/// arrive in `(source, target)` order — every writer of this workspace
/// emits them so — are appended straight to the CSR arrays; one that
/// arrives below its predecessor is kept aside, and only a build that has
/// such edges sorts anything.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: u32,
    /// `offsets[u + 1]` counts the edges of `u` in `targets` until
    /// [`GraphBuilder::build`] sums the counts.
    offsets: Vec<u64>,
    /// Targets of the edges that arrived in order, in that order.
    targets: Vec<PageId>,
    /// The greatest edge so far, which is the last one in `targets`.
    last: Option<(PageId, PageId)>,
    /// Edges that arrived below `last`.
    stragglers: Vec<(PageId, PageId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with exactly `num_nodes` vertices.
    pub fn new(num_nodes: u32) -> Self {
        Self::with_edge_capacity(num_nodes, 0)
    }

    /// Creates a builder with room for `edges` edges arriving in order.
    pub fn with_edge_capacity(num_nodes: u32, edges: usize) -> Self {
        Self {
            num_nodes,
            offsets: vec![0; num_nodes as usize + 1],
            targets: Vec::with_capacity(edges),
            last: None,
            stragglers: Vec::new(),
        }
    }

    /// Number of vertices the final graph will have.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Edges arriving in order that the builder has room for: what
    /// [`GraphBuilder::with_edge_capacity`] reserved, unless more came.
    pub fn edge_capacity(&self) -> usize {
        self.targets.capacity()
    }

    /// Adds the directed edge `u → v`.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    #[inline]
    pub fn add_edge(&mut self, u: PageId, v: PageId) {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "edge ({u}, {v}) outside vertex range 0..{}",
            self.num_nodes
        );
        match self.last {
            Some(last) if (u, v) == last => {}
            Some(last) if (u, v) < last => self.stragglers.push((u, v)),
            _ => {
                self.offsets[u as usize + 1] += 1;
                self.targets.push(v);
                self.last = Some((u, v));
            }
        }
    }

    /// Finalises into CSR form. Edges that all arrived in order are the
    /// target array already; otherwise every edge goes through one sort
    /// and dedup of `(source, target)` pairs.
    pub fn build(mut self) -> Graph {
        let n = self.num_nodes as usize;
        if !self.stragglers.is_empty() {
            let mut edges = std::mem::take(&mut self.stragglers);
            edges.reserve(self.targets.len());
            let mut ordered = self.targets.iter();
            for u in 0..n {
                let degree = self.offsets[u + 1] as usize;
                edges.extend(ordered.by_ref().take(degree).map(|&v| (u as PageId, v)));
            }
            edges.sort_unstable();
            edges.dedup();
            self.offsets.fill(0);
            for &(u, _) in &edges {
                self.offsets[u as usize + 1] += 1;
            }
            self.targets = edges.into_iter().map(|(_, v)| v).collect();
        }
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v];
        }
        self.targets.shrink_to_fit();
        Graph {
            offsets: self.offsets,
            targets: self.targets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[0]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(1), 1);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(3, 2));
    }

    #[test]
    fn duplicate_edges_are_removed() {
        let g = Graph::from_edges(3, [(0, 1), (0, 1), (0, 2), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn out_of_order_insertion_yields_sorted_lists() {
        let g = Graph::from_edges(5, [(0, 4), (0, 1), (0, 3), (0, 2)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let g = Graph::from_edges(3, []);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        for v in 0..3 {
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn self_loops_are_kept() {
        let g = Graph::from_edges(2, [(0, 0), (0, 1)]);
        assert_eq!(g.neighbors(0), &[0, 1]);
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_nodes(), g.num_nodes());
        assert_eq!(t.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(t.has_edge(v, u), "transpose missing edge {v}->{u}");
        }
        // Transpose lists must also be sorted.
        for v in 0..t.num_nodes() {
            let l = t.neighbors(v);
            assert!(l.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let g = diamond();
        assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn edges_iterator_covers_all_edges_in_order() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
    }

    #[test]
    fn from_adjacency_matches_from_edges() {
        let a = Graph::from_adjacency(vec![vec![2, 1], vec![], vec![0]]);
        let b = Graph::from_edges(3, [(0, 1), (0, 2), (2, 0)]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside vertex range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    /// Edge streams in order, reversed, shuffled and with repeats, all of
    /// one edge set: the graph is the set's, whichever path built it.
    #[test]
    fn every_arrival_order_builds_the_same_graph() {
        let n = 60u32;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let set: std::collections::BTreeSet<(u32, u32)> =
            (0..400).map(|_| (next() % n, next() % n)).collect();
        let sorted: Vec<(u32, u32)> = set.iter().copied().collect();
        let mut shuffled = sorted.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, next() as usize % (i + 1));
        }
        let doubled: Vec<(u32, u32)> = sorted.iter().flat_map(|&e| [e, e]).collect();
        let late_repeats: Vec<(u32, u32)> = sorted.iter().chain(&sorted[..50]).copied().collect();
        let one_straggler: Vec<(u32, u32)> =
            sorted[1..].iter().chain(&sorted[..1]).copied().collect();
        let streams = [
            sorted.clone(),
            sorted.iter().rev().copied().collect(),
            shuffled.clone(),
            doubled,
            late_repeats,
            one_straggler,
            shuffled.iter().chain(&shuffled).copied().collect(),
        ];
        for (which, stream) in streams.iter().enumerate() {
            let g = Graph::from_edges(n, stream.iter().copied());
            assert_eq!(g.num_nodes(), n);
            assert!(g.edges().eq(sorted.iter().copied()), "stream {which}");
            assert_eq!(g.offsets.len(), n as usize + 1);
            assert_eq!(g.offsets[n as usize], sorted.len() as u64);
        }
    }

    /// Edges that arrive in order land in the reserved array and nowhere
    /// else: it never grows, nothing is kept aside, and `build` hands the
    /// slack of dropped repeats back.
    #[test]
    fn ordered_edges_never_outgrow_their_reservation() {
        let edges = [(0u32, 1u32), (0, 1), (0, 2), (2, 0), (2, 0), (2, 3), (3, 3)];
        let mut b = GraphBuilder::with_edge_capacity(4, edges.len());
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        assert_eq!(b.edge_capacity(), edges.len());
        assert!(b.stragglers.is_empty() && b.stragglers.capacity() == 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 5);
        assert!(g.targets.capacity() <= 5 + 1);
        assert!(g.heap_bytes() <= 5 * 8 + 6 * 4);
    }

    #[test]
    fn mean_out_degree() {
        let g = diamond();
        assert!((g.mean_out_degree() - 1.25).abs() < 1e-12);
        let empty = Graph::from_edges(0, []);
        assert_eq!(empty.mean_out_degree(), 0.0);
    }
}
