//! Broder-style bow-tie decomposition of a Web graph.
//!
//! The paper grounds its Web-graph observations in Broder et al.'s "Graph
//! structure in the Web" (its reference \[8\]), whose headline result is the
//! bow-tie: a giant strongly-connected CORE, the IN set that can reach it,
//! the OUT set it reaches, and the remaining TENDRILS/DISCONNECTED pages.
//! Computing this decomposition is a textbook global-access workload for a
//! compressed Web graph.

use crate::scc::tarjan_scc;
use crate::traversal::bfs_distances;
use crate::{Graph, PageId};

/// Which bow-tie region a page belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The giant strongly-connected component.
    Core,
    /// Reaches the core but is not reachable from it.
    In,
    /// Reachable from the core but does not reach it.
    Out,
    /// Everything else (tendrils, tubes, disconnected islands).
    Other,
}

/// The bow-tie decomposition.
#[derive(Debug, Clone)]
pub struct BowTie {
    /// Region per page.
    pub region: Vec<Region>,
    /// Pages in the core.
    pub core: u32,
    /// Pages in IN.
    pub in_set: u32,
    /// Pages in OUT.
    pub out_set: u32,
    /// Pages elsewhere.
    pub other: u32,
}

/// Computes the bow-tie around the largest SCC.
///
/// `g` is the graph; its transpose is derived internally (callers that
/// already hold one can use [`bowtie_with_transpose`]).
pub fn bowtie(g: &Graph) -> BowTie {
    bowtie_with_transpose(g, &g.transpose())
}

/// [`bowtie`] with a caller-provided transpose.
pub fn bowtie_with_transpose(g: &Graph, gt: &Graph) -> BowTie {
    let n = g.num_nodes() as usize;
    if n == 0 {
        return BowTie {
            region: Vec::new(),
            core: 0,
            in_set: 0,
            out_set: 0,
            other: 0,
        };
    }
    let scc = tarjan_scc(g);
    let sizes = scc.component_sizes();
    let giant = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .map(|(i, _)| i as u32)
        .expect("non-empty graph");

    // Any core member works as the BFS anchor.
    let anchor = (0..n)
        .find(|&v| scc.component[v] == giant)
        .expect("giant component non-empty") as PageId;

    // OUT ∪ CORE = reachable from the core; IN ∪ CORE = reaches the core.
    let fwd = bfs_distances(g, anchor);
    let back = bfs_distances(gt, anchor);

    let mut region = Vec::with_capacity(n);
    let (mut core, mut in_set, mut out_set, mut other) = (0u32, 0u32, 0u32, 0u32);
    for v in 0..n {
        let r = if scc.component[v] == giant {
            core += 1;
            Region::Core
        } else if back[v] != u32::MAX {
            in_set += 1;
            Region::In
        } else if fwd[v] != u32::MAX {
            out_set += 1;
            Region::Out
        } else {
            other += 1;
            Region::Other
        };
        region.push(r);
    }
    BowTie {
        region,
        core,
        in_set,
        out_set,
        other,
    }
}

impl std::fmt::Display for BowTie {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = (self.core + self.in_set + self.out_set + self.other).max(1);
        let pct = |x: u32| 100.0 * f64::from(x) / f64::from(total);
        write!(
            f,
            "CORE {} ({:.1}%) | IN {} ({:.1}%) | OUT {} ({:.1}%) | other {} ({:.1}%)",
            self.core,
            pct(self.core),
            self.in_set,
            pct(self.in_set),
            self.out_set,
            pct(self.out_set),
            self.other,
            pct(self.other)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_bowtie() {
        // IN = {0}; CORE = {1,2}; OUT = {3}; disconnected = {4}.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 1), (2, 3)]);
        let bt = bowtie(&g);
        assert_eq!(bt.region[0], Region::In);
        assert_eq!(bt.region[1], Region::Core);
        assert_eq!(bt.region[2], Region::Core);
        assert_eq!(bt.region[3], Region::Out);
        assert_eq!(bt.region[4], Region::Other);
        assert_eq!((bt.core, bt.in_set, bt.out_set, bt.other), (2, 1, 1, 1));
    }

    #[test]
    fn pure_cycle_is_all_core() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let bt = bowtie(&g);
        assert_eq!(bt.core, 4);
        assert_eq!(bt.in_set + bt.out_set + bt.other, 0);
    }

    #[test]
    fn dag_has_core_of_one() {
        // All singleton SCCs; the "giant" is a single vertex (ties broken
        // by component id); everything splits across IN/OUT/Other around it.
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let bt = bowtie(&g);
        assert_eq!(bt.core, 1);
        assert_eq!(bt.core + bt.in_set + bt.out_set + bt.other, 3);
    }

    #[test]
    fn tendril_is_other() {
        // CORE = {0,1}; 2 hangs off IN-side page 3 without reaching core.
        // 3 -> core (IN); 3 -> 2 and 2 goes nowhere: 2 is a tendril.
        let g = Graph::from_edges(4, [(0, 1), (1, 0), (3, 0), (3, 2)]);
        let bt = bowtie(&g);
        assert_eq!(bt.region[3], Region::In);
        assert_eq!(bt.region[2], Region::Other);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []);
        let bt = bowtie(&g);
        assert_eq!(bt.core, 0);
        assert!(bt.region.is_empty());
    }

    #[test]
    fn display_formats_percentages() {
        let g = Graph::from_edges(2, [(0, 1), (1, 0)]);
        let text = format!("{}", bowtie(&g));
        assert!(text.contains("CORE 2 (100.0%)"));
    }
}
