//! Community trawling: small complete-bipartite-core enumeration.
//!
//! "Mining for communities" is the fourth global-access workload the paper
//! names in §1.2, citing Kumar et al.'s *Trawling the Web for emerging
//! cyber-communities* (its reference \[15\]). Trawling's signature of an
//! emerging community is an `(s, t)`-core: `s` *fan* pages that all link to
//! the same `t` *centre* pages. This module implements the iterative
//! pruning + enumeration pipeline of that paper, sized for the cores the
//! original hunted (s, t ≤ ~10):
//!
//! 1. **Pruning**: repeatedly discard potential fans with out-degree < `t`
//!    and potential centres with in-degree < `s` (each removal can trigger
//!    more), shrinking the graph to the part that can still hold cores.
//! 2. **Enumeration**: for each surviving fan, consider the `t`-subsets of
//!    its (pruned) adjacency list; a centre set shared by ≥ `s` fans is a
//!    core. To stay polynomial we enumerate per-fan candidate centre sets
//!    only when the fan's pruned degree is small (the Kumar et al.
//!    inclusion-exclusion argument shows pruning leaves mostly small
//!    degrees), capping the per-fan subset fan-out.

use crate::{Graph, PageId};
use std::collections::HashMap;

/// One discovered `(s, t)`-core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    /// Fan pages (each links to every centre). Sorted, length ≥ `s`.
    pub fans: Vec<PageId>,
    /// Centre pages. Sorted, length == `t`.
    pub centers: Vec<PageId>,
}

/// Parameters for [`trawl`].
#[derive(Debug, Clone, Copy)]
pub struct TrawlParams {
    /// Minimum number of fans.
    pub s: u32,
    /// Number of centres.
    pub t: u32,
    /// Skip fans whose pruned out-degree exceeds this (keeps the subset
    /// enumeration polynomial; Kumar et al. prune to small degrees too).
    pub max_fan_degree: u32,
    /// Stop after this many cores (0 = unlimited).
    pub max_cores: usize,
}

impl Default for TrawlParams {
    fn default() -> Self {
        Self {
            s: 3,
            t: 3,
            max_fan_degree: 24,
            max_cores: 1000,
        }
    }
}

/// Enumerates `(s, t)`-cores of `g`.
///
/// Returned cores are maximal in their fan sets (all fans sharing the
/// centre set are listed) and deduplicated by centre set.
pub fn trawl(g: &Graph, params: &TrawlParams) -> Vec<Core> {
    let n = g.num_nodes() as usize;
    let (s, t) = (params.s.max(1), params.t.max(1));

    // --- Iterative pruning ---------------------------------------------------
    // alive_fan[v]: v may still be a fan; alive_center[v]: may be a centre.
    let transpose = g.transpose();
    let mut alive_fan = vec![true; n];
    let mut alive_center = vec![true; n];
    let mut changed = true;
    let mut fan_deg: Vec<u32> = (0..n as u32).map(|v| g.out_degree(v)).collect();
    let mut center_deg: Vec<u32> = (0..n as u32).map(|v| transpose.out_degree(v)).collect();
    while changed {
        changed = false;
        for v in 0..n {
            if alive_fan[v] && fan_deg[v] < t {
                alive_fan[v] = false;
                changed = true;
                for &c in g.neighbors(v as PageId) {
                    center_deg[c as usize] = center_deg[c as usize].saturating_sub(1);
                }
            }
            if alive_center[v] && center_deg[v] < s {
                alive_center[v] = false;
                changed = true;
                for &f in transpose.neighbors(v as PageId) {
                    fan_deg[f as usize] = fan_deg[f as usize].saturating_sub(1);
                }
            }
        }
    }

    // --- Enumeration ----------------------------------------------------------
    // Candidate centre-set → fans sharing it.
    let mut by_centers: HashMap<Vec<PageId>, Vec<PageId>> = HashMap::new();
    for v in 0..n as u32 {
        if !alive_fan[v as usize] {
            continue;
        }
        let targets: Vec<PageId> = g
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&c| alive_center[c as usize])
            .collect();
        if (targets.len() as u32) < t || targets.len() as u32 > params.max_fan_degree {
            continue;
        }
        // All t-subsets of this fan's centres.
        for_each_subset(&targets, t as usize, &mut |subset| {
            by_centers.entry(subset.to_vec()).or_default().push(v);
        });
    }

    let mut cores: Vec<Core> = by_centers
        .into_iter()
        .filter(|(_, fans)| fans.len() as u32 >= s)
        .map(|(centers, mut fans)| {
            fans.sort_unstable();
            Core { fans, centers }
        })
        .collect();
    cores.sort_by(|a, b| a.centers.cmp(&b.centers));
    if params.max_cores > 0 {
        cores.truncate(params.max_cores);
    }
    cores
}

/// Calls `f` with every `k`-subset of `items` (lexicographic order).
fn for_each_subset(items: &[PageId], k: usize, f: &mut impl FnMut(&[PageId])) {
    if k == 0 || k > items.len() {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    let mut buf: Vec<PageId> = idx.iter().map(|&i| items[i]).collect();
    loop {
        f(&buf);
        // Advance the combination.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + items.len() - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
        for (j, &ij) in idx.iter().enumerate() {
            buf[j] = items[ij];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_a_planted_3x3_core() {
        // Fans 0,1,2 all link to centres 10,11,12 (plus noise).
        let mut edges = vec![];
        for f in 0..3u32 {
            for c in 10..13u32 {
                edges.push((f, c));
            }
        }
        edges.push((0, 5));
        edges.push((4, 10));
        let g = Graph::from_edges(13, edges);
        let cores = trawl(&g, &TrawlParams::default());
        assert_eq!(cores.len(), 1, "exactly the planted core: {cores:?}");
        assert_eq!(cores[0].centers, vec![10, 11, 12]);
        assert_eq!(cores[0].fans, vec![0, 1, 2]);
    }

    #[test]
    fn no_core_in_a_sparse_path() {
        let g = Graph::from_edges(10, (0..9).map(|i| (i, i + 1)));
        assert!(trawl(&g, &TrawlParams::default()).is_empty());
    }

    #[test]
    fn pruning_removes_underqualified_pages() {
        // Only 2 fans share 3 centres; with s=3 nothing qualifies.
        let mut edges = vec![];
        for f in 0..2u32 {
            for c in 5..8u32 {
                edges.push((f, c));
            }
        }
        let g = Graph::from_edges(8, edges);
        assert!(trawl(&g, &TrawlParams::default()).is_empty());
        // With s=2 the same structure is a core.
        let cores = trawl(
            &g,
            &TrawlParams {
                s: 2,
                ..Default::default()
            },
        );
        assert_eq!(cores.len(), 1);
        assert_eq!(cores[0].fans, vec![0, 1]);
    }

    #[test]
    fn overlapping_cores_are_both_found() {
        // Fans {0,1,2} → {10,11,12}; fans {1,2,3} → {11,12,13}.
        let mut edges = vec![];
        for f in 0..3u32 {
            for c in 10..13u32 {
                edges.push((f, c));
            }
        }
        for f in 1..4u32 {
            for c in 11..14u32 {
                edges.push((f, c));
            }
        }
        let g = Graph::from_edges(14, edges);
        let cores = trawl(&g, &TrawlParams::default());
        let center_sets: Vec<&Vec<u32>> = cores.iter().map(|c| &c.centers).collect();
        assert!(center_sets.contains(&&vec![10, 11, 12]));
        assert!(center_sets.contains(&&vec![11, 12, 13]));
    }

    #[test]
    fn max_cores_caps_output() {
        // A 6-fan × 6-centre biclique holds C(6,3)=20 centre subsets.
        let mut edges = vec![];
        for f in 0..6u32 {
            for c in 10..16u32 {
                edges.push((f, c));
            }
        }
        let g = Graph::from_edges(16, edges);
        let cores = trawl(
            &g,
            &TrawlParams {
                max_cores: 5,
                ..Default::default()
            },
        );
        assert_eq!(cores.len(), 5);
    }

    #[test]
    fn huge_degree_fan_is_pruned_down_and_joins_the_core() {
        // Fan 0 links to 399 centres, but only centres 1–3 survive pruning
        // (the rest have in-degree 1 < s). Fan 0's *pruned* list is then
        // {1,2,3}, so it legitimately joins the core — and enumeration
        // never touches the 399-wide raw list (no combinatorial blow-up).
        let mut edges: Vec<(u32, u32)> = (1..400u32).map(|c| (0, c)).collect();
        for f in 400..403u32 {
            for c in 1..4u32 {
                edges.push((f, c));
            }
        }
        let g = Graph::from_edges(403, edges);
        let cores = trawl(&g, &TrawlParams::default());
        assert_eq!(cores.len(), 1);
        assert_eq!(cores[0].centers, vec![1, 2, 3]);
        assert_eq!(cores[0].fans, vec![0, 400, 401, 402]);
    }

    #[test]
    fn raw_degree_cap_applies_after_pruning() {
        // 30 fans × 30 centres biclique: every fan's pruned degree is 30,
        // above max_fan_degree=24, so enumeration skips them all rather
        // than exploding into C(30,3) subsets per fan.
        let mut edges = vec![];
        for f in 0..30u32 {
            for c in 30..60u32 {
                edges.push((f, c));
            }
        }
        let g = Graph::from_edges(60, edges);
        let cores = trawl(&g, &TrawlParams::default());
        assert!(cores.is_empty(), "oversized fans are skipped by design");
    }

    #[test]
    fn subset_enumeration_is_correct() {
        let items = [1u32, 2, 3, 4];
        let mut seen = Vec::new();
        for_each_subset(&items, 2, &mut |s| seen.push(s.to_vec()));
        assert_eq!(
            seen,
            vec![
                vec![1, 2],
                vec![1, 3],
                vec![1, 4],
                vec![2, 3],
                vec![2, 4],
                vec![3, 4]
            ]
        );
        // Degenerate cases.
        let mut count = 0;
        for_each_subset(&items, 0, &mut |_| count += 1);
        for_each_subset(&items, 5, &mut |_| count += 1);
        assert_eq!(count, 0);
    }
}
