//! The relational-database baseline: adjacency lists as table rows.
//!
//! The paper stores each page's adjacency list as a row in a PostgreSQL
//! table with B-tree indexes on page id and domain, letting the database's
//! buffer manager implement the experiment's memory cap (§4). This module
//! reproduces that architecture in-process:
//!
//! * a [`HeapFile`] holds one row per page: `degree: u32` followed by the
//!   target ids;
//! * a [`BTree`] maps page id → row pointer (the "page-ID index");
//! * a second [`BTree`] maps `(domain, page)` → page (the "domain index"),
//!   queried by key-range scan exactly like a composite B-tree index;
//! * every component reads through a [`BufferPool`] so the total byte
//!   budget is enforced.

use crate::btree::BTree;
use crate::buffer::{BufferPool, CacheStats};
use crate::heap::{HeapFile, RowPtr};
use crate::pager::Pager;
use crate::{Result, StoreError};
use std::path::Path;
use wg_graph::{Graph, PageId};

/// Fraction of the byte budget given to the row heap; the rest is split
/// between the two indexes.
const HEAP_SHARE: f64 = 0.6;
const PAGEID_SHARE: f64 = 0.25;

/// A disk-backed relational graph store (PostgreSQL substitute).
#[derive(Debug)]
pub struct RelationalGraphStore {
    rows: HeapFile,
    pageid_index: BTree,
    domain_index: BTree,
}

impl RelationalGraphStore {
    /// Builds the store for `graph` under `dir`, with each page's domain
    /// given by `domain_of`. `budget_bytes` caps total cached memory.
    pub fn build(
        dir: &Path,
        graph: &Graph,
        domain_of: &[u32],
        budget_bytes: usize,
    ) -> Result<Self> {
        let layout: Vec<PageId> = (0..graph.num_nodes()).collect();
        Self::build_with_layout(dir, graph, domain_of, budget_bytes, &layout)
    }

    /// Like [`RelationalGraphStore::build`], but rows are inserted (and
    /// thus heap-placed) in `layout` order — e.g. crawl order, matching how
    /// a production table would have been populated.
    pub fn build_with_layout(
        dir: &Path,
        graph: &Graph,
        domain_of: &[u32],
        budget_bytes: usize,
        layout: &[PageId],
    ) -> Result<Self> {
        assert_eq!(
            domain_of.len(),
            graph.num_nodes() as usize,
            "one domain per page required"
        );
        assert_eq!(layout.len(), graph.num_nodes() as usize);
        std::fs::create_dir_all(dir)?;
        let mut store = Self::create_files(dir, budget_bytes)?;

        for &p in layout {
            let targets = graph.neighbors(p);
            let mut row = Vec::with_capacity(4 + targets.len() * 4);
            row.extend_from_slice(&(targets.len() as u32).to_le_bytes());
            for &t in targets {
                row.extend_from_slice(&t.to_le_bytes());
            }
            let ptr = store.rows.insert(&row)?;
            store.pageid_index.insert(u64::from(p), ptr.to_u64())?;
            store
                .domain_index
                .insert(domain_key(domain_of[p as usize], p), u64::from(p))?;
        }
        store.flush()?;
        Ok(store)
    }

    /// Reopens a store previously built under `dir`.
    pub fn open(dir: &Path, budget_bytes: usize) -> Result<Self> {
        let (heap_budget, pageid_budget, domain_budget) = split_budget(budget_bytes);
        let rows = HeapFile::open(BufferPool::new(
            Pager::open(&dir.join("rows.heap"))?,
            heap_budget,
        ));
        let pageid_index = BTree::open(BufferPool::new(
            Pager::open(&dir.join("pageid.btree"))?,
            pageid_budget,
        ))?;
        let domain_index = BTree::open(BufferPool::new(
            Pager::open(&dir.join("domain.btree"))?,
            domain_budget,
        ))?;
        Ok(Self {
            rows,
            pageid_index,
            domain_index,
        })
    }

    fn create_files(dir: &Path, budget_bytes: usize) -> Result<Self> {
        let (heap_budget, pageid_budget, domain_budget) = split_budget(budget_bytes);
        let rows = HeapFile::create(BufferPool::new(
            Pager::create(&dir.join("rows.heap"))?,
            heap_budget,
        ));
        let pageid_index = BTree::create(BufferPool::new(
            Pager::create(&dir.join("pageid.btree"))?,
            pageid_budget,
        ))?;
        let domain_index = BTree::create(BufferPool::new(
            Pager::create(&dir.join("domain.btree"))?,
            domain_budget,
        ))?;
        Ok(Self {
            rows,
            pageid_index,
            domain_index,
        })
    }

    /// The adjacency list of `p` (index lookup + row fetch). Shared-receiver:
    /// both structures read through `&self` buffer pools.
    pub fn out_neighbors(&self, p: PageId) -> Result<Vec<PageId>> {
        let Some(ptr) = self.pageid_index.get(u64::from(p))? else {
            return Err(StoreError::Corrupt("page id missing from index"));
        };
        let row = self.rows.read(RowPtr::from_u64(ptr))?;
        decode_row(&row)
    }

    /// All pages in `domain`, via composite-index range scan.
    pub fn pages_in_domain(&self, domain: u32) -> Result<Vec<PageId>> {
        let mut out = Vec::new();
        self.domain_index.range(
            domain_key(domain, 0),
            domain_key(domain, PageId::MAX),
            |_, v| out.push(v as PageId),
        )?;
        Ok(out)
    }

    /// Flushes all dirty pages.
    pub fn flush(&self) -> Result<()> {
        self.rows.pool().flush()?;
        self.pageid_index.pool().flush()?;
        self.domain_index.pool().flush()
    }

    /// Drops all cached pages, cold-starting the next query run.
    pub fn clear_cache(&self) -> Result<()> {
        self.rows.pool().clear()?;
        self.pageid_index.pool().clear()?;
        self.domain_index.pool().clear()
    }

    /// Combined cache statistics across heap + indexes.
    pub fn cache_stats(&self) -> CacheStats {
        let a = self.rows.pool().stats();
        let b = self.pageid_index.pool().stats();
        let c = self.domain_index.pool().stats();
        CacheStats {
            hits: a.hits + b.hits + c.hits,
            misses: a.misses + b.misses + c.misses,
            evictions: a.evictions + b.evictions + c.evictions,
        }
    }
}

/// Composite key `(domain, page)` for the domain index.
fn domain_key(domain: u32, page: PageId) -> u64 {
    (u64::from(domain) << 32) | u64::from(page)
}

fn split_budget(budget_bytes: usize) -> (usize, usize, usize) {
    let heap = (budget_bytes as f64 * HEAP_SHARE) as usize;
    let pageid = (budget_bytes as f64 * PAGEID_SHARE) as usize;
    let domain = budget_bytes.saturating_sub(heap + pageid);
    (heap, pageid, domain)
}

fn decode_row(row: &[u8]) -> Result<Vec<PageId>> {
    if row.len() < 4 {
        return Err(StoreError::Corrupt("row shorter than its header"));
    }
    let degree = u32::from_le_bytes([row[0], row[1], row[2], row[3]]) as usize;
    if row.len() != 4 + degree * 4 {
        return Err(StoreError::Corrupt("row length does not match degree"));
    }
    let mut out = Vec::with_capacity(degree);
    for i in 0..degree {
        let off = 4 + i * 4;
        out.push(u32::from_le_bytes([
            row[off],
            row[off + 1],
            row[off + 2],
            row[off + 3],
        ]));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_store_rel_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_graph() -> (Graph, Vec<u32>) {
        let g = Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (5, 1),
            ],
        );
        let domains = vec![0, 0, 1, 1, 1, 2];
        (g, domains)
    }

    #[test]
    fn adjacency_round_trips() {
        let dir = temp_dir("adj");
        let (g, doms) = sample_graph();
        let store = RelationalGraphStore::build(&dir, &g, &doms, 1 << 20).unwrap();
        for p in 0..g.num_nodes() {
            assert_eq!(store.out_neighbors(p).unwrap(), g.neighbors(p), "page {p}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn domain_scan_returns_members_sorted() {
        let dir = temp_dir("dom");
        let (g, doms) = sample_graph();
        let store = RelationalGraphStore::build(&dir, &g, &doms, 1 << 20).unwrap();
        assert_eq!(store.pages_in_domain(0).unwrap(), vec![0, 1]);
        assert_eq!(store.pages_in_domain(1).unwrap(), vec![2, 3, 4]);
        assert_eq!(store.pages_in_domain(2).unwrap(), vec![5]);
        assert!(store.pages_in_domain(9).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_preserves_everything() {
        let dir = temp_dir("reopen");
        let (g, doms) = sample_graph();
        {
            RelationalGraphStore::build(&dir, &g, &doms, 1 << 20).unwrap();
        }
        let store = RelationalGraphStore::open(&dir, 1 << 20).unwrap();
        for p in 0..g.num_nodes() {
            assert_eq!(store.out_neighbors(p).unwrap(), g.neighbors(p));
        }
        assert_eq!(store.pages_in_domain(1).unwrap(), vec![2, 3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn large_graph_with_tight_budget() {
        let dir = temp_dir("tight");
        // 2000 pages, ~10 links each; budget of ~8 pages of cache forces
        // heavy eviction on both build and read paths.
        let n = 2_000u32;
        let edges = (0..n).flat_map(|u| (1..=10u32).map(move |k| (u, (u + k * 37) % n)));
        let g = Graph::from_edges(n, edges);
        let doms: Vec<u32> = (0..n).map(|p| p % 13).collect();
        let store = RelationalGraphStore::build(&dir, &g, &doms, 64 * 1024).unwrap();
        for p in (0..n).step_by(173) {
            assert_eq!(store.out_neighbors(p).unwrap(), g.neighbors(p));
        }
        let d5 = store.pages_in_domain(5).unwrap();
        assert_eq!(d5.len(), (0..n).filter(|p| p % 13 == 5).count());
        let stats = store.cache_stats();
        assert!(stats.evictions > 0, "tight budget must evict");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_cache_forces_cold_reads() {
        let dir = temp_dir("cold");
        let (g, doms) = sample_graph();
        let store = RelationalGraphStore::build(&dir, &g, &doms, 1 << 20).unwrap();
        store.out_neighbors(0).unwrap();
        store.clear_cache().unwrap();
        let before = store.cache_stats();
        store.out_neighbors(0).unwrap();
        let after = store.cache_stats();
        assert!(after.misses > before.misses, "cold read must miss");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn high_degree_rows_overflow_correctly() {
        let dir = temp_dir("wide");
        // One page with 5000 out-links: the row (20 KB) spans overflow pages.
        let n = 5_001u32;
        let edges = (1..n).map(|t| (0u32, t));
        let g = Graph::from_edges(n, edges);
        let doms = vec![0u32; n as usize];
        let store = RelationalGraphStore::build(&dir, &g, &doms, 1 << 20).unwrap();
        let nb = store.out_neighbors(0).unwrap();
        assert_eq!(nb.len(), 5_000);
        assert_eq!(nb, g.neighbors(0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
