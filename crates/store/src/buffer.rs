//! Clock (second-chance) buffer pool with a byte budget.
//!
//! The §4.3 experiments cap *all* schemes at a fixed amount of memory for
//! graph data. For the relational baseline the paper lets the database's
//! buffer manager handle that cap; this pool plays that role. It caches
//! whole pages, evicts with the clock algorithm, and exposes hit/miss
//! counters.
//!
//! The pool is the storage layer's interior-mutability boundary for the
//! shared read path (DESIGN.md §5f): frames, the page map, the clock hand
//! and the pager all live behind one mutex, so every access API takes
//! `&self` and a pool can sit inside a shared, `Sync` store handle.
//! Page-granular latching was considered and rejected — the pool fronts a
//! *single* file whose closures copy a few bytes out per call, so the
//! critical section is tiny and one lock per pool keeps the eviction and
//! dirty-write-back invariants trivially atomic. Statistics live in shared
//! [`wg_obs::CacheMetrics`] counters (the same struct the core graph cache
//! uses), registered as `store.buffer.*` under `--metrics`.

use crate::pager::{PageNo, Pager};
use crate::{Result, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Cache hit/miss statistics: a point-in-time view over the pool's
/// [`wg_obs::CacheMetrics`] counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests satisfied from the pool.
    pub hits: u64,
    /// Requests that required a physical read.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

/// A fixed-budget page cache in front of a [`Pager`].
#[derive(Debug)]
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    metrics: wg_obs::CacheMetrics,
}

/// The mutable state: everything the clock algorithm touches.
#[derive(Debug)]
struct PoolInner {
    pager: Pager,
    /// Frame storage; each frame holds exactly one page.
    frames: Vec<Frame>,
    /// page → frame index.
    map: HashMap<PageNo, usize>,
    /// Clock hand for second-chance eviction.
    hand: usize,
}

#[derive(Debug)]
struct Frame {
    page_no: PageNo,
    data: Box<[u8; PAGE_SIZE]>,
    referenced: bool,
    dirty: bool,
    occupied: bool,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            page_no: 0,
            data: Box::new([0u8; PAGE_SIZE]),
            referenced: false,
            dirty: false,
            occupied: false,
        }
    }
}

impl BufferPool {
    /// Creates a pool over `pager` holding at most `budget_bytes` of page
    /// data (at least one page).
    pub fn new(pager: Pager, budget_bytes: usize) -> Self {
        let capacity = (budget_bytes / PAGE_SIZE).max(1);
        Self {
            inner: Mutex::new(PoolInner {
                pager,
                frames: (0..capacity).map(|_| Frame::empty()).collect(),
                map: HashMap::with_capacity(capacity),
                hand: 0,
            }),
            metrics: wg_obs::CacheMetrics::auto("store.buffer"),
        }
    }

    /// Number of frames in the pool.
    pub fn capacity(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Cache statistics so far (a view over the obs counters).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            evictions: self.metrics.evictions.get(),
        }
    }

    /// Resets cache statistics.
    pub fn reset_stats(&self) {
        self.metrics.reset();
    }

    /// Number of pages in the underlying file.
    pub fn num_disk_pages(&self) -> PageNo {
        self.inner.lock().pager.num_pages()
    }

    /// Allocates a fresh page (bypasses the cache; the new page is all
    /// zeros on disk and becomes cached on first touch).
    pub fn allocate(&self) -> Result<PageNo> {
        self.inner.lock().pager.allocate()
    }

    /// Reads page `no` through the cache and passes it to `f`. The closure
    /// runs under the pool lock — it must not call back into the pool.
    pub fn with_page<R>(&self, no: PageNo, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        let mut inner = self.inner.lock();
        let idx = inner.fetch(no, &self.metrics)?;
        inner.frames[idx].referenced = true;
        Ok(f(&inner.frames[idx].data))
    }

    /// Reads page `no` through the cache, lets `f` mutate it, and marks the
    /// frame dirty. The closure runs under the pool lock.
    pub fn with_page_mut<R>(
        &self,
        no: PageNo,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let mut inner = self.inner.lock();
        let idx = inner.fetch(no, &self.metrics)?;
        inner.frames[idx].referenced = true;
        inner.frames[idx].dirty = true;
        Ok(f(&mut inner.frames[idx].data))
    }

    /// Writes all dirty frames back and syncs the file.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        for idx in 0..inner.frames.len() {
            if inner.frames[idx].occupied && inner.frames[idx].dirty {
                let no = inner.frames[idx].page_no;
                // Split-borrow through the struct: frame data and pager.
                let PoolInner { pager, frames, .. } = &mut *inner;
                pager.write_page(no, &frames[idx].data)?;
                inner.frames[idx].dirty = false;
            }
        }
        inner.pager.sync()
    }

    /// Drops every cached page (writing dirty ones back first). Used by the
    /// experiments to cold-start a query run.
    pub fn clear(&self) -> Result<()> {
        self.flush()?;
        let mut inner = self.inner.lock();
        for f in &mut inner.frames {
            f.occupied = false;
            f.referenced = false;
        }
        inner.map.clear();
        Ok(())
    }
}

impl PoolInner {
    /// Ensures `no` is resident and returns its frame index.
    fn fetch(&mut self, no: PageNo, metrics: &wg_obs::CacheMetrics) -> Result<usize> {
        if let Some(&idx) = self.map.get(&no) {
            metrics.hits.inc();
            return Ok(idx);
        }
        metrics.misses.inc();
        let idx = self.victim()?;
        if self.frames[idx].occupied {
            if self.frames[idx].dirty {
                self.pager
                    .write_page(self.frames[idx].page_no, &self.frames[idx].data)?;
            }
            self.map.remove(&self.frames[idx].page_no);
            metrics.evictions.inc();
        }
        self.pager.read_page(no, &mut self.frames[idx].data)?;
        metrics.bytes_loaded.add(PAGE_SIZE as u64);
        self.frames[idx].page_no = no;
        self.frames[idx].occupied = true;
        self.frames[idx].dirty = false;
        self.frames[idx].referenced = false;
        self.map.insert(no, idx);
        Ok(idx)
    }

    /// Clock sweep: returns a frame to (re)use.
    fn victim(&mut self) -> Result<usize> {
        // First, any unoccupied frame.
        if let Some(idx) = self.frames.iter().position(|f| !f.occupied) {
            return Ok(idx);
        }
        // Second chance: clear ref bits until a victim appears. Two full
        // sweeps guarantee termination.
        for _ in 0..self.frames.len() * 2 + 1 {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[idx].referenced {
                self.frames[idx].referenced = false;
            } else {
                return Ok(idx);
            }
        }
        unreachable!("clock sweep always finds a victim within two passes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(name: &str, pages: usize, budget_pages: usize) -> (BufferPool, std::path::PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!("wg_store_pool_{name}_{}", std::process::id()));
        let mut pager = Pager::create(&path).unwrap();
        for i in 0..pages {
            let no = pager.allocate().unwrap();
            let mut page = [0u8; PAGE_SIZE];
            page[0] = i as u8;
            pager.write_page(no, &page).unwrap();
        }
        (BufferPool::new(pager, budget_pages * PAGE_SIZE), path)
    }

    #[test]
    fn hits_after_first_access() {
        let (pool, path) = pool("hits", 4, 4);
        pool.with_page(2, |p| assert_eq!(p[0], 2)).unwrap();
        pool.with_page(2, |p| assert_eq!(p[0], 2)).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn eviction_under_pressure() {
        let (pool, path) = pool("evict", 10, 2);
        for no in 0..10u32 {
            pool.with_page(no, |p| assert_eq!(p[0], no as u8)).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.misses, 10);
        assert_eq!(s.evictions, 8, "2 frames hold 2 pages; 8 evictions");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dirty_pages_survive_eviction() {
        let (pool, path) = pool("dirty", 5, 1);
        pool.with_page_mut(0, |p| p[100] = 42).unwrap();
        // Touch other pages to force eviction of page 0.
        for no in 1..5u32 {
            pool.with_page(no, |_| ()).unwrap();
        }
        pool.with_page(0, |p| assert_eq!(p[100], 42)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_persists_to_pager() {
        let (pool, path) = pool("flush", 2, 2);
        pool.with_page_mut(1, |p| p[7] = 9).unwrap();
        pool.flush().unwrap();
        // Bypass the pool and read through a fresh pager.
        let pager = Pager::open(&path).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        pager.read_page(1, &mut page).unwrap();
        assert_eq!(page[7], 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clear_cold_starts_the_cache() {
        let (pool, path) = pool("clear", 3, 3);
        for no in 0..3u32 {
            pool.with_page(no, |_| ()).unwrap();
        }
        pool.clear().unwrap();
        pool.reset_stats();
        pool.with_page(0, |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 1, "cache must be cold after clear");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frequently_used_pages_survive_clock_sweep() {
        let (pool, path) = pool("clock", 6, 3);
        // Keep page 0 hot while streaming through the rest.
        for no in 1..6u32 {
            pool.with_page(0, |_| ()).unwrap();
            pool.with_page(no, |_| ()).unwrap();
        }
        pool.reset_stats();
        pool.with_page(0, |_| ()).unwrap();
        assert_eq!(pool.stats().hits, 1, "hot page should still be resident");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_below_one_page_still_works() {
        let (pool, path) = pool("tiny", 3, 0);
        assert_eq!(pool.capacity(), 1);
        for no in 0..3u32 {
            pool.with_page(no, |p| assert_eq!(p[0], no as u8)).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_readers_share_one_pool() {
        let (pool, path) = pool("conc", 8, 4);
        let pool = std::sync::Arc::new(pool);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..50u32 {
                        let no = round % 8;
                        pool.with_page(no, |p| assert_eq!(p[0], no as u8)).unwrap();
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 4 * 50);
        std::fs::remove_file(&path).ok();
    }
}
