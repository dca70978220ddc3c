//! The uncompressed-file baseline.
//!
//! The paper's worst-performing scheme stores plain uncompressed adjacency
//! lists in files, with the page-ID and domain indexes held permanently in
//! memory (§4.3). One positioned read fetches one adjacency list; there is
//! no compression and no caching beyond what the OS provides — which is the
//! point of the baseline.

use crate::{Result, StoreError};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use wg_graph::{Graph, PageId};

/// Uncompressed adjacency lists in a flat file, with an in-memory offset
/// index.
#[derive(Debug)]
pub struct UncompressedFileStore {
    file: File,
    /// Byte offset of each page's record; one extra entry marks the end.
    offsets: Vec<u64>,
    /// Byte length of each page's record.
    lengths: Vec<u64>,
    /// Pages per domain (the in-memory domain index).
    domain_pages: Vec<Vec<PageId>>,
    /// Number of positioned reads performed.
    #[allow(clippy::disallowed_types)] // A relaxed I/O counter.
    read_count: std::sync::atomic::AtomicU64,
    /// Global counters (`store.files.*`), present only when metrics were
    /// enabled at build time.
    counters: Option<FilesCounters>,
    /// Stream id for simulated-disk seek accounting.
    stream: u64,
}

/// Registry counters for the uncompressed-file baseline's reads.
/// `pages_fetched` counts 8 KiB pages spanned per positioned read.
#[derive(Debug)]
struct FilesCounters {
    reads: wg_obs::Counter,
    pages_fetched: wg_obs::Counter,
}

impl FilesCounters {
    fn auto() -> Option<Self> {
        if !wg_obs::metrics_enabled() {
            return None;
        }
        let reg = wg_obs::global();
        Some(Self {
            reads: reg.counter("store.files.reads"),
            pages_fetched: reg.counter("store.files.pages_fetched"),
        })
    }
}

impl UncompressedFileStore {
    /// Writes `graph` to `path` and returns a reader over it.
    ///
    /// Record format per page: `degree: u32 LE` then `degree` target ids.
    pub fn build(path: &Path, graph: &Graph, domain_of: &[u32]) -> Result<Self> {
        let layout: Vec<PageId> = (0..graph.num_nodes()).collect();
        Self::build_with_layout(path, graph, domain_of, &layout)
    }

    /// Like [`UncompressedFileStore::build`], but records are physically
    /// written in `layout` order (a permutation of the page ids — e.g.
    /// crawl order, which is how a repository's adjacency files actually
    /// arrive on disk; the resident offset index still maps ids directly).
    #[allow(clippy::disallowed_types)] // Starts the I/O counter.
    pub fn build_with_layout(
        path: &Path,
        graph: &Graph,
        domain_of: &[u32],
        layout: &[PageId],
    ) -> Result<Self> {
        assert_eq!(domain_of.len(), graph.num_nodes() as usize);
        assert_eq!(layout.len(), graph.num_nodes() as usize);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut offsets = vec![0u64; graph.num_nodes() as usize + 1];
        let mut lengths = vec![0u64; graph.num_nodes() as usize];
        {
            let mut w = BufWriter::new(&file);
            let mut pos = 0u64;
            for &p in layout {
                offsets[p as usize] = pos;
                let targets = graph.neighbors(p);
                let degree = u32::try_from(targets.len())
                    .map_err(|_| StoreError::Full("adjacency list exceeds u32 record header"))?;
                w.write_all(&degree.to_le_bytes())?;
                for &t in targets {
                    w.write_all(&t.to_le_bytes())?;
                }
                let len = 4 + targets.len() as u64 * 4;
                lengths[p as usize] = len;
                pos += len;
            }
            offsets[graph.num_nodes() as usize] = pos;
            w.flush()?;
        }
        file.sync_data()?;

        let num_domains = domain_of.iter().copied().max().map_or(0, |d| d + 1);
        let mut domain_pages = vec![Vec::new(); num_domains as usize];
        for (p, &d) in domain_of.iter().enumerate() {
            domain_pages[d as usize].push(p as PageId);
        }

        Ok(Self {
            file,
            offsets,
            lengths,
            domain_pages,
            read_count: std::sync::atomic::AtomicU64::new(0),
            counters: FilesCounters::auto(),
            stream: crate::diskmodel::new_stream(),
        })
    }

    /// Number of pages stored.
    pub fn num_pages(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Positioned reads performed so far.
    pub fn read_count(&self) -> u64 {
        self.read_count.load(Ordering::Relaxed)
    }

    /// Fetches the adjacency list of `p` with one positioned read.
    pub fn out_neighbors(&self, p: PageId) -> Result<Vec<PageId>> {
        let idx = p as usize;
        if idx + 1 >= self.offsets.len() {
            return Err(StoreError::Corrupt("store page id out of range"));
        }
        let start = self.offsets[idx];
        let len = self.lengths[idx] as usize;
        let mut buf = vec![0u8; len];
        self.read_at(&mut buf, start)?;
        crate::diskmodel::charge_read(self.stream, start, len);
        self.read_count.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.counters {
            let page = crate::PAGE_SIZE as u64;
            let pages = if len == 0 {
                0
            } else {
                (start + len as u64 - 1) / page - start / page + 1
            };
            c.reads.inc();
            c.pages_fetched.add(pages);
        }
        if len < 4 {
            return Err(StoreError::Corrupt("record shorter than its header"));
        }
        let degree = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len != 4 + degree * 4 {
            return Err(StoreError::Corrupt("record length mismatch"));
        }
        let mut out = Vec::with_capacity(degree);
        for i in 0..degree {
            let off = 4 + i * 4;
            out.push(u32::from_le_bytes([
                buf[off],
                buf[off + 1],
                buf[off + 2],
                buf[off + 3],
            ]));
        }
        Ok(out)
    }

    /// Pages in `domain`, from the resident domain index.
    pub fn pages_in_domain(&self, domain: u32) -> &[PageId] {
        self.domain_pages
            .get(domain as usize)
            .map_or(&[], |v| v.as_slice())
    }

    /// Bytes the data file occupies.
    pub fn file_bytes(&self) -> u64 {
        self.lengths.iter().sum()
    }

    /// One positioned read through the canonical shim: portable on
    /// non-unix (seek + full-buffer read, `Interrupted` handled), short
    /// reads are errors, transient errors retried with bounded backoff.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        wg_fault::read_exact_at(&self.file, buf, offset)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wg_store_files_{name}_{}", std::process::id()));
        p
    }

    fn sample() -> (Graph, Vec<u32>) {
        let g = Graph::from_edges(5, [(0, 1), (0, 4), (1, 2), (3, 0), (3, 1), (3, 2), (3, 4)]);
        (g, vec![0, 0, 1, 1, 2])
    }

    #[test]
    fn lists_round_trip() {
        let path = temp("rt");
        let (g, doms) = sample();
        let store = UncompressedFileStore::build(&path, &g, &doms).unwrap();
        for p in 0..g.num_nodes() {
            assert_eq!(store.out_neighbors(p).unwrap(), g.neighbors(p));
        }
        assert_eq!(store.num_pages(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_lists_are_fine() {
        let path = temp("empty");
        let g = Graph::from_edges(3, []);
        let store = UncompressedFileStore::build(&path, &g, &[0, 0, 0]).unwrap();
        for p in 0..3 {
            assert!(store.out_neighbors(p).unwrap().is_empty());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn domain_index_contents() {
        let path = temp("dom");
        let (g, doms) = sample();
        let store = UncompressedFileStore::build(&path, &g, &doms).unwrap();
        assert_eq!(store.pages_in_domain(0), &[0, 1]);
        assert_eq!(store.pages_in_domain(1), &[2, 3]);
        assert_eq!(store.pages_in_domain(2), &[4]);
        assert!(store.pages_in_domain(7).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_size_is_exactly_uncompressed() {
        let path = temp("size");
        let (g, doms) = sample();
        let store = UncompressedFileStore::build(&path, &g, &doms).unwrap();
        // 5 headers (4 bytes) + 7 edges (4 bytes) = 48 bytes.
        assert_eq!(store.file_bytes(), 5 * 4 + 7 * 4);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), store.file_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_page_is_error() {
        let path = temp("oob");
        let (g, doms) = sample();
        let store = UncompressedFileStore::build(&path, &g, &doms).unwrap();
        assert!(store.out_neighbors(5).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_count_tracks_accesses() {
        let path = temp("count");
        let (g, doms) = sample();
        let store = UncompressedFileStore::build(&path, &g, &doms).unwrap();
        store.out_neighbors(0).unwrap();
        store.out_neighbors(3).unwrap();
        assert_eq!(store.read_count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
