//! Storage substrate for the baseline Web-graph representations.
//!
//! The paper compares the S-Node representation against, among others, a
//! **relational database** (PostgreSQL storing adjacency lists as rows,
//! B-tree indexed) and **uncompressed files** of adjacency lists. Neither is
//! available as a reusable in-process component, so this crate builds the
//! required machinery from scratch:
//!
//! * [`pager`] — a page-granular file manager (8 KiB pages).
//! * [`buffer`] — a clock (second-chance) buffer pool with a byte budget,
//!   standing in for PostgreSQL's `shared_buffers` so the §4.3 memory caps
//!   apply to the relational baseline the way the paper applied them.
//! * [`btree`] — an on-disk B+tree (`u64 → u64`) used for the page-ID and
//!   domain indexes.
//! * [`heap`] — slotted heap pages with overflow chains for rows larger
//!   than a page (high in-degree pages in the transpose graph).
//! * [`relational`] — the PostgreSQL-substitute graph store built on the
//!   above.
//! * [`files`] — the plain uncompressed-file baseline: raw `u32` adjacency
//!   arrays with an in-memory offset index, one `pread` per list access.
//! * [`region`] — shared immutable byte regions, the safe `mmap` stand-in
//!   behind the S-Node zero-copy resident read path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(clippy::expect_used, clippy::panic)]

pub mod btree;
// The buffer pool's mutex.
#[allow(clippy::disallowed_types)]
pub mod buffer;
// Process-wide disk-model settings and read counters, set before a run.
#[allow(clippy::disallowed_types)]
pub mod diskmodel;
pub mod files;
pub mod heap;
pub mod pager;
pub mod region;
pub mod relational;

pub use region::{Region, RegionSlice};

/// Size of every on-disk page in this crate.
pub const PAGE_SIZE: usize = 8192;

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Structural corruption detected in a page or index.
    Corrupt(&'static str),
    /// A fixed-capacity structure was asked to hold more than it can.
    Full(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Corrupt(w) => write!(f, "storage corruption: {w}"),
            StoreError::Full(w) => write!(f, "storage capacity exceeded: {w}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;
