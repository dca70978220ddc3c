//! Baseline compressed Web-graph representations the paper evaluates
//! S-Node against (§4):
//!
//! * [`huffman_graph`] — the **Plain Huffman** scheme: every page id is
//!   assigned a canonical Huffman code keyed by its in-degree (frequent
//!   targets get short codes), and adjacency lists are stored as γ-coded
//!   degrees followed by Huffman-coded targets.
//! * [`link3`] — a reimplementation of the **Link3 / Connectivity Server**
//!   scheme of Randall et al.: each page may represent its adjacency list
//!   relative to one of the 7 preceding pages (copy bitmap + residual
//!   gaps), with source-relative first-gap coding to exploit URL-order
//!   locality, and bounded reference chains for fast random access.
//! * [`link3::Link3DiskStore`] — the disk-resident variant used in the
//!   Figure 11 query experiments, reading the encoded stream through a
//!   byte-budgeted block cache ("the remaining space was used for
//!   maintaining file buffers").

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod huffman_graph;
pub mod link3;

pub use huffman_graph::HuffmanGraph;
pub use link3::{Link3DiskStore, Link3Graph};

/// Errors from the baseline representations.
#[derive(Debug)]
pub enum BaselineError {
    /// Bit-level decode failure.
    Bits(wg_bitio::BitError),
    /// Storage-layer failure (disk-backed Link3).
    Store(wg_store::StoreError),
    /// I/O failure.
    Io(std::io::Error),
    /// Structural inconsistency.
    Corrupt(&'static str),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Bits(e) => write!(f, "bit-level decode error: {e}"),
            BaselineError::Store(e) => write!(f, "storage error: {e}"),
            BaselineError::Io(e) => write!(f, "I/O error: {e}"),
            BaselineError::Corrupt(w) => write!(f, "corrupt representation: {w}"),
        }
    }
}

impl std::error::Error for BaselineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BaselineError::Bits(e) => Some(e),
            BaselineError::Store(e) => Some(e),
            BaselineError::Io(e) => Some(e),
            BaselineError::Corrupt(_) => None,
        }
    }
}

impl From<wg_bitio::BitError> for BaselineError {
    fn from(e: wg_bitio::BitError) -> Self {
        BaselineError::Bits(e)
    }
}
impl From<wg_store::StoreError> for BaselineError {
    fn from(e: wg_store::StoreError) -> Self {
        BaselineError::Store(e)
    }
}
impl From<std::io::Error> for BaselineError {
    fn from(e: std::io::Error) -> Self {
        BaselineError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, BaselineError>;
