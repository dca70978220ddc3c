//! **S-Node representation of Web graphs** — the primary contribution of
//! *Representing Web Graphs* (Raghavan & Garcia-Molina, ICDE 2003),
//! implemented in full.
//!
//! An S-Node representation is a two-level structure over a partition
//! `P = {N1..Nn}` of the repository's pages (§2 of the paper):
//!
//! * the **supernode graph** has one vertex per partition element and a
//!   superedge `i → j` iff some page of `Ni` links into `Nj`; it is Huffman
//!   encoded by supernode in-degree and stays resident in memory, acting as
//!   the index over
//! * per-element **intranode graphs** (links inside `Ni`) and per-superedge
//!   **positive or negative superedge graphs** (the bipartite links
//!   `Ni → Nj`, stored complemented when the complement is smaller), each
//!   compressed with reference encoding + γ-coded gap lists + RLE bit
//!   vectors (§3.1, §3.3).
//!
//! The partition is produced by **iterative refinement** (§3.2): start from
//! the domain partition and split elements by URL prefix (up to three
//! directory levels), largest first, until none splits. The paper's second
//! step, clustered split by k-means, is not implemented (DESIGN.md §4b).
//!
//! Module map:
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`flat`] | — | list collections as one flat array: what the build hands from the page walk to the encoders |
//! | [`section`] | §4.3 | runs of values at the narrowest byte width their bound allows: the one section type every cache arena is cut into |
//! | [`refenc`] | §3.1 | reference selection over the backward affinity graph (a window of preceding lists), list codec |
//! | [`codec`] | — | what is left of a per-directory codec choice: two empty types a frozen caller still names, until ROADMAP item 1(a) |
//! | [`par`] | — | deterministic work-pool layer the build pipeline parallelizes on |
//! | [`partition`] | §3.2 | URL split and the iterative refinement loop |
//! | [`supergraph`] | §3.3 | supernode graph + Huffman encoding + pointer accounting |
//! | [`subgraphs`] | §2, §3.3 | intranode / positive / negative superedge graph codecs; a positive graph's three layouts |
//! | [`bits`] | Table 1 | every bit of a directory, by class of stored material (`wgr stats --bits`) |
//! | [`disk`] | §3.3 | index files, linear ordering, PageID index, domain index |
//! | [`cache`] | §4.3 | memory-budgeted decoded-graph cache with load/unload instrumentation |
//! | [`build`] | §3 | end-to-end construction: refine → renumber → encode → write; WGᵀ over WG's partition |
//! | [`repr`] | §4 | the queryable [`repr::SNode`] handle, the one reader of a directory (queries, Table 2, global access) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(clippy::expect_used, clippy::panic)]

pub mod bits;
pub mod build;
// The sharded cache and its event log.
#[allow(clippy::disallowed_types)]
pub mod cache;
pub mod codec;
pub mod disk;
pub mod flat;
pub mod integrity;
pub mod par;
pub mod partition;
pub mod refenc;
// The shared `SNode` handle's scratch pools, degradation state and
// verified-blob bitset.
#[allow(clippy::disallowed_types)]
pub mod repr;
pub mod section;
pub mod subgraphs;
pub mod supergraph;

pub use build::{
    build_snode, build_snode_sharded, build_snode_transpose, BuildStats, RepoInput, SNodeConfig,
    StageTimings,
};
pub use codec::{CodecConfig, ListCodec};
pub use disk::{Blob, Renumbering};
pub use integrity::{IntegrityCounters, IntegrityManifest, DIRECTORY_VERSION, SUMS_FILE};
pub use repr::{DegradedReport, SNode};

/// Errors produced while building, writing, or reading an S-Node
/// representation.
#[derive(Debug)]
pub enum SNodeError {
    /// Bit-level decoding failure inside a stored graph.
    Bits(wg_bitio::BitError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Filesystem failure on a known file — carries the path so CLI
    /// diagnostics can name the missing or short file.
    FileIo {
        /// Path the failed operation targeted.
        path: std::path::PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Structural inconsistency in the on-disk representation.
    Corrupt(&'static str),
}

impl SNodeError {
    /// Wraps an I/O error with the path it occurred on.
    pub fn file_io(path: impl Into<std::path::PathBuf>, source: std::io::Error) -> Self {
        SNodeError::FileIo {
            path: path.into(),
            source,
        }
    }
}

impl std::fmt::Display for SNodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SNodeError::Bits(e) => write!(f, "bit-level decode error: {e}"),
            SNodeError::Io(e) => write!(f, "I/O error: {e}"),
            SNodeError::FileIo { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            SNodeError::Corrupt(w) => write!(f, "corrupt S-Node representation: {w}"),
        }
    }
}

impl std::error::Error for SNodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SNodeError::Bits(e) => Some(e),
            SNodeError::Io(e) => Some(e),
            SNodeError::FileIo { source, .. } => Some(source),
            SNodeError::Corrupt(_) => None,
        }
    }
}

impl From<wg_bitio::BitError> for SNodeError {
    fn from(e: wg_bitio::BitError) -> Self {
        SNodeError::Bits(e)
    }
}

impl From<std::io::Error> for SNodeError {
    fn from(e: std::io::Error) -> Self {
        SNodeError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SNodeError>;
