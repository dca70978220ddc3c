//! In-memory Web-graph kernel.
//!
//! Everything in this workspace manipulates directed graphs whose vertices
//! are Web pages identified by dense [`PageId`]s. This crate provides the
//! uncompressed substrate those systems are built on and compared against:
//!
//! * [`Graph`] — an immutable compressed-sparse-row adjacency structure with
//!   O(1) list access, plus a [`GraphBuilder`] for incremental construction.
//! * [`traversal`] — BFS, bounded neighbourhoods and frontier expansion (the
//!   primitive operations behind the paper's six complex queries).
//! * [`scc`] — iterative Tarjan strongly-connected components (a "global
//!   access" task from §1.2).
//! * [`pagerank`] — power-iteration PageRank (used both as a global-access
//!   workload and as the ranking index consumed by the query layer).
//! * [`diameter`] — sampled effective-diameter estimation (another §1.2
//!   global task).
//! * [`bowtie`] — Broder-style bow-tie decomposition (the structural
//!   picture the paper's Observation citations rest on).
//! * [`trawl`] — Kumar et al. community trawling (§1.2's "mining for
//!   communities"): complete-bipartite-core enumeration with pruning.
//! * [`hits`] — Kleinberg's HITS over a base set (Query 3 of Table 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod bowtie;
pub mod csr;
pub mod diameter;
pub mod hits;
pub mod pagerank;
pub mod scc;
pub mod traversal;
pub mod trawl;

pub use csr::{Graph, GraphBuilder};

/// Dense page identifier.
///
/// The paper renumbers pages so each supernode owns a contiguous id range
/// (§3.3); ids are therefore plain integers, not URLs. `u32` supports
/// repositories of up to ~4.2 billion pages, far beyond the 115 M pages the
/// paper's largest data set uses.
pub type PageId = u32;
