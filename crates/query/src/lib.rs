//! Query layer: the complex-query workload of §§1.1 and 4.3.
//!
//! The paper's queries combine three views of a repository — text predicates
//! (phrase containment), relational predicates (domain, PageRank), and
//! graph navigation. This crate provides:
//!
//! * [`index`] — the auxiliary indexes every scheme shares: an inverted
//!   phrase index, a PageRank index, and the domain table. (The paper
//!   hosts these outside the graph representation and excludes their
//!   access time from its measurements; so do we.)
//! * [`GraphRep`] — the access trait each Web-graph representation
//!   implements; all reported *navigation time* is time spent inside it.
//! * [`reps`] — adapters wrapping every representation in the workspace:
//!   S-Node, Link3 (disk), the relational store, and uncompressed files —
//!   the four schemes of Figure 11.
//! * [`queries`] — executable implementations of Queries 1–6 of Table 3,
//!   with hand-crafted plans mirroring the paper's (§4.3), plus workload
//!   discovery that picks phrase/domain parameters with non-trivial
//!   selectivity from a generated corpus.
//! * [`obsrun`] — an observed workload runner that wraps each query in
//!   metric-registry snapshots and reports per-query costs (pages
//!   fetched, lists decoded, cache hits) plus result fingerprints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod index;
pub mod obsrun;
pub mod queries;
pub mod reps;

pub use index::{DomainTable, PageRankIndex, TextIndex};
pub use reps::Scheme;

use wg_graph::PageId;

/// Errors surfaced while executing queries.
#[derive(Debug)]
pub enum QueryError {
    /// The underlying graph representation failed.
    Rep(Box<dyn std::error::Error + Send + Sync>),
    /// A query was mis-parameterised (e.g. unknown phrase).
    BadQuery(&'static str),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Rep(e) => write!(f, "representation error: {e}"),
            QueryError::BadQuery(w) => write!(f, "bad query: {w}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, QueryError>;

/// Uniform access to a Web-graph representation.
///
/// `out_neighbors` returns the sorted adjacency list of `p`. Navigation
/// time — the paper's reported metric — is exactly the wall-clock time
/// spent inside this trait's methods. Implementations for the transpose
/// graph expose backlinks through the same method.
///
/// Every method takes `&self`: representations are shared read handles
/// (DESIGN.md §5f), so one opened scheme can serve any number of threads
/// concurrently. The `Send + Sync` supertraits make `Arc<dyn GraphRep>`
/// the natural server-side handle; per-call mutability (caches, scratch
/// buffers, counters) lives behind each scheme's own interior locks.
pub trait GraphRep: Send + Sync {
    /// Human-readable scheme name (for reports).
    fn scheme_name(&self) -> &'static str;

    /// The sorted adjacency list of `p`.
    fn out_neighbors(&self, p: PageId) -> Result<Vec<PageId>>;

    /// Fills `out` with the sorted adjacency list of `p`, reusing the
    /// caller's buffer. The default delegates to [`GraphRep::out_neighbors`];
    /// schemes with an allocation-free path override it.
    fn out_neighbors_into(&self, p: PageId, out: &mut Vec<PageId>) -> Result<()> {
        out.clear();
        out.extend(self.out_neighbors(p)?);
        Ok(())
    }

    /// Answers `out_neighbors` for every page of `pages`, calling `visit`
    /// exactly once per page **in input order** with its sorted adjacency
    /// list. The default is a scalar loop, so baseline schemes keep their
    /// per-page access counters; S-Node overrides it with frontier
    /// batching (one graph lookup per supernode per batch, §3.4).
    fn out_neighbors_batch(
        &self,
        pages: &[PageId],
        visit: &mut dyn FnMut(PageId, &[PageId]),
    ) -> Result<()> {
        let mut buf = Vec::new();
        for &p in pages {
            self.out_neighbors_into(p, &mut buf)?;
            visit(p, &buf);
        }
        Ok(())
    }

    /// Drops any caches so the next query runs cold.
    fn reset(&self) -> Result<()>;

    /// Degradation summary for schemes with graceful degradation (damaged
    /// graphs quarantined, answers partial); `None` for schemes without a
    /// quarantine path, where any damage is a hard error instead.
    fn degraded(&self) -> Option<wg_snode::DegradedReport> {
        None
    }
}

/// Boxes an arbitrary representation error.
pub fn rep_err<E: std::error::Error + Send + Sync + 'static>(e: E) -> QueryError {
    QueryError::Rep(Box::new(e))
}
