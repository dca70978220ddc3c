//! Umbrella crate re-exporting the full `webgraph-repr` API surface.
//!
//! This workspace reproduces *Representing Web Graphs* (Raghavan &
//! Garcia-Molina, ICDE 2003): the S-Node two-level Web-graph representation,
//! the baselines it is evaluated against, and the complete evaluation harness.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

pub use wg_analyze as analyze;
pub use wg_baselines as baselines;
pub use wg_bench as bench;
pub use wg_bitio as bitio;
pub use wg_corpus as corpus;
pub use wg_fault as fault;
pub use wg_graph as graph;
pub use wg_obs as obs;
pub use wg_query as query;
pub use wg_serve as serve;
pub use wg_snode as snode;
pub use wg_store as store;
