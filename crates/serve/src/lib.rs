//! wg-serve: a thread-per-core concurrent query service over the shared
//! read path.
//!
//! The shared-read-path refactor (DESIGN.md §5f) makes every opened
//! representation a `Sync` handle: decoded state is immutable, and all
//! per-call mutability (list memos, page frames, scratch buffers,
//! degradation bookkeeping) hides behind sharded or short critical-section
//! locks. This crate is the payoff: **one** decoded S-Node representation
//! (forward and transpose) serving Queries 1–6 and raw `out_neighbors`
//! navigation to any number of concurrent clients, with no per-connection
//! graph state.
//!
//! Architecture:
//!
//! * [`ServeContext`] owns the auxiliary indexes, the discovered workload,
//!   and the two [`wg_query::GraphRep`] handles, shared via `Arc` across
//!   all workers.
//! * [`Server`] binds a TCP listener; one acceptor thread feeds accepted
//!   connections into a **bounded admission queue**; a fixed pool of
//!   worker threads (default: one per core) drains it, each worker owning
//!   a connection for its whole lifetime. When the queue is full the
//!   acceptor replies `overloaded` and closes — bounded memory, explicit
//!   backpressure, no silent queueing.
//! * [`proto`] defines the length-prefixed binary frames; [`Client`] is
//!   the matching blocking client used by `wgr bench --serve`, the CI
//!   smoke step, and the tests.
//!
//! Degradation follows the wg-fault exit contract: a query answered over a
//! representation with quarantined supernodes still returns rows, but with
//! status [`proto::Status::Degraded`] (the wire analogue of exit code 3);
//! hard failures return [`proto::Status::Error`] (exit code 2).
//!
//! Observability is the workspace's two gates and nothing of its own: each
//! request is a `serve.<op>` span (`--metrics` histograms, `--trace`
//! events), and [`ServerStats`] counts requests, errors, degraded answers
//! and refusals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The server's queues and shared context: `disallowed_types` stays allowed.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, QueryReply};
pub use proto::Status;
pub use server::{ServeConfig, ServeContext, Server, ServerStats};
