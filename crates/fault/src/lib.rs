//! `wg-fault` — the robustness substrate of the workspace.
//!
//! Production graph stores take for granted that random access stays safe
//! and available when the bytes underneath are not perfect; nothing in the
//! paper's description of the S-Node format addresses that, so this crate
//! supplies the three missing pieces:
//!
//! * [`crc32c`](mod@crc32c) — a dependency-free CRC-32C (Castagnoli), the checksum the
//!   S-Node integrity manifest (`sums.bin`) and `wgr check`'s physical
//!   pass are built on;
//! * [`plan`] — seeded, deterministic fault plans: bit flips, truncations,
//!   and torn writes applied to the files of a built representation, plus
//!   transient read errors injected at the I/O shim;
//! * [`io`] — the canonical positioned-read helpers every storage crate
//!   routes through. Reads pass a single choke point, which is what makes
//!   transient-fault injection and bounded-backoff retry possible without
//!   touching call sites, and what clippy's `disallowed_methods` enforces
//!   (SN212: no raw `fs::read`/`read_exact`/`read_to_end` outside it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![warn(clippy::expect_used, clippy::panic)]

pub mod crc32c;
// The shim's process-wide transient plan and its counters.
#[allow(clippy::disallowed_types)]
pub mod io;
pub mod plan;

pub use crc32c::crc32c;
pub use io::{
    read_exact_at, read_file, read_file_shared, retries_performed, transient_faults_injected,
    TransientKind,
};
pub use plan::{AppliedFault, Fault, FaultPlan, FaultSpec};
