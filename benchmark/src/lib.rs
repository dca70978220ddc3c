//! The repository's benchmark: three workloads, ten end-to-end metrics and
//! an outside-in per-layer trace (see `README.md` and `../BENCHMARK.json`).
//! The `wgbench` binary is the command line; the modules are a library so
//! the smoke test can read what the binary writes.

pub mod compare;
pub mod json;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod yardstick;
