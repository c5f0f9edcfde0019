//! The repo's one benchmark: five named workloads, end-to-end metrics from
//! timed runs, per-layer metrics from traced runs and probes. See
//! `README.md` beside this crate for the tables and how to run it.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod provenance;
pub mod span;
pub mod stats;
pub mod workloads;

// The unit tests exercise the counting allocator, so their binary installs it.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
