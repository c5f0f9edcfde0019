//! FedPKD: prototype-based knowledge distillation for heterogeneous FL.
//!
//! This module is the paper's contribution. The pieces compose as in
//! Algorithm 2:
//!
//! 1. every client trains privately (Eq. 4 in round 0, Eq. 16 afterwards)
//!    and uploads **dual knowledge** — public-set logits and per-class
//!    prototypes (Eq. 5);
//! 2. the server aggregates logits with variance-proportional weights
//!    (Eqs. 6–7, [`logits`]) and prototypes with size-weighted class means
//!    (Eq. 8, [`prototypes`]);
//! 3. the server pseudo-labels the public set (Eq. 9), filters it by
//!    prototype distance (Eq. 10, Algorithm 1, [`filter`]), and trains on
//!    the kept subset with the combined distillation + prototype loss
//!    (Eqs. 11–13, [`distill`]);
//! 4. the server sends back its subset logits, the global prototypes, and
//!    the selection; clients distill from them (Eqs. 14–15).
//!
//! One scenario-diversity extension rides on the same round structure:
//! [`generator`] replaces the shared public dataset with
//! server-synthesized samples ([`DistillSource::Generated`], after
//! FedGen/FedDistill).

mod algorithm;
mod config;
pub mod distill;
pub mod filter;
pub mod generator;
pub mod logits;
pub mod prototypes;
mod session;

pub use algorithm::FedPkd;
pub use config::{CoreError, DistillSource, FedPkdConfig, PROTOTYPE_STALENESS};
pub use distill::ServerDistillStats;
pub use filter::FilterStats;
pub use generator::{Generator, GeneratorStats};
pub use logits::AggregationStats;
pub use prototypes::Prototype;
