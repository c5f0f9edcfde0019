//! Simulated network substrate for federated-learning experiments.
//!
//! The paper's communication results (Fig. 3 and Table I) are byte counts of
//! the payloads exchanged between clients and the server — model updates for
//! FedAvg/FedProx/FedDF, logits (and, in FedPKD, prototypes) for the
//! KD-based methods. This crate makes those numbers *measured* rather than
//! estimated: every payload is a [`Message`] with a binary wire encoding,
//! and a [`CommLedger`] records the exact encoded size of everything that
//! crosses the simulated network, per round, per client, per direction.
//!
//! A simple [`LinkModel`] (bandwidth + latency) converts byte counts into
//! transfer times for straggler analysis, and a seeded [`FaultPlan`] turns
//! those timings plus dropout/outage schedules into deterministic per-round
//! participation [`Cohort`]s.
//!
//! # Examples
//!
//! ```
//! use fedpkd_netsim::{CommLedger, Direction, Message, Wire};
//!
//! let mut ledger = CommLedger::new();
//! let msg = Message::ModelUpdate { params: vec![0.0; 1000] };
//! ledger.record(0, 3, Direction::Uplink, &msg);
//! assert!(ledger.total_bytes() >= 4000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
pub mod chunk;
mod fault;
mod fnv;
mod ledger;
mod link;
mod message;
mod quantize;
pub mod wire;
mod xxh64;

pub use adversary::{Attack, RoundContext};
pub use fault::{sample_cohort, Cohort, CohortPolicy, Deadline, DropCause, FaultPlan};
pub use fnv::Fnv1a;
pub use ledger::{bytes_to_mb, CommLedger, Direction, RoundTraffic, TransferRecord};
pub use link::LinkModel;
pub use message::{Message, PrototypeEntry};
pub use quantize::{QuantizeError, QuantizedLogits};
pub use wire::{Wire, WireError};
pub use xxh64::Xxh64;
