//! # FedPKD — prototype-based knowledge distillation for heterogeneous FL
//!
//! A from-scratch Rust reproduction of *“A Prototype-Based Knowledge
//! Distillation Framework for Heterogeneous Federated Learning”*
//! (Lyu et al., ICDCS 2023), including every substrate the paper depends
//! on: a tensor/neural-network library, synthetic CIFAR-like federated
//! datasets, a byte-accurate network simulator, the FedPKD algorithm, and
//! the six baselines it is evaluated against.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`rng`] — deterministic random number generation and distributions
//! - [`tensor`] — tensors, layers, losses, optimizers, models
//! - [`data`] — synthetic datasets, non-IID partitioners, scenarios
//! - [`netsim`] — wire codec, messages, link model, communication ledger
//! - [`core`] — the FL round engine and the FedPKD algorithm
//! - [`baselines`] — FedAvg, FedProx, FedMD, DS-FL, FedDF, FedET, NaiveKD
//!
//! # Quickstart
//!
//! ```
//! use fedpkd::core::driver::Driver;
//! use fedpkd::core::fedpkd::{FedPkd, FedPkdConfig};
//! use fedpkd::data::{Partition, ScenarioBuilder, SyntheticConfig};
//! use fedpkd::tensor::models::{DepthTier, ModelSpec};
//!
//! // A small non-IID federation of 4 clients.
//! let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
//!     .clients(4)
//!     .partition(Partition::Dirichlet { alpha: 0.3 })
//!     .samples(400)
//!     .public_size(100)
//!     .global_test_size(100)
//!     .seed(42)
//!     .build()?;
//!
//! // Heterogeneous clients, larger server.
//! let tiers = [DepthTier::T11, DepthTier::T20, DepthTier::T29, DepthTier::T20];
//! let client_specs: Vec<ModelSpec> = tiers
//!     .iter()
//!     .map(|&tier| ModelSpec::ResMlp { input_dim: 32, num_classes: 10, tier })
//!     .collect();
//! let server_spec = ModelSpec::ResMlp {
//!     input_dim: 32,
//!     num_classes: 10,
//!     tier: DepthTier::T56,
//! };
//!
//! let mut config = FedPkdConfig::default();
//! config.client_private_epochs = 1;
//! config.client_public_epochs = 1;
//! config.server_epochs = 1;
//! let mut algo = FedPkd::new(scenario, client_specs, server_spec, config, 7)?;
//! let result = Driver::rounds(2).run_silent(&mut algo);
//! println!("server accuracy: {:?}", result.last().server_accuracy);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fedpkd_baselines as baselines;
pub use fedpkd_core as core;
pub use fedpkd_data as data;
pub use fedpkd_netsim as netsim;
pub use fedpkd_rng as rng;
pub use fedpkd_tensor as tensor;

/// Commonly used items, importable with `use fedpkd::prelude::*`.
pub mod prelude {
    pub use fedpkd_baselines::{
        BaselineConfig, DsFl, FedAvg, FedDf, FedEt, FedMd, FedProx, NaiveKd,
    };
    pub use fedpkd_core::admission::{
        AdmissionPolicy, PayloadKind, QuarantineTracker, RejectReason,
    };
    pub use fedpkd_core::driver::{Driver, DriverBuilder};
    pub use fedpkd_core::fedpkd::{DistillSource, FedPkd, FedPkdConfig};
    pub use fedpkd_core::fleet::FleetSim;
    pub use fedpkd_core::robust::RobustAggregation;
    pub use fedpkd_core::runtime::{Federation, RoundMetrics, RunResult};
    pub use fedpkd_core::snapshot::SnapshotError;
    pub use fedpkd_core::telemetry::{
        EventLog, FrameRejectCause, JsonlSink, NullObserver, RoundObserver, TelemetryError,
        TelemetryEvent,
    };
    pub use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    pub use fedpkd_netsim::{
        bytes_to_mb, sample_cohort, Attack, Cohort, CohortPolicy, CommLedger, Direction, DropCause,
        FaultPlan, LinkModel, Message, RoundContext,
    };
    pub use fedpkd_rng::Rng;
    pub use fedpkd_tensor::models::{DepthTier, ModelSpec};
    pub use fedpkd_tensor::Tensor;
}
