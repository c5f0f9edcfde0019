//! The FedPKD federated-learning runtime and algorithm.
//!
//! This crate implements the paper's primary contribution — **FedPKD**, a
//! prototype-based knowledge-distillation framework for heterogeneous
//! federated learning — together with the synchronous round engine that
//! drives any federated algorithm over a [`fedpkd_data::FederatedScenario`]
//! while a [`fedpkd_netsim::CommLedger`] accounts every transferred byte
//! and a [`telemetry::RoundObserver`] receives the typed per-round event
//! stream.
//!
//! FedPKD's four mechanisms (§IV of the paper) map to the [`fedpkd`]
//! submodules:
//!
//! | Mechanism | Module | Paper |
//! |---|---|---|
//! | Dual knowledge transfer (logits + prototypes) | [`fedpkd::prototypes`], [`fedpkd::logits`] | Eq. 5 |
//! | Variance-weighted logit aggregation | [`fedpkd::logits`] | Eqs. 6–7 |
//! | Prototype aggregation | [`fedpkd::prototypes`] | Eq. 8 |
//! | Prototype-based data filtering | [`fedpkd::filter`] | Alg. 1, Eqs. 9–10 |
//! | Prototype-based ensemble distillation | [`fedpkd::distill`] | Eqs. 11–13 |
//! | Server knowledge transfer | [`fedpkd::FedPkd`] | Eqs. 14–16 |
//!
//! # Examples
//!
//! Run FedPKD for a few rounds on a small scenario, capturing telemetry:
//!
//! ```
//! use fedpkd_core::driver::Driver;
//! use fedpkd_core::fedpkd::{FedPkd, FedPkdConfig};
//! use fedpkd_core::telemetry::JsonlSink;
//! use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
//! use fedpkd_tensor::models::{DepthTier, ModelSpec};
//!
//! let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
//!     .clients(3).samples(300).public_size(100).global_test_size(100)
//!     .partition(Partition::Dirichlet { alpha: 0.5 })
//!     .seed(1).build()?;
//! let spec = ModelSpec::ResMlp { input_dim: 32, num_classes: 10, tier: DepthTier::T11 };
//! let mut cfg = FedPkdConfig::default();
//! cfg.client_private_epochs = 1;
//! cfg.client_public_epochs = 1;
//! cfg.server_epochs = 1;
//! let mut algo = FedPkd::new(scenario, vec![spec.clone(); 3], spec, cfg, 7)?;
//! let mut sink = JsonlSink::new(Vec::new());
//! let result = Driver::rounds(2).run(&mut algo, &mut sink);
//! assert_eq!(result.history.len(), 2);
//! let trace = String::from_utf8(sink.into_inner()?)?;
//! assert!(trace.lines().count() > 2); // one JSON object per event
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod clients;
pub mod cow;
pub mod driver;
pub mod eval;
pub mod fedpkd;
pub mod fleet;
pub mod remote;
pub mod robust;
pub mod runtime;
pub mod snapshot;
pub mod streaming;
pub mod telemetry;
pub mod train;

pub use admission::{AdmissionPolicy, PayloadKind, QuarantineTracker, RejectReason};
pub use cow::{ClientPool, ClientSlot, ParkedClient};
pub use driver::{Driver, DriverBuilder};
pub use fleet::FleetSim;
pub use remote::RemoteFederation;
pub use robust::{AggregationError, RobustAggregation};
pub use runtime::{Federation, RoundMetrics, RunResult};
pub use snapshot::SnapshotError;
pub use streaming::{LogitAccumulator, PrototypeAccumulator};
pub use telemetry::{
    EventLog, FrameRejectCause, JsonlSink, NullObserver, RoundObserver, TelemetryError,
    TelemetryEvent,
};
