//! Synthetic federated datasets for the FedPKD reproduction.
//!
//! The paper evaluates on CIFAR-10 and CIFAR-100. Those datasets are not
//! available offline, and the phenomena FedPKD exercises — class-clustered
//! features, client specialization under non-IID partitioning, prototype
//! geometry, an unlabeled public pool — depend on the *class-cluster
//! structure* of the data rather than on natural-image pixels. This crate
//! therefore generates *CIFAR-like* datasets: every class is a mixture of
//! Gaussian modes in feature space (optionally rendered as small images for
//! the convolutional path), with configurable class counts (10 vs 100
//! mirrors the CIFAR-10 vs CIFAR-100 difficulty axis), margins, and label
//! noise.
//!
//! On top of the generator the crate provides the paper's two non-IID
//! partitioners — Dirichlet(α) allocation (Hsu et al.) and the shards method
//! — and a [`ScenarioBuilder`] that assembles the full federated layout:
//! per-client train/test splits, an unlabeled public pool, and a global test
//! set.
//!
//! # Examples
//!
//! ```
//! use fedpkd_data::{ScenarioBuilder, SyntheticConfig, Partition};
//!
//! let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
//!     .clients(4)
//!     .partition(Partition::Dirichlet { alpha: 0.5 })
//!     .public_size(200)
//!     .seed(7)
//!     .build()?;
//! assert_eq!(scenario.clients.len(), 4);
//! assert_eq!(scenario.public.len(), 200);
//! # Ok::<(), fedpkd_data::DataError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
mod partition;
mod scenario;
mod stats;
mod synthetic;

pub use dataset::{Batch, Dataset};
pub use error::DataError;
pub use partition::{partition_indices, Partition};
pub use scenario::{ClientData, FederatedScenario, ScenarioBuilder, ALPHA_SWEEP};
pub use stats::{class_histogram, label_distribution};
pub use synthetic::{DataMode, SyntheticConfig};
