//! A compact dense-tensor and neural-network library.
//!
//! The FedPKD paper trains ResNet-family models with PyTorch; no comparably
//! mature deep-learning stack exists in Rust, so this crate implements the
//! training substrate from scratch: row-major `f32` tensors, a layer
//! abstraction with explicit forward/backward passes, the losses the paper
//! uses (cross-entropy, KL-divergence distillation, mean-squared error for
//! prototype regularization), and the Adam optimizer.
//!
//! The crate is deliberately scoped to what federated knowledge distillation
//! needs: mini-batch training of small classifiers, access to the
//! penultimate-layer feature embedding (for prototypes), logit extraction,
//! and byte-accurate parameter serialization (for communication accounting).
//!
//! # Examples
//!
//! Train a two-layer classifier on a toy problem:
//!
//! ```
//! use fedpkd_rng::Rng;
//! use fedpkd_tensor::nn::{Layer, Linear, Relu, Sequential};
//! use fedpkd_tensor::loss::CrossEntropy;
//! use fedpkd_tensor::optim::{Adam, Optimizer};
//! use fedpkd_tensor::Tensor;
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let mut model = Sequential::new(vec![
//!     Box::new(Linear::new(2, 16, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(16, 2, &mut rng)),
//! ]);
//! let x = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[2, 2]).unwrap();
//! let y = vec![0usize, 1];
//! let mut opt = Adam::new(0.05);
//! for _ in 0..50 {
//!     let logits = model.forward(&x, true);
//!     let (loss, grad) = CrossEntropy::new().loss_and_grad(&logits, &y);
//!     assert!(loss.is_finite());
//!     model.backward(&grad);
//!     opt.step(&mut model);
//!     model.zero_grad();
//! }
//! ```
//!
//! The last three calls are the reference form of a training step. The
//! training loops use the fused one,
//! [`models::ClassifierModel::backward_step`]: same bits, one pass over
//! each weight. Both run the one backward every layer writes,
//! [`nn::Layer::backward_with`]: `backward` under a hook that does
//! nothing, the fused step under one that updates each parameter the
//! moment its gradient is final.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod tensor;

pub mod kernels;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod parallel;
pub mod plan;
pub mod serialize;
pub mod step_worker;

pub use error::TensorError;
pub use kernels::{kernel_mode, KernelMode};
pub use tensor::Tensor;
