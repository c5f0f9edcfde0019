//! Parameter (de)serialization and byte-size accounting.
//!
//! FedAvg-family algorithms ship whole parameter vectors between clients and
//! the server; the communication experiments (Fig. 3, Table I) need the
//! exact byte cost of doing so. This module flattens any [`Layer`]'s
//! parameters into a `Vec<f32>` (in stable visitation order), restores them,
//! and reports wire sizes.

use crate::nn::Layer;
use crate::TensorError;

/// Bytes used to encode one parameter scalar on the wire.
pub const BYTES_PER_PARAM: usize = std::mem::size_of::<f32>();

/// Flattens all parameters of `model` into a single vector, in the model's
/// stable visitation order.
///
/// # Examples
///
/// ```
/// use fedpkd_rng::Rng;
/// use fedpkd_tensor::nn::Linear;
/// use fedpkd_tensor::serialize::param_vector;
///
/// let mut rng = Rng::seed_from_u64(0);
/// let layer = Linear::new(3, 2, &mut rng);
/// assert_eq!(param_vector(&layer).len(), 3 * 2 + 2);
/// ```
pub fn param_vector(model: &dyn Layer) -> Vec<f32> {
    let mut out = Vec::with_capacity(model.param_count());
    model.visit_params(&mut |p| out.extend_from_slice(p.value.as_slice()));
    out
}

/// Loads a flat parameter vector (as produced by [`param_vector`]) back into
/// `model`.
///
/// # Errors
///
/// Returns [`TensorError::ParamLengthMismatch`] if `values` does not have
/// exactly as many entries as the model has parameters; the model is left
/// unchanged in that case.
pub fn load_param_vector(model: &mut dyn Layer, values: &[f32]) -> Result<(), TensorError> {
    let expected = model.param_count();
    if values.len() != expected {
        return Err(TensorError::ParamLengthMismatch {
            expected,
            actual: values.len(),
        });
    }
    let mut offset = 0usize;
    model.visit_params_mut(&mut |p| {
        let len = p.value.len();
        p.value
            .as_mut_slice()
            .copy_from_slice(&values[offset..offset + len]);
        offset += len;
    });
    Ok(())
}

/// Wire size, in bytes, of shipping this model's full parameter vector.
pub fn param_byte_len(model: &dyn Layer) -> usize {
    model.param_count() * BYTES_PER_PARAM
}

/// Flattens the model's *transferable state* — all parameters followed by
/// all non-trainable buffers (batch-norm running statistics) — into one
/// vector. This is what parameter-averaging FL algorithms must ship: a
/// model restored from parameters alone would evaluate with stale
/// normalization statistics.
pub fn state_vector(model: &dyn Layer) -> Vec<f32> {
    // Sized once: a parked client keeps this vector's capacity.
    let mut out = Vec::with_capacity(state_len(model));
    model.visit_params(&mut |p| out.extend_from_slice(p.value.as_slice()));
    model.visit_buffers(&mut |b| out.extend_from_slice(b));
    out
}

/// Total scalar count of the transferable state (parameters + buffers).
pub fn state_len(model: &dyn Layer) -> usize {
    model.param_count() + model.buffer_count()
}

/// Loads a flat state vector (as produced by [`state_vector`]) back into
/// `model`, restoring parameters and buffers.
///
/// # Errors
///
/// Returns [`TensorError::ParamLengthMismatch`] if `values` does not match
/// [`state_len`]; parameters may be partially written in that case only if
/// the length matched the parameter section (it cannot, since the total is
/// checked first).
pub fn load_state_vector(model: &mut dyn Layer, values: &[f32]) -> Result<(), TensorError> {
    let expected = state_len(model);
    if values.len() != expected {
        return Err(TensorError::ParamLengthMismatch {
            expected,
            actual: values.len(),
        });
    }
    let n_params = model.param_count();
    load_param_vector(model, &values[..n_params])?;
    let mut offset = n_params;
    model.visit_buffers_mut(&mut |b| {
        b.copy_from_slice(&values[offset..offset + b.len()]);
        offset += b.len();
    });
    Ok(())
}

/// Averages several parameter vectors with the given non-negative weights
/// (the FedAvg aggregation of Eq. 1).
///
/// # Errors
///
/// Returns [`TensorError::ParamLengthMismatch`] if the vectors have unequal
/// lengths, or [`TensorError::ShapeDataMismatch`] if no vectors are given or
/// the weights do not match the vectors in number / sum to zero.
pub fn weighted_average(vectors: &[Vec<f32>], weights: &[f64]) -> Result<Vec<f32>, TensorError> {
    if vectors.is_empty() || vectors.len() != weights.len() {
        return Err(TensorError::ShapeDataMismatch {
            expected: vectors.len(),
            actual: weights.len(),
        });
    }
    let len = vectors[0].len();
    for v in vectors {
        if v.len() != len {
            return Err(TensorError::ParamLengthMismatch {
                expected: len,
                actual: v.len(),
            });
        }
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || weights.iter().any(|w| *w < 0.0) {
        return Err(TensorError::ShapeDataMismatch {
            expected: 1,
            actual: 0,
        });
    }
    let mut out = vec![0.0f64; len];
    for (vec, &w) in vectors.iter().zip(weights) {
        let w = w / total;
        for (o, &v) in out.iter_mut().zip(vec) {
            *o += w * v as f64;
        }
    }
    Ok(out.into_iter().map(|v| v as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Linear, Relu, Sequential};
    use crate::Tensor;
    use fedpkd_rng::Rng;

    fn model(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Linear::new(3, 4, &mut rng)) as Box<dyn Layer>,
            Box::new(Relu::new()),
            Box::new(Linear::new(4, 2, &mut rng)),
        ])
    }

    #[test]
    fn round_trip_restores_outputs() {
        let mut a = model(1);
        let mut b = model(2);
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut Rng::seed_from_u64(3));
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_ne!(ya, yb, "different seeds give different models");
        let params = param_vector(&a);
        load_param_vector(&mut b, &params).unwrap();
        let yb2 = b.forward(&x, false);
        assert_eq!(ya, yb2, "loading parameters must transplant the model");
    }

    #[test]
    fn length_mismatch_is_rejected_and_leaves_model_intact() {
        let mut m = model(1);
        let before = param_vector(&m);
        let err = load_param_vector(&mut m, &[1.0, 2.0]);
        assert!(matches!(err, Err(TensorError::ParamLengthMismatch { .. })));
        assert_eq!(param_vector(&m), before);
    }

    #[test]
    fn byte_len_counts_f32s() {
        let m = model(1);
        assert_eq!(param_byte_len(&m), m.param_count() * 4);
        assert_eq!(m.param_count(), 3 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn weighted_average_uniform() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0];
        let avg = weighted_average(&[a, b], &[1.0, 1.0]).unwrap();
        assert_eq!(avg, vec![2.0, 3.0]);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let a = vec![0.0f32];
        let b = vec![10.0f32];
        let avg = weighted_average(&[a, b], &[3.0, 1.0]).unwrap();
        assert!((avg[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn weighted_average_rejects_bad_inputs() {
        assert!(weighted_average(&[], &[]).is_err());
        assert!(weighted_average(&[vec![1.0]], &[1.0, 2.0]).is_err());
        assert!(weighted_average(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 1.0]).is_err());
        assert!(weighted_average(&[vec![1.0]], &[0.0]).is_err());
        assert!(weighted_average(&[vec![1.0], vec![2.0]], &[1.0, -1.0]).is_err());
    }

    #[test]
    fn state_vector_includes_batchnorm_statistics() {
        use crate::nn::BatchNorm1d;
        let mut rng = Rng::seed_from_u64(20);
        let mut m = Sequential::new(vec![
            Box::new(Linear::new(3, 4, &mut rng)) as Box<dyn Layer>,
            Box::new(BatchNorm1d::new(4)),
        ]);
        assert_eq!(m.buffer_count(), 8, "running mean + var");
        assert_eq!(state_len(&m), m.param_count() + 8);
        // Train a little so the running stats move off their init.
        for _ in 0..10 {
            let x = Tensor::randn(&[8, 3], 1.0, &mut Rng::seed_from_u64(21));
            m.forward(&x.map(|v| v + 3.0), true);
        }
        let state = state_vector(&m);
        // Transplant into a fresh model: eval outputs must match exactly.
        let mut rng2 = Rng::seed_from_u64(22);
        let mut fresh = Sequential::new(vec![
            Box::new(Linear::new(3, 4, &mut rng2)) as Box<dyn Layer>,
            Box::new(BatchNorm1d::new(4)),
        ]);
        load_state_vector(&mut fresh, &state).unwrap();
        let x = Tensor::randn(&[5, 3], 1.0, &mut Rng::seed_from_u64(23));
        assert_eq!(m.forward(&x, false), fresh.forward(&x, false));
        // Restoring parameters alone would NOT reproduce eval outputs.
        let mut rng3 = Rng::seed_from_u64(24);
        let mut params_only = Sequential::new(vec![
            Box::new(Linear::new(3, 4, &mut rng3)) as Box<dyn Layer>,
            Box::new(BatchNorm1d::new(4)),
        ]);
        load_param_vector(&mut params_only, &param_vector(&m)).unwrap();
        assert_ne!(m.forward(&x, false), params_only.forward(&x, false));
    }

    /// A parked client keeps its state vector's capacity: appending the
    /// batch-norm buffers to a vector reserved for the parameters alone
    /// would double it.
    #[test]
    fn a_batch_norm_models_state_vector_is_sized_once() {
        use crate::models::{DepthTier, ModelSpec};
        use crate::nn::BatchNorm1d;
        let mut rng = Rng::seed_from_u64(25);
        let small = Sequential::new(vec![
            Box::new(Linear::new(3, 4, &mut rng)) as Box<dyn Layer>,
            Box::new(BatchNorm1d::new(4)),
        ]);
        let t56 = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 100,
            tier: DepthTier::T56,
        }
        .build(&mut rng);
        for model in [&small as &dyn Layer, &t56] {
            assert!(model.buffer_count() > 0);
            let state = state_vector(model);
            assert_eq!(state.len(), state_len(model));
            assert_eq!(state.capacity(), state.len());
        }
    }

    #[test]
    fn load_state_vector_validates_length() {
        let mut m = model(3);
        assert!(matches!(
            load_state_vector(&mut m, &[0.0; 2]),
            Err(TensorError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn bufferless_model_state_equals_params() {
        let m = model(4);
        assert_eq!(state_vector(&m), param_vector(&m));
        assert_eq!(state_len(&m), m.param_count());
    }

    #[test]
    fn fedavg_of_identical_models_is_identity() {
        let m = model(7);
        let p = param_vector(&m);
        let avg = weighted_average(&[p.clone(), p.clone(), p.clone()], &[1.0, 2.0, 5.0]).unwrap();
        for (a, b) in avg.iter().zip(&p) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
