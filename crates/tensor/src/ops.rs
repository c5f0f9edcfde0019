//! Free functions on tensors: softmax families and related transforms.
//!
//! These operate row-wise on rank-2 tensors of logits `[batch, classes]` —
//! the shape in which all knowledge transfer in FedPKD happens.

use crate::Tensor;

/// Row-wise softmax with temperature.
///
/// Each row of `logits` is mapped to a probability distribution
/// `softmax(row / temperature)`. Temperature 1 is the plain softmax; higher
/// temperatures soften the distribution (the classic knowledge-distillation
/// trick of Hinton et al.).
///
/// Numerically stabilized by subtracting the row maximum.
///
/// # Panics
///
/// Panics if `temperature <= 0`.
///
/// # Examples
///
/// ```
/// use fedpkd_tensor::{ops, Tensor};
///
/// let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3])?;
/// let p = ops::softmax(&logits, 1.0);
/// assert!((p.as_slice().iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// # Ok::<(), fedpkd_tensor::TensorError>(())
/// ```
pub fn softmax(logits: &Tensor, temperature: f32) -> Tensor {
    assert!(temperature > 0.0, "temperature must be positive");
    let mut out = logits.clone();
    let cols = out.cols();
    if cols == 0 {
        return out;
    }
    for row in out.as_mut_slice().chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut total = 0.0f32;
        for v in row.iter_mut() {
            *v = ((*v - max) / temperature).exp();
            total += *v;
        }
        for v in row.iter_mut() {
            *v /= total;
        }
    }
    out
}

/// Row-wise log-softmax with temperature (numerically stable).
///
/// # Panics
///
/// Panics if `temperature <= 0`.
pub fn log_softmax(logits: &Tensor, temperature: f32) -> Tensor {
    assert!(temperature > 0.0, "temperature must be positive");
    let mut out = logits.clone();
    let cols = out.cols();
    if cols == 0 {
        return out;
    }
    for row in out.as_mut_slice().chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row
            .iter()
            .map(|&v| ((v - max) / temperature).exp())
            .sum::<f32>()
            .ln();
        for v in row.iter_mut() {
            *v = (*v - max) / temperature - log_sum;
        }
    }
    out
}

/// Shannon entropy (nats) of each row of a probability matrix.
///
/// Rows are assumed to be probability distributions; zero entries contribute
/// zero (the `0·ln 0 = 0` convention).
pub fn row_entropy(probs: &Tensor) -> Vec<f32> {
    (0..probs.rows())
        .map(|r| {
            probs
                .row(r)
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| -p * p.ln())
                .sum()
        })
        .collect()
}

/// Variance of each row.
///
/// FedPKD weighs a client's logits for a sample by the variance of that
/// logit vector (Eq. 7): confident predictions have one dominant logit and
/// hence high variance.
pub fn row_variance(x: &Tensor) -> Vec<f32> {
    let cols = x.cols().max(1) as f32;
    (0..x.rows())
        .map(|r| {
            let row = x.row(r);
            let mean: f32 = row.iter().sum::<f32>() / cols;
            row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols
        })
        .collect()
}

/// Sharpens each row of a probability matrix: `p_i^(1/T) / Σ_j p_j^(1/T)`.
///
/// This is the entropy-reduction aggregation of DS-FL (Itahara et al.): with
/// `temperature < 1` the distribution becomes more peaked, reducing the
/// entropy of the aggregated soft labels.
///
/// # Panics
///
/// Panics if `temperature <= 0`.
pub fn sharpen(probs: &Tensor, temperature: f32) -> Tensor {
    assert!(temperature > 0.0, "temperature must be positive");
    let inv_t = 1.0 / temperature;
    let mut out = probs.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let mut total = 0.0f32;
        for v in row.iter_mut() {
            *v = v.max(0.0).powf(inv_t);
            total += *v;
        }
        if total > 0.0 {
            for v in row.iter_mut() {
                *v /= total;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorError;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t(&[1., 2., 3., -1., 0., 1.], &[2, 3]);
        let p = softmax(&x, 1.0);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_preserves_argmax() {
        let x = t(&[0.1, 5.0, -2.0], &[1, 3]);
        let p = softmax(&x, 1.0);
        assert_eq!(p.argmax_rows(), vec![1]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = t(&[1000.0, 1001.0], &[1, 2]);
        let p = softmax(&x, 1.0);
        assert!(p.all_finite());
        assert!((p.as_slice()[0] + p.as_slice()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn high_temperature_softens() {
        let x = t(&[0.0, 4.0], &[1, 2]);
        let sharp = softmax(&x, 1.0);
        let soft = softmax(&x, 10.0);
        assert!(soft.as_slice()[0] > sharp.as_slice()[0]);
        assert!(soft.as_slice()[1] < sharp.as_slice()[1]);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = t(&[0.5, -1.0, 2.0, 0.0, 0.0, 0.0], &[2, 3]);
        let a = log_softmax(&x, 2.0);
        let b = softmax(&x, 2.0).map(f32::ln);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-5, "{u} vs {v}");
        }
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn softmax_rejects_zero_temperature() {
        softmax(&Tensor::zeros(&[1, 2]), 0.0);
    }

    #[test]
    fn entropy_of_uniform_is_ln_k() {
        let p = t(&[0.25; 4], &[1, 4]);
        let h = row_entropy(&p);
        assert!((h[0] - (4.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn entropy_of_onehot_is_zero() {
        let p = t(&[1.0, 0.0, 0.0], &[1, 3]);
        assert_eq!(row_entropy(&p), vec![0.0]);
    }

    #[test]
    fn variance_orders_confidence() {
        // A confident logit vector has higher variance than a flat one.
        let x = t(&[5.0, 0.0, 0.0, 1.0, 1.1, 0.9], &[2, 3]);
        let v = row_variance(&x);
        assert!(v[0] > v[1]);
    }

    #[test]
    fn variance_of_constant_row_is_zero() {
        let x = t(&[2.0, 2.0, 2.0], &[1, 3]);
        assert!(row_variance(&x)[0].abs() < 1e-9);
    }

    #[test]
    fn sharpen_reduces_entropy() {
        let p = t(&[0.5, 0.3, 0.2], &[1, 3]);
        let s = sharpen(&p, 0.5);
        let h_before = row_entropy(&p)[0];
        let h_after = row_entropy(&s)[0];
        assert!(h_after < h_before, "{h_after} !< {h_before}");
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sharpen_with_unit_temperature_is_identity() {
        let p = t(&[0.2, 0.8], &[1, 2]);
        let s = sharpen(&p, 1.0);
        for (a, b) in p.as_slice().iter().zip(s.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn ops_propagate_through_result() -> Result<(), TensorError> {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2])?;
        let _ = softmax(&x, 1.0);
        Ok(())
    }
}
