//! Classification metrics.

use crate::Tensor;

/// Fraction of rows whose argmax matches the label.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of logit rows.
///
/// # Examples
///
/// ```
/// use fedpkd_tensor::{metrics, Tensor};
///
/// let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 3.0], &[2, 2])?;
/// assert_eq!(metrics::accuracy(&logits, &[0, 1]), 1.0);
/// # Ok::<(), fedpkd_tensor::TensorError>(())
/// ```
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "one label per row required");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
    correct as f64 / labels.len() as f64
}

/// Per-class accuracy: element `j` is the accuracy over samples whose true
/// label is `j`, or `NaN` when the class has no samples.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of rows or any label is
/// `>= num_classes`.
pub fn per_class_accuracy(logits: &Tensor, labels: &[usize], num_classes: usize) -> Vec<f64> {
    assert_eq!(logits.rows(), labels.len(), "one label per row required");
    let preds = logits.argmax_rows();
    let mut correct = vec![0usize; num_classes];
    let mut total = vec![0usize; num_classes];
    for (&p, &y) in preds.iter().zip(labels) {
        assert!(y < num_classes, "label {y} out of range");
        total[y] += 1;
        if p == y {
            correct[y] += 1;
        }
    }
    correct
        .into_iter()
        .zip(total)
        .map(|(c, t)| {
            if t == 0 {
                f64::NAN
            } else {
                c as f64 / t as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = t(&[1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_empty_is_zero() {
        let logits = Tensor::zeros(&[0, 3]);
        assert_eq!(accuracy(&logits, &[]), 0.0);
    }

    #[test]
    fn per_class_accuracy_splits_by_label() {
        // Class 0 predicted right once of twice; class 1 right always.
        let logits = t(&[1., 0., 0., 1., 0., 1.], &[3, 2]);
        let pca = per_class_accuracy(&logits, &[0, 0, 1], 2);
        assert!((pca[0] - 0.5).abs() < 1e-9);
        assert!((pca[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_class_accuracy_nan_for_absent_class() {
        let logits = t(&[1., 0.], &[1, 2]);
        let pca = per_class_accuracy(&logits, &[0], 2);
        assert!(pca[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn accuracy_validates_lengths() {
        accuracy(&Tensor::zeros(&[2, 2]), &[0]);
    }
}
