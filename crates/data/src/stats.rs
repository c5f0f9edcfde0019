//! Distribution statistics for analyzing partitions.

/// Counts of each class among `labels`.
///
/// # Panics
///
/// Panics if any label is `>= num_classes`.
pub fn class_histogram(labels: &[usize], num_classes: usize) -> Vec<usize> {
    let mut hist = vec![0usize; num_classes];
    for &y in labels {
        assert!(y < num_classes, "label {y} out of range");
        hist[y] += 1;
    }
    hist
}

/// Normalized label distribution of the samples selected by `indices`.
///
/// Returns all-zeros when `indices` is empty.
///
/// # Panics
///
/// Panics if an index or label is out of range.
pub fn label_distribution(labels: &[usize], indices: &[usize], num_classes: usize) -> Vec<f64> {
    let mut hist = vec![0.0f64; num_classes];
    for &i in indices {
        let y = labels[i];
        assert!(y < num_classes, "label {y} out of range");
        hist[y] += 1.0;
    }
    let total: f64 = hist.iter().sum();
    if total > 0.0 {
        for h in &mut hist {
            *h /= total;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts() {
        assert_eq!(class_histogram(&[0, 1, 1, 2], 3), vec![1, 2, 1]);
        assert_eq!(class_histogram(&[], 2), vec![0, 0]);
    }

    #[test]
    fn label_distribution_normalizes() {
        let labels = vec![0, 0, 1, 2];
        let dist = label_distribution(&labels, &[0, 1, 2, 3], 3);
        assert!((dist[0] - 0.5).abs() < 1e-12);
        assert!((dist[1] - 0.25).abs() < 1e-12);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn label_distribution_empty_is_zero() {
        let dist = label_distribution(&[0, 1], &[], 2);
        assert_eq!(dist, vec![0.0, 0.0]);
    }
}
