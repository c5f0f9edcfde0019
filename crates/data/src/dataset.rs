//! Labeled dataset container and mini-batch iteration.

use crate::DataError;
use fedpkd_rng::Rng;
use fedpkd_tensor::Tensor;

/// A labeled dataset: a feature tensor whose first dimension indexes samples
/// plus one integer label per sample.
///
/// Vector-mode data has shape `[n, d]`; image-mode data `[n, c, h, w]`.
///
/// # Examples
///
/// ```
/// use fedpkd_data::Dataset;
/// use fedpkd_tensor::Tensor;
///
/// let features = Tensor::from_vec(vec![0.0; 6], &[3, 2]).unwrap();
/// let ds = Dataset::new(features, vec![0, 1, 0], 2)?;
/// assert_eq!(ds.len(), 3);
/// # Ok::<(), fedpkd_data::DataError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating that labels match the feature rows and
    /// lie within `0..num_classes`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LabelCountMismatch`] or
    /// [`DataError::LabelOutOfRange`] on invalid input.
    pub fn new(
        features: Tensor,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self, DataError> {
        if features.rows() != labels.len() {
            return Err(DataError::LabelCountMismatch {
                rows: features.rows(),
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&y| y >= num_classes) {
            return Err(DataError::LabelOutOfRange {
                label: bad,
                num_classes,
            });
        }
        Ok(Self {
            features,
            labels,
            num_classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes in the task (not necessarily all present).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The full feature tensor.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// The labels, one per sample.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Width of one sample (product of all non-batch dimensions).
    pub fn sample_dim(&self) -> usize {
        self.features.cols()
    }

    /// Extracts the sub-dataset at the given indices, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let features = self
            .features
            .select_rows(indices)
            .expect("subset index out of bounds");
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Self {
            features,
            labels,
            num_classes: self.num_classes,
        }
    }

    /// Iterates over shuffled mini-batches of at most `batch_size` samples.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batches(&self, batch_size: usize, rng: &mut Rng) -> impl Iterator<Item = Batch> + '_ {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut order);
        (0..self.len()).step_by(batch_size).map(move |start| {
            let indices = order[start..order.len().min(start + batch_size)].to_vec();
            let batch = self.subset(&indices);
            Batch {
                features: batch.features,
                labels: batch.labels,
                indices,
            }
        })
    }
}

/// One mini-batch: features plus aligned labels and their source indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Batch features (first dimension is the batch).
    pub features: Tensor,
    /// Labels aligned with the feature rows.
    pub labels: Vec<usize>,
    /// Original dataset indices of the rows.
    pub indices: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[6, 2]).unwrap();
        Dataset::new(features, vec![0, 1, 2, 0, 1, 2], 3).unwrap()
    }

    #[test]
    fn construction_validates() {
        let f = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            Dataset::new(f.clone(), vec![0], 2),
            Err(DataError::LabelCountMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(f, vec![0, 5], 2),
            Err(DataError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn subset_selects_rows_and_labels() {
        let ds = toy();
        let sub = ds.subset(&[5, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels(), &[2, 0]);
        assert_eq!(sub.features().row(0), &[10.0, 11.0]);
    }

    #[test]
    fn batches_cover_all_samples_once() {
        let ds = toy();
        let mut rng = Rng::seed_from_u64(1);
        let mut seen: Vec<usize> = Vec::new();
        for batch in ds.batches(4, &mut rng) {
            assert!(batch.features.rows() <= 4);
            assert_eq!(batch.features.rows(), batch.labels.len());
            seen.extend(&batch.indices);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn batch_labels_align_with_rows() {
        let ds = toy();
        let mut rng = Rng::seed_from_u64(2);
        for batch in ds.batches(2, &mut rng) {
            for (row, (&idx, &label)) in batch.indices.iter().zip(&batch.labels).enumerate() {
                assert_eq!(batch.features.row(row), ds.features().row(idx));
                assert_eq!(label, ds.labels()[idx]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let ds = toy();
        let mut rng = Rng::seed_from_u64(3);
        let _ = ds.batches(0, &mut rng);
    }

    #[test]
    fn empty_dataset_yields_no_batches() {
        let ds = Dataset::new(Tensor::zeros(&[0, 2]), vec![], 2).unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.batches(4, &mut Rng::seed_from_u64(4)).count(), 0);
    }
}
