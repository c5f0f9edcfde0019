//! The CIFAR-like synthetic dataset generator.

use crate::{DataError, Dataset};
use fedpkd_rng::Rng;
use fedpkd_tensor::Tensor;

/// Whether samples are flat feature vectors or small images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Flat `[n, dim]` feature vectors (used by the evaluation harness — the
    /// residual-MLP models consume these).
    Vector {
        /// Feature dimensionality.
        dim: usize,
    },
    /// `[n, channels, size, size]` images (for the convolutional path).
    Image {
        /// Channel count.
        channels: usize,
        /// Square spatial size.
        size: usize,
    },
}

impl DataMode {
    /// Flattened width of one sample.
    pub fn sample_dim(&self) -> usize {
        match self {
            Self::Vector { dim } => *dim,
            Self::Image { channels, size } => channels * size * size,
        }
    }

    /// The tensor shape for `n` samples.
    pub fn shape(&self, n: usize) -> Vec<usize> {
        match self {
            Self::Vector { dim } => vec![n, *dim],
            Self::Image { channels, size } => vec![n, *channels, *size, *size],
        }
    }
}

/// Configuration of the synthetic class-cluster generator.
///
/// Every class is a mixture of `modes_per_class` Gaussian modes. Class
/// centers are drawn i.i.d. Gaussian and scaled to a common radius
/// (`class_separation`); mode centers scatter around their class center
/// (`mode_spread`); samples scatter around their mode center
/// (`sample_noise`). `label_noise` relabels a fraction of samples uniformly
/// at random, mimicking annotation noise.
///
/// The presets [`cifar10_like`](Self::cifar10_like) and
/// [`cifar100_like`](Self::cifar100_like) mirror the class counts and the
/// relative difficulty of the paper's two datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of classes.
    pub num_classes: usize,
    /// Gaussian modes per class (intra-class multi-modality).
    pub modes_per_class: usize,
    /// Sample layout.
    pub mode: DataMode,
    /// Radius of the sphere on which class centers live.
    pub class_separation: f64,
    /// Standard deviation of mode centers around their class center.
    pub mode_spread: f64,
    /// Standard deviation of samples around their mode center.
    pub sample_noise: f64,
    /// Probability that a sample's label is resampled uniformly.
    pub label_noise: f64,
}

impl SyntheticConfig {
    /// A 10-class preset standing in for CIFAR-10: well-separated classes
    /// with moderate intra-class variation.
    pub fn cifar10_like() -> Self {
        Self {
            num_classes: 10,
            modes_per_class: 2,
            mode: DataMode::Vector { dim: 32 },
            class_separation: 3.0,
            mode_spread: 1.0,
            sample_noise: 1.1,
            label_noise: 0.02,
        }
    }

    /// A 100-class preset standing in for CIFAR-100: ten times the classes
    /// in the same feature budget, hence much higher confusability — the
    /// same difficulty axis as CIFAR-10 → CIFAR-100.
    pub fn cifar100_like() -> Self {
        Self {
            num_classes: 100,
            modes_per_class: 2,
            mode: DataMode::Vector { dim: 48 },
            class_separation: 3.0,
            mode_spread: 1.0,
            sample_noise: 1.4,
            label_noise: 0.02,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if any parameter is degenerate.
    // `!(x > 0.0)` rather than `x <= 0.0`: NaN must be rejected too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), DataError> {
        if self.num_classes < 2 {
            return Err(DataError::InvalidConfig("need at least 2 classes".into()));
        }
        if self.modes_per_class == 0 {
            return Err(DataError::InvalidConfig("need at least 1 mode".into()));
        }
        if self.mode.sample_dim() == 0 {
            return Err(DataError::InvalidConfig("zero sample dimension".into()));
        }
        if !(self.class_separation > 0.0) {
            return Err(DataError::InvalidConfig(
                "class separation must be positive".into(),
            ));
        }
        if self.mode_spread < 0.0 || self.sample_noise < 0.0 {
            return Err(DataError::InvalidConfig("negative noise scale".into()));
        }
        if !(0.0..=1.0).contains(&self.label_noise) {
            return Err(DataError::InvalidConfig(
                "label noise must be a probability".into(),
            ));
        }
        Ok(())
    }

    /// Generates `n` samples with labels distributed uniformly across
    /// classes (up to rounding), shuffled.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if the configuration is invalid.
    pub fn generate(&self, n: usize, rng: &mut Rng) -> Result<Dataset, DataError> {
        self.validate()?;
        let dim = self.mode.sample_dim();
        let k = self.num_classes;

        // Draw class centers on a sphere of radius `class_separation`, then
        // mode centers around them.
        let mut mode_centers: Vec<Vec<f32>> = Vec::with_capacity(k * self.modes_per_class);
        for _ in 0..k {
            let mut center: Vec<f64> = (0..dim).map(|_| rng.standard_normal()).collect();
            let norm = center.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
            for v in &mut center {
                *v *= self.class_separation / norm;
            }
            for _ in 0..self.modes_per_class {
                let mode: Vec<f32> = center
                    .iter()
                    .map(|&c| (c + rng.standard_normal() * self.mode_spread) as f32)
                    .collect();
                mode_centers.push(mode);
            }
        }

        // Assign labels round-robin for near-uniform class balance, then
        // shuffle sample order.
        let mut labels: Vec<usize> = (0..n).map(|i| i % k).collect();
        rng.shuffle(&mut labels);

        let mut data = vec![0.0f32; n * dim];
        for (i, &y) in labels.iter().enumerate() {
            let mode_idx = y * self.modes_per_class + rng.range_usize(0, self.modes_per_class);
            let center = &mode_centers[mode_idx];
            let row = &mut data[i * dim..(i + 1) * dim];
            for (r, &c) in row.iter_mut().zip(center) {
                *r = c + (rng.standard_normal() * self.sample_noise) as f32;
            }
        }

        // Label noise: uniform relabeling.
        if self.label_noise > 0.0 {
            for y in &mut labels {
                if rng.bernoulli(self.label_noise) {
                    *y = rng.range_usize(0, k);
                }
            }
        }

        let features =
            Tensor::from_vec(data, &self.mode.shape(n)).expect("shape matches generated data");
        Dataset::new(features, labels, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_tensor::loss::CrossEntropy;
    use fedpkd_tensor::models::build_mlp;
    use fedpkd_tensor::optim::{Adam, Optimizer};
    use fedpkd_tensor::{metrics, nn::Layer};

    #[test]
    fn generates_requested_size_and_shape() {
        let mut rng = Rng::seed_from_u64(1);
        let cfg = SyntheticConfig::cifar10_like();
        let ds = cfg.generate(100, &mut rng).unwrap();
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.features().shape(), &[100, 32]);
        assert_eq!(ds.num_classes(), 10);
    }

    #[test]
    fn labels_are_near_uniform() {
        let mut rng = Rng::seed_from_u64(2);
        let cfg = SyntheticConfig::cifar10_like();
        let ds = cfg.generate(1000, &mut rng).unwrap();
        let hist = crate::class_histogram(ds.labels(), 10);
        for &c in &hist {
            assert!((80..=120).contains(&c), "class count {c}");
        }
    }

    #[test]
    fn image_mode_shape() {
        let mut rng = Rng::seed_from_u64(3);
        let cfg = SyntheticConfig {
            num_classes: 4,
            mode: DataMode::Image {
                channels: 3,
                size: 8,
            },
            ..SyntheticConfig::cifar10_like()
        };
        let ds = cfg.generate(8, &mut rng).unwrap();
        assert_eq!(ds.features().shape(), &[8, 3, 8, 8]);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = SyntheticConfig::cifar10_like();
        let a = cfg.generate(50, &mut Rng::seed_from_u64(42)).unwrap();
        let b = cfg.generate(50, &mut Rng::seed_from_u64(42)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = SyntheticConfig::cifar10_like();
        cfg.num_classes = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = SyntheticConfig::cifar10_like();
        cfg.modes_per_class = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SyntheticConfig::cifar10_like();
        cfg.label_noise = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = SyntheticConfig::cifar10_like();
        cfg.class_separation = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn classes_are_learnable() {
        // A small MLP must beat chance comfortably on a held-out split —
        // the dataset would be useless for the reproduction otherwise.
        let mut rng = Rng::seed_from_u64(4);
        let cfg = SyntheticConfig::cifar10_like();
        // generate() draws fresh class centers per call, so train and test
        // must be splits of a single generation.
        let all = cfg.generate(800, &mut rng).unwrap();
        let train = all.subset(&(0..600).collect::<Vec<_>>());
        let test = all.subset(&(600..800).collect::<Vec<_>>());

        let mut model = build_mlp(&[32, 64], 10, &mut rng);
        let ce = CrossEntropy::new();
        let mut opt = Adam::new(0.005);
        for _ in 0..30 {
            for batch in train.batches(64, &mut rng) {
                let logits = model.forward_logits(&batch.features, true);
                let (_, grad) = ce.loss_and_grad(&logits, &batch.labels);
                model.backward(&grad);
                opt.step(&mut model);
                model.zero_grad();
            }
        }
        let logits = model.forward_logits(test.features(), false);
        let acc = metrics::accuracy(&logits, test.labels());
        assert!(acc > 0.5, "test accuracy {acc} should beat chance (0.1)");
    }

    #[test]
    fn cifar100_like_is_harder_than_cifar10_like() {
        // Same training budget → lower accuracy on the 100-class preset.
        let run = |cfg: &SyntheticConfig, seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let all = cfg.generate(1000, &mut rng).unwrap();
            let train = all.subset(&(0..800).collect::<Vec<_>>());
            let test = all.subset(&(800..1000).collect::<Vec<_>>());
            let mut model = build_mlp(&[cfg.mode.sample_dim(), 64], cfg.num_classes, &mut rng);
            let ce = CrossEntropy::new();
            let mut opt = Adam::new(0.005);
            for _ in 0..15 {
                for batch in train.batches(64, &mut rng) {
                    let logits = model.forward_logits(&batch.features, true);
                    let (_, grad) = ce.loss_and_grad(&logits, &batch.labels);
                    model.backward(&grad);
                    opt.step(&mut model);
                    model.zero_grad();
                }
            }
            metrics::accuracy(&model.forward_logits(test.features(), false), test.labels())
        };
        let acc10 = run(&SyntheticConfig::cifar10_like(), 5);
        let acc100 = run(&SyntheticConfig::cifar100_like(), 5);
        assert!(
            acc10 > acc100 + 0.1,
            "10-class {acc10} should beat 100-class {acc100}"
        );
    }
}
