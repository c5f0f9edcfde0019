//! Sampling distributions used by the synthetic-data and partitioning layers.

use crate::Rng;

/// A Gamma distribution, sampled with the Marsaglia–Tsang squeeze method.
///
/// Supports all positive shapes; shapes below one use the boosting identity
/// `Gamma(a) = Gamma(a + 1) · U^{1/a}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a Gamma distribution with the given shape and scale.
    ///
    /// # Errors
    ///
    /// Returns an error if either parameter is non-positive or non-finite.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistributionError> {
        if !(shape.is_finite() && scale.is_finite() && shape > 0.0 && scale > 0.0) {
            return Err(DistributionError::InvalidParameter);
        }
        Ok(Self { shape, scale })
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        if self.shape < 1.0 {
            // Boost: sample Gamma(shape + 1) and scale by U^{1/shape}.
            let boosted = Gamma {
                shape: self.shape + 1.0,
                scale: self.scale,
            };
            let u = 1.0 - rng.next_f64(); // in (0, 1]
            return boosted.sample(rng) * u.powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = rng.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = 1.0 - rng.next_f64(); // (0, 1]
                                          // Squeeze acceptance first, then the exact log test.
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v * self.scale;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * self.scale;
            }
        }
    }
}

/// A Dirichlet distribution over the probability simplex.
///
/// Used to generate non-IID label distributions across federated clients, as
/// in Hsu et al. (2019) and §V of the FedPKD paper.
///
/// # Examples
///
/// ```
/// use fedpkd_rng::{Dirichlet, Rng};
///
/// let mut rng = Rng::seed_from_u64(3);
/// let d = Dirichlet::symmetric(0.5, 10).unwrap();
/// let p = d.sample(&mut rng);
/// let total: f64 = p.iter().sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    alphas: Vec<f64>,
}

impl Dirichlet {
    /// Creates a Dirichlet distribution with the given concentration vector.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two alphas are given or any alpha is
    /// non-positive or non-finite.
    pub fn new(alphas: Vec<f64>) -> Result<Self, DistributionError> {
        if alphas.len() < 2 || alphas.iter().any(|a| !a.is_finite() || *a <= 0.0) {
            return Err(DistributionError::InvalidParameter);
        }
        Ok(Self { alphas })
    }

    /// Creates a symmetric Dirichlet with `dim` components of concentration
    /// `alpha`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim < 2` or `alpha` is non-positive.
    pub fn symmetric(alpha: f64, dim: usize) -> Result<Self, DistributionError> {
        Self::new(vec![alpha; dim])
    }

    /// Draws one point on the simplex.
    pub fn sample(&self, rng: &mut Rng) -> Vec<f64> {
        let mut draws: Vec<f64> = self
            .alphas
            .iter()
            .map(|&a| {
                let g = Gamma::new(a, 1.0).expect("validated at construction");
                // Guard against numerically zero draws for tiny alphas.
                g.sample(rng).max(f64::MIN_POSITIVE)
            })
            .collect();
        let total: f64 = draws.iter().sum();
        for d in &mut draws {
            *d /= total;
        }
        draws
    }

    /// Number of components.
    pub fn dim(&self) -> usize {
        self.alphas.len()
    }
}

/// Errors from distribution constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DistributionError {
    /// A parameter was out of the distribution's valid domain.
    InvalidParameter,
}

impl std::fmt::Display for DistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidParameter => write!(f, "invalid distribution parameter"),
        }
    }
}

impl std::error::Error for DistributionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-2.0, 1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut rng = Rng::seed_from_u64(20);
        let g = Gamma::new(4.0, 2.0).unwrap();
        let k = 60_000;
        let xs: Vec<f64> = (0..k).map(|_| g.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / k as f64;
        // E[Gamma(a, s)] = a s = 8; Var = a s^2 = 16.
        assert!((mean - 8.0).abs() < 0.15, "mean {mean}");
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / k as f64;
        assert!((var - 16.0).abs() < 1.0, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut rng = Rng::seed_from_u64(21);
        let g = Gamma::new(0.3, 1.0).unwrap();
        let k = 60_000;
        let xs: Vec<f64> = (0..k).map(|_| g.sample(&mut rng)).collect();
        assert!(xs.iter().all(|x| *x >= 0.0));
        let mean = xs.iter().sum::<f64>() / k as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn dirichlet_sums_to_one_and_is_positive() {
        let mut rng = Rng::seed_from_u64(30);
        for alpha in [0.1, 0.5, 1.0, 10.0] {
            let d = Dirichlet::symmetric(alpha, 10).unwrap();
            for _ in 0..50 {
                let p = d.sample(&mut rng);
                assert_eq!(p.len(), 10);
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(p.iter().all(|x| *x > 0.0));
            }
        }
    }

    #[test]
    fn dirichlet_small_alpha_concentrates() {
        // With alpha = 0.1 the mass should concentrate on few components;
        // with alpha = 100 it should be near-uniform. Compare max component.
        let mut rng = Rng::seed_from_u64(31);
        let sparse = Dirichlet::symmetric(0.1, 10).unwrap();
        let dense = Dirichlet::symmetric(100.0, 10).unwrap();
        let reps = 200;
        let avg_max = |d: &Dirichlet, rng: &mut Rng| {
            (0..reps)
                .map(|_| d.sample(rng).into_iter().fold(f64::MIN, f64::max))
                .sum::<f64>()
                / reps as f64
        };
        let m_sparse = avg_max(&sparse, &mut rng);
        let m_dense = avg_max(&dense, &mut rng);
        assert!(
            m_sparse > m_dense + 0.2,
            "sparse {m_sparse} dense {m_dense}"
        );
    }

    #[test]
    fn dirichlet_rejects_bad_params() {
        assert!(Dirichlet::new(vec![1.0]).is_err());
        assert!(Dirichlet::new(vec![1.0, 0.0]).is_err());
        assert!(Dirichlet::new(vec![1.0, -1.0]).is_err());
        assert!(Dirichlet::symmetric(0.5, 1).is_err());
    }

    #[test]
    fn error_display_is_nonempty() {
        let msg = DistributionError::InvalidParameter.to_string();
        assert!(!msg.is_empty());
    }
}
