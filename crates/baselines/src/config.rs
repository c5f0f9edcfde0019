//! Shared baseline hyperparameters.

use fedpkd_core::fedpkd::CoreError;

/// Hyperparameters shared by the baseline algorithms.
///
/// The paper assigns each method its own epoch budget (§V-A); the experiment
/// harness sets those per method. Fields irrelevant to a given algorithm are
/// ignored by it (e.g. `mu` matters only to FedProx).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Local supervised epochs per round (`e_{c,tr}`).
    pub local_epochs: usize,
    /// Server training epochs per round (`e_s`), for methods with a server
    /// model.
    pub server_epochs: usize,
    /// Client distillation ("digest") epochs on the public set, for
    /// KD-based methods.
    pub digest_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Distillation softmax temperature.
    pub temperature: f32,
    /// FedProx proximal coefficient (μ).
    pub mu: f32,
    /// DS-FL entropy-reduction temperature (< 1 sharpens).
    pub sharpen_temperature: f32,
    /// KL-vs-CE mix for client-side distillation.
    pub gamma: f32,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            local_epochs: 10,
            server_epochs: 20,
            digest_epochs: 5,
            batch_size: 32,
            learning_rate: 0.001,
            temperature: 2.0,
            mu: 0.01,
            sharpen_temperature: 0.5,
            gamma: 0.5,
        }
    }
}

impl BaselineConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any parameter is out of
    /// range.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.batch_size == 0 {
            return Err(CoreError::InvalidConfig(
                "batch size must be positive".into(),
            ));
        }
        for (name, v) in [
            ("learning rate", self.learning_rate),
            ("temperature", self.temperature),
            ("sharpen temperature", self.sharpen_temperature),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(CoreError::InvalidConfig(format!(
                    "{name} must be positive and finite"
                )));
            }
        }
        if !(self.mu >= 0.0 && self.mu.is_finite()) {
            return Err(CoreError::InvalidConfig(
                "mu must be finite and non-negative".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(CoreError::InvalidConfig("gamma must be in [0, 1]".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(BaselineConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = [
            BaselineConfig {
                batch_size: 0,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                learning_rate: -1.0,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                sharpen_temperature: 0.0,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                mu: -0.5,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                gamma: 2.0,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                mu: f32::NAN,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                mu: f32::INFINITY,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                learning_rate: f32::INFINITY,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                temperature: f32::INFINITY,
                ..BaselineConfig::default()
            },
            BaselineConfig {
                sharpen_temperature: f32::INFINITY,
                ..BaselineConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} must be rejected");
        }
    }
}
