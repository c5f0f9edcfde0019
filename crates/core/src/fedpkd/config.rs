//! FedPKD hyperparameters and error type.

use crate::robust::RobustAggregation;

/// Fault-tolerance window: when a client misses a round, the server keeps
/// using its last uploaded prototypes in the Eq. 8 aggregation for up to
/// this many rounds of absence. Logits are never reused — they reflect the
/// current round's models — so this only bounds prototype staleness.
pub const PROTOTYPE_STALENESS: usize = 2;

/// Where the server-side distillation transfer set comes from.
///
/// FedPKD as published assumes a shared unlabeled public dataset every
/// participant can see. The data-free extension (after FedGen/FedDistill)
/// replaces it with samples synthesized by a small server-side generator,
/// removing the public-data deployment assumption at the cost of
/// broadcasting the synthetic batch each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistillSource {
    /// The paper-faithful shared public dataset.
    #[default]
    Public,
    /// Server-generated synthetic samples (data-free mode): the generator
    /// is trained against the aggregated client logit ensemble and the
    /// global prototypes, and its output replaces the public features for
    /// the round's knowledge exchange.
    Generated,
}

/// Hyperparameters of FedPKD.
///
/// Defaults follow §V-A of the paper (scaled-down epoch counts are set by
/// the experiment harness, not here): `θ = 0.7`, `ε = δ = γ = 0.5`,
/// batch 32, Adam with `η = 0.001`, and epochs
/// `e_{c,tr} = 15`, `e_{c,p} = 10`, `e_s = 40`.
#[derive(Debug, Clone, PartialEq)]
pub struct FedPkdConfig {
    /// Client epochs on private data per round (`e_{c,tr}`).
    pub client_private_epochs: usize,
    /// Client epochs on the filtered public subset per round (`e_{c,p}`).
    pub client_public_epochs: usize,
    /// Server epochs on the filtered public subset per round (`e_s`).
    pub server_epochs: usize,
    /// Mini-batch size (`B`).
    pub batch_size: usize,
    /// Adam learning rate (`η`).
    pub learning_rate: f32,
    /// Data-filter keep ratio (`θ`): fraction of each pseudo-class kept.
    pub theta: f32,
    /// Server loss mix (`δ`): weight of the distillation term vs the
    /// prototype term in Eq. 13.
    pub delta: f32,
    /// Client public-training mix (`γ`): weight of KL vs pseudo-label CE in
    /// Eq. 15.
    pub gamma: f32,
    /// Client prototype-regularization strength (`ε`) in Eq. 16.
    pub epsilon: f32,
    /// Softmax temperature used when converting transferred logits into
    /// distillation targets. The paper's losses (Eqs. 11 and 15) use the
    /// plain softmax, i.e. temperature 1; higher values soften the targets
    /// in the classic Hinton-KD way.
    pub temperature: f32,
    /// Ablation switch: when `false`, prototypes are neither aggregated nor
    /// used (the paper's *w/o Pro* arm — the prototype loss terms vanish and
    /// the filter degrades to keep-everything unless disabled separately).
    pub use_prototypes: bool,
    /// Ablation switch: when `false`, the server trains on the full public
    /// set (the paper's *w/o D.F.* arm).
    pub use_filter: bool,
    /// Ablation switch: when `false`, logits are aggregated with uniform
    /// instead of variance-proportional weights (an extra ablation beyond
    /// the paper's).
    pub variance_weighting: bool,
    /// Aggregation rule for admitted uploads. Defaults to
    /// [`RobustAggregation::Off`], the paper-faithful Eqs. 6–8.
    pub robust: RobustAggregation,
    /// Where the server's distillation transfer set comes from.
    pub distill_source: DistillSource,
    /// Latent dimension of the data-free generator (only read when
    /// [`distill_source`](Self::distill_source) is
    /// [`DistillSource::Generated`]).
    pub generator_latent_dim: usize,
    /// Adam learning rate for the data-free generator.
    pub generator_lr: f32,
    /// Gradient steps on the generator per round.
    pub generator_epochs: usize,
}

impl Default for FedPkdConfig {
    fn default() -> Self {
        Self {
            client_private_epochs: 15,
            client_public_epochs: 10,
            server_epochs: 40,
            batch_size: 32,
            learning_rate: 0.001,
            theta: 0.7,
            delta: 0.5,
            gamma: 0.5,
            epsilon: 0.5,
            temperature: 1.0,
            use_prototypes: true,
            use_filter: true,
            variance_weighting: true,
            robust: RobustAggregation::Off,
            distill_source: DistillSource::Public,
            generator_latent_dim: 16,
            generator_lr: 0.01,
            generator_epochs: 20,
        }
    }
}

impl FedPkdConfig {
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
        if !(0.0 < self.theta && self.theta <= 1.0) {
            return Err(CoreError::InvalidConfig("theta must be in (0, 1]".into()));
        }
        for (name, v) in [("delta", self.delta), ("gamma", self.gamma)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(CoreError::InvalidConfig(format!(
                    "{name} must be in [0, 1]"
                )));
            }
        }
        // `is_finite` also rejects NaN: a NaN ε would make every Eq. 16
        // client loss NaN, and admission would then quarantine the fleet.
        if !(self.epsilon >= 0.0 && self.epsilon.is_finite()) {
            return Err(CoreError::InvalidConfig(
                "epsilon must be finite and non-negative".into(),
            ));
        }
        for (name, v) in [
            ("learning rate", self.learning_rate),
            ("temperature", self.temperature),
            ("generator learning rate", self.generator_lr),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(CoreError::InvalidConfig(format!(
                    "{name} must be positive and finite"
                )));
            }
        }
        if self.distill_source == DistillSource::Generated {
            if self.generator_latent_dim == 0 {
                return Err(CoreError::InvalidConfig(
                    "generator latent dimension must be positive".into(),
                ));
            }
            if self.generator_epochs == 0 {
                return Err(CoreError::InvalidConfig(
                    "data-free mode needs at least one generator epoch".into(),
                ));
            }
        }
        if let RobustAggregation::Trimmed { trim_fraction } = self.robust {
            if !(0.0..0.5).contains(&trim_fraction) {
                return Err(CoreError::InvalidConfig(
                    "trim fraction must be in [0, 0.5)".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Errors from assembling a federated algorithm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A hyperparameter or wiring argument was invalid.
    InvalidConfig(String),
    /// The number of model specs does not match the number of clients.
    ClientSpecMismatch {
        /// Clients in the scenario.
        clients: usize,
        /// Model specs provided.
        specs: usize,
    },
    /// A model spec's class count disagrees with the scenario.
    ClassCountMismatch {
        /// Classes in the scenario.
        scenario: usize,
        /// Classes in the spec.
        spec: usize,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::ClientSpecMismatch { clients, specs } => {
                write!(f, "{clients} clients but {specs} model specs")
            }
            Self::ClassCountMismatch { scenario, spec } => {
                write!(
                    f,
                    "scenario has {scenario} classes but model spec has {spec}"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = FedPkdConfig::default();
        assert_eq!(c.client_private_epochs, 15);
        assert_eq!(c.client_public_epochs, 10);
        assert_eq!(c.server_epochs, 40);
        assert_eq!(c.batch_size, 32);
        assert!((c.theta - 0.7).abs() < 1e-6);
        assert!((c.delta - 0.5).abs() < 1e-6);
        assert!((c.gamma - 0.5).abs() < 1e-6);
        assert!((c.epsilon - 0.5).abs() < 1e-6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_out_of_range() {
        let bad = [
            FedPkdConfig {
                theta: 0.0,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                delta: 1.5,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                gamma: -0.1,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                batch_size: 0,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                temperature: 0.0,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                epsilon: -1.0,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                learning_rate: 0.0,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                robust: RobustAggregation::Trimmed { trim_fraction: 0.5 },
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                robust: RobustAggregation::Trimmed {
                    trim_fraction: -0.1,
                },
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                generator_lr: -0.1,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                distill_source: DistillSource::Generated,
                generator_latent_dim: 0,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                distill_source: DistillSource::Generated,
                generator_epochs: 0,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                epsilon: f32::NAN,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                epsilon: f32::INFINITY,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                learning_rate: f32::INFINITY,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                temperature: f32::INFINITY,
                ..FedPkdConfig::default()
            },
            FedPkdConfig {
                generator_lr: f32::INFINITY,
                ..FedPkdConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} must be rejected");
        }
    }

    #[test]
    fn error_messages() {
        for e in [
            CoreError::InvalidConfig("x".into()),
            CoreError::ClientSpecMismatch {
                clients: 3,
                specs: 2,
            },
            CoreError::ClassCountMismatch {
                scenario: 10,
                spec: 100,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
