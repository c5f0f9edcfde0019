//! FedProx (Li et al., 2020).

use crate::common::{forward_to_fleet, train_supervised_prox, Fleet, RoundIo};
use crate::fedavg::averaging_round;
use crate::BaselineConfig;
use fedpkd_core::fedpkd::CoreError;
use fedpkd_core::runtime::Federation;
use fedpkd_core::telemetry::RoundObserver;
use fedpkd_data::FederatedScenario;
use fedpkd_netsim::{CommLedger, RoundContext};
use fedpkd_tensor::models::ModelSpec;
use fedpkd_tensor::nn::Layer;
use fedpkd_tensor::optim::Adam;

/// FedAvg with a proximal local objective: each client minimizes
/// `CE + μ/2 · ‖w − w_global‖²`, which limits client drift under non-IID
/// data. Communication is identical to FedAvg.
pub struct FedProx {
    scenario: FederatedScenario,
    config: BaselineConfig,
    state: Fleet,
}

impl FedProx {
    /// Assembles FedProx over `scenario` with the (homogeneous) model spec.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the config is invalid or the scenario/spec
    /// wiring is inconsistent.
    pub fn new(
        scenario: FederatedScenario,
        spec: ModelSpec,
        config: BaselineConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let specs = vec![spec.clone(); scenario.num_clients()];
        let (state, _) = Fleet::new(&scenario, &config, &specs, Some(&spec), true, seed)?;
        Ok(Self {
            scenario,
            config,
            state,
        })
    }
}

impl Federation for FedProx {
    fn name(&self) -> &'static str {
        "FedProx"
    }

    fn run_round(
        &mut self,
        round: usize,
        ctx: &RoundContext,
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    ) {
        let (config, io) = (&self.config, &mut RoundIo::new(round, ctx, ledger, obs));
        averaging_round(&mut self.state, &self.scenario, io, |c, d, global| {
            // The proximal anchor covers the trainable parameters (the
            // leading section of the state vector); buffers are not
            // optimized and need no anchor.
            let anchor = &global[..c.model.param_count()];
            train_supervised_prox(
                &mut c.model,
                &d.train,
                anchor,
                config.mu,
                config.local_epochs,
                config.batch_size,
                &mut Adam::new(config.learning_rate),
                &mut c.rng,
            )
        });
    }

    forward_to_fleet!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_tensor::models::DepthTier;

    fn scenario(seed: u64) -> FederatedScenario {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(3)
            .samples(450)
            .public_size(100)
            .global_test_size(150)
            .partition(Partition::Dirichlet { alpha: 0.3 })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn spec() -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier: DepthTier::T20,
        }
    }

    #[test]
    fn learns_above_chance() {
        let config = BaselineConfig {
            local_epochs: 3,
            learning_rate: 0.003,
            mu: 0.01,
            ..BaselineConfig::default()
        };
        let mut algo = FedProx::new(scenario(1), spec(), config, 3).unwrap();
        let result = fedpkd_core::Driver::rounds(3).run_silent(&mut algo);
        let acc = result.best_server_accuracy().unwrap();
        assert!(acc > 0.3, "FedProx accuracy {acc}");
    }

    #[test]
    fn traffic_matches_fedavg_shape() {
        let config = BaselineConfig {
            local_epochs: 1,
            ..BaselineConfig::default()
        };
        let mut prox = FedProx::new(scenario(2), spec(), config.clone(), 5).unwrap();
        let mut avg = crate::FedAvg::new(scenario(2), spec(), config, 5).unwrap();
        let prox_bytes = fedpkd_core::Driver::rounds(1)
            .run_silent(&mut prox)
            .ledger
            .total_bytes();
        let avg_bytes = fedpkd_core::Driver::rounds(1)
            .run_silent(&mut avg)
            .ledger
            .total_bytes();
        assert_eq!(prox_bytes, avg_bytes, "FedProx ships the same payloads");
    }

    #[test]
    fn config_validation_runs() {
        let bad = BaselineConfig {
            mu: -1.0,
            ..BaselineConfig::default()
        };
        assert!(FedProx::new(scenario(3), spec(), bad, 1).is_err());
    }
}
