//! FedMD (Li & Wang, 2019).

use std::time::Instant;

use crate::common::{
    digest_public, forward_to_fleet, mean_upload, public_upload, train_local, Fleet, RoundIo,
};
use crate::BaselineConfig;
use fedpkd_core::eval;
use fedpkd_core::fedpkd::CoreError;
use fedpkd_core::runtime::Federation;
use fedpkd_core::telemetry::{emit_phase_timing, Phase, RoundObserver};
use fedpkd_data::FederatedScenario;
use fedpkd_netsim::{CommLedger, RoundContext};
use fedpkd_tensor::models::ModelSpec;
use fedpkd_tensor::ops::softmax;

/// Heterogeneous federated learning via model distillation.
///
/// Clients (which may have different architectures) train locally, upload
/// their public-set logits, and the server returns the plain average — the
/// *consensus*. Each client then *digests* the consensus by distilling
/// toward it on the public set before revisiting its private data. There is
/// no server model.
pub struct FedMd {
    scenario: FederatedScenario,
    config: BaselineConfig,
    state: Fleet,
}

impl FedMd {
    /// Assembles FedMD over `scenario` with per-client model specs
    /// (heterogeneity allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the config is invalid or the scenario/spec
    /// wiring is inconsistent.
    pub fn new(
        scenario: FederatedScenario,
        client_specs: Vec<ModelSpec>,
        config: BaselineConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let (state, _) = Fleet::new(&scenario, &config, &client_specs, None, false, seed)?;
        Ok(Self {
            scenario,
            config,
            state,
        })
    }
}

impl Federation for FedMd {
    fn name(&self) -> &'static str {
        "FedMD"
    }

    fn run_round(
        &mut self,
        round: usize,
        ctx: &RoundContext,
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    ) {
        let (config, scenario) = (&self.config, &self.scenario);
        let io = &mut RoundIo::new(round, ctx, ledger, obs);
        let clients = &mut self.state.clients;

        // Local training + logit upload ("communicate"), survivors only.
        let Some((_, logits)) = public_upload(clients, scenario, io, |client, data| {
            let stats = train_local(config, client, data);
            (eval::logits_on(&mut client.model, &scenario.public), stats)
        }) else {
            return;
        };

        // Consensus: plain mean of the admitted logits ("aggregate").
        let started = Instant::now();
        let consensus = mean_upload(&logits, io).map(|mean| softmax(&mean, config.temperature));
        emit_phase_timing(io.obs, round, Phase::Aggregation, started);

        // Distribute + digest: every surviving client distills toward the
        // consensus; dropped clients never see it.
        if let Some(consensus) = consensus {
            digest_public(
                clients,
                scenario,
                config,
                io,
                &consensus,
                config.temperature,
            );
        }
    }

    forward_to_fleet!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_netsim::Direction;
    use fedpkd_tensor::models::DepthTier;

    fn scenario(seed: u64) -> FederatedScenario {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(3)
            .samples(450)
            .public_size(120)
            .global_test_size(150)
            .partition(Partition::Dirichlet { alpha: 0.5 })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn specs() -> Vec<ModelSpec> {
        [DepthTier::T11, DepthTier::T20, DepthTier::T29]
            .into_iter()
            .map(|tier| ModelSpec::ResMlp {
                input_dim: 32,
                num_classes: 10,
                tier,
            })
            .collect()
    }

    fn config() -> BaselineConfig {
        BaselineConfig {
            local_epochs: 2,
            digest_epochs: 1,
            learning_rate: 0.003,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn has_no_server_model() {
        let mut algo = FedMd::new(scenario(1), specs(), config(), 3).unwrap();
        let result = fedpkd_core::Driver::rounds(1).run_silent(&mut algo);
        assert_eq!(result.last().server_accuracy, None);
        assert_eq!(result.best_server_accuracy(), None);
    }

    #[test]
    fn heterogeneous_clients_learn() {
        let mut algo = FedMd::new(scenario(2), specs(), config(), 5).unwrap();
        let result = fedpkd_core::Driver::rounds(3).run_silent(&mut algo);
        let acc = result.best_client_accuracy();
        assert!(acc > 0.3, "FedMD client accuracy {acc}");
    }

    #[test]
    fn traffic_is_logits_only() {
        let mut algo = FedMd::new(scenario(3), specs(), config(), 7).unwrap();
        let result = fedpkd_core::Driver::rounds(1).run_silent(&mut algo);
        // Logits for 120 samples × 10 classes × 4 B ≈ 4.8 KB per message —
        // far below one T20 model update (> 100 KB).
        let per_client_up = result.ledger.direction_bytes(Direction::Uplink) / 3;
        assert!(
            per_client_up < 10_000,
            "logit uplink should be small, got {per_client_up}"
        );
    }
}
