//! FedMD (Li & Wang, 2019).

use std::time::Instant;

use crate::common::{
    build_clients, client_accuracies, for_each_active_client, validate_specs, Client,
};
use crate::BaselineConfig;
use fedpkd_core::eval;
use fedpkd_core::fedpkd::logits::aggregation_stats;
use fedpkd_core::fedpkd::CoreError;
use fedpkd_core::runtime::{DriverState, Federation};
use fedpkd_core::snapshot::{self, SnapshotError, StateSink, StateSource};
use fedpkd_core::telemetry::{emit_phase_timing, Phase, RoundObserver, TelemetryEvent};
use fedpkd_core::train::{train_distill, train_supervised, TrainStats};
use fedpkd_data::FederatedScenario;
use fedpkd_netsim::{CommLedger, Direction, Message, RoundContext};
use fedpkd_tensor::models::ModelSpec;
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::Tensor;

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
    state: FedMdState,
}

/// The owned, snapshotable half of [`FedMd`]: everything that changes
/// from round to round. `scenario` + `config` are the static half.
struct FedMdState {
    clients: Vec<Client>,
    driver: DriverState,
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
        config.validate()?;
        validate_specs(&scenario, &client_specs, None, false)?;
        let clients = build_clients(&client_specs, config.learning_rate, seed);
        Ok(Self {
            scenario,
            config,
            state: FedMdState {
                clients,
                driver: DriverState::new(),
            },
        })
    }
}

impl Federation for FedMd {
    fn name(&self) -> &'static str {
        "FedMD"
    }

    fn num_clients(&self) -> usize {
        self.state.clients.len()
    }

    fn run_round(
        &mut self,
        round: usize,
        ctx: &RoundContext,
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    ) {
        let cohort = ctx.cohort();
        // No survivors: no logits to pool, so no consensus this round.
        if cohort.num_active() == 0 {
            return;
        }
        let config = &self.config;
        let public = &self.scenario.public;

        // Local training + logit upload ("communicate"), survivors only.
        let training_started = Instant::now();
        let client_logits: Vec<(usize, (Tensor, TrainStats))> = for_each_active_client(
            &mut self.state.clients,
            &self.scenario.clients,
            cohort,
            |_, client, data| {
                let stats = train_supervised(
                    &mut client.model,
                    &data.train,
                    config.local_epochs,
                    config.batch_size,
                    &mut client.optimizer,
                    &mut client.rng,
                );
                (eval::logits_on(&mut client.model, public), stats)
            },
        );
        for &(client, (_, ref stats)) in &client_logits {
            obs.record(&TelemetryEvent::ClientTrained {
                round,
                client,
                samples: self.scenario.clients[client].train.len(),
                mean_loss: stats.mean_loss,
            });
        }
        emit_phase_timing(obs, round, Phase::ClientTraining, training_started);
        let client_logits: Vec<(usize, Tensor)> = client_logits
            .into_iter()
            .map(|(client, (l, _))| (client, l))
            .collect();
        for (client, logits) in &client_logits {
            ledger.record_bytes(
                round,
                *client,
                Direction::Uplink,
                Message::logits_encoded_len(public.len(), logits.as_slice().len()),
            );
        }

        // Consensus: plain mean of the surviving clients' logits
        // ("aggregate").
        let aggregation_started = Instant::now();
        let mut consensus = Tensor::zeros(client_logits[0].1.shape());
        let w = 1.0 / client_logits.len() as f32;
        for (_, l) in &client_logits {
            consensus.axpy(w, l).expect("aligned logits");
        }
        if obs.enabled() {
            let logits_only: Vec<Tensor> = client_logits.iter().map(|(_, l)| l.clone()).collect();
            let stats = aggregation_stats(&logits_only, false);
            obs.record(&TelemetryEvent::LogitAggregation {
                round,
                clients: cohort.num_active(),
                variance_weighting: false,
                mean_client_weight: stats.mean_client_weight,
                disagreement: stats.disagreement,
            });
        }
        let consensus_probs = softmax(&consensus, config.temperature);
        emit_phase_timing(obs, round, Phase::Aggregation, aggregation_started);

        // Distribute + digest: every surviving client distills toward the
        // consensus; dropped clients never see it.
        let digest_started = Instant::now();
        let downlink_bytes = Message::logits_encoded_len(public.len(), consensus.as_slice().len());
        for client in cohort.survivors() {
            ledger.record_bytes(round, client, Direction::Downlink, downlink_bytes);
        }
        let probs_ref = &consensus_probs;
        let digest_stats: Vec<(usize, TrainStats)> = for_each_active_client(
            &mut self.state.clients,
            &self.scenario.clients,
            cohort,
            |_, client, _| {
                train_distill(
                    &mut client.model,
                    public.features(),
                    probs_ref,
                    config.gamma,
                    config.temperature,
                    config.digest_epochs,
                    config.batch_size,
                    &mut client.optimizer,
                    &mut client.rng,
                )
            },
        );
        for &(client, ref stats) in &digest_stats {
            obs.record(&TelemetryEvent::ClientDistilled {
                round,
                client,
                mean_loss: stats.mean_loss,
            });
        }
        emit_phase_timing(obs, round, Phase::ClientDistill, digest_started);
    }

    fn driver(&self) -> &DriverState {
        &self.state.driver
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.state.driver
    }

    fn server_accuracy(&mut self) -> Option<f64> {
        None // FedMD has no server model (Fig. 5 caption).
    }

    fn client_accuracies(&mut self) -> Vec<f64> {
        client_accuracies(&mut self.state.clients, &self.scenario)
    }

    fn write_state(&self, w: &mut dyn StateSink) {
        snapshot::write_clients(w, &self.state.clients);
        snapshot::write_driver(w, &self.state.driver);
    }

    fn read_state(&mut self, r: &mut dyn StateSource) -> Result<(), SnapshotError> {
        snapshot::read_clients(r, &mut self.state.clients)?;
        self.state.driver = snapshot::read_driver(r)?;
        Ok(())
    }
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
