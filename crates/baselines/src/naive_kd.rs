//! The plain logit-averaging KD strawman of the paper's motivation study.

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
use fedpkd_rng::Rng;
use fedpkd_tensor::models::{ClassifierModel, ModelSpec};
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::Tensor;

/// Naive KD-based FL (Eq. 3): clients train locally and upload public-set
/// logits; the server distills the *uniform average* of those logits into
/// its model. No prototypes, no weighting, no filtering, no feedback to
/// clients.
///
/// This is the arm labeled "KD-based" in the paper's Figs. 1–3 motivation
/// experiments — the baseline whose weaknesses FedPKD is built to fix.
pub struct NaiveKd {
    scenario: FederatedScenario,
    config: BaselineConfig,
    state: NaiveKdState,
}

/// The owned, snapshotable half of [`NaiveKd`]: everything that changes
/// from round to round. `scenario` + `config` are the static half.
struct NaiveKdState {
    clients: Vec<Client>,
    server_model: ClassifierModel,
    server_rng: Rng,
    driver: DriverState,
}

impl NaiveKd {
    /// Assembles the naive-KD federation (heterogeneous clients allowed,
    /// larger server allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the config is invalid or the scenario/spec
    /// wiring is inconsistent.
    pub fn new(
        scenario: FederatedScenario,
        client_specs: Vec<ModelSpec>,
        server_spec: ModelSpec,
        config: BaselineConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        validate_specs(&scenario, &client_specs, Some(&server_spec), false)?;
        let clients = build_clients(&client_specs, config.learning_rate, seed);
        let mut server_rng = Rng::stream(seed, 0);
        let server_model = server_spec.build(&mut server_rng);
        Ok(Self {
            scenario,
            config,
            state: NaiveKdState {
                clients,
                server_model,
                server_rng,
                driver: DriverState::new(),
            },
        })
    }

    /// The uniform-average logits of the clients on the public set after the
    /// most recent round — exposed for the Fig. 2 logit-quality analysis.
    pub fn aggregated_public_logits(&mut self) -> Tensor {
        let public = &self.scenario.public;
        let logits: Vec<Tensor> = self
            .state
            .clients
            .iter_mut()
            .map(|c| eval::logits_on(&mut c.model, public))
            .collect();
        let mut mean = Tensor::zeros(logits[0].shape());
        let w = 1.0 / logits.len() as f32;
        for l in &logits {
            mean.axpy(w, l).expect("aligned logits");
        }
        mean
    }
}

impl Federation for NaiveKd {
    fn name(&self) -> &'static str {
        "NaiveKD"
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
        // No survivors: no logits arrive, so the server has nothing to
        // distill from this round.
        if cohort.num_active() == 0 {
            return;
        }
        let config = &self.config;
        let public = &self.scenario.public;

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

        // Uniform average over the survivors → server distillation (Eq. 3).
        let aggregation_started = Instant::now();
        let mut mean = Tensor::zeros(client_logits[0].1.shape());
        let w = 1.0 / client_logits.len() as f32;
        for (_, l) in &client_logits {
            mean.axpy(w, l).expect("aligned logits");
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
        let teacher = softmax(&mean, config.temperature);
        emit_phase_timing(obs, round, Phase::Aggregation, aggregation_started);

        let server_started = Instant::now();
        let server_stats = train_distill(
            &mut self.state.server_model,
            public.features(),
            &teacher,
            config.gamma,
            config.temperature,
            config.server_epochs,
            config.batch_size,
            &mut fedpkd_tensor::optim::Adam::new(config.learning_rate),
            &mut self.state.server_rng,
        );
        obs.record(&TelemetryEvent::ServerDistill {
            round,
            kd_loss: server_stats.mean_loss,
            proto_loss: 0.0,
            combined_loss: server_stats.mean_loss,
            batches: server_stats.batches,
        });
        emit_phase_timing(obs, round, Phase::ServerDistill, server_started);
    }

    fn driver(&self) -> &DriverState {
        &self.state.driver
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.state.driver
    }

    fn server_accuracy(&mut self) -> Option<f64> {
        Some(eval::accuracy(
            &mut self.state.server_model,
            &self.scenario.global_test,
        ))
    }

    fn client_accuracies(&mut self) -> Vec<f64> {
        client_accuracies(&mut self.state.clients, &self.scenario)
    }

    fn write_state(&self, w: &mut dyn StateSink) {
        snapshot::write_clients(w, &self.state.clients);
        snapshot::write_model(w, &self.state.server_model);
        snapshot::write_rng(w, &self.state.server_rng);
        snapshot::write_driver(w, &self.state.driver);
    }

    fn read_state(&mut self, r: &mut dyn StateSource) -> Result<(), SnapshotError> {
        snapshot::read_clients(r, &mut self.state.clients)?;
        snapshot::read_model(r, &mut self.state.server_model)?;
        self.state.server_rng = snapshot::read_rng(r)?;
        self.state.driver = snapshot::read_driver(r)?;
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_core::telemetry::NullObserver;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_tensor::models::DepthTier;

    fn scenario(alpha: f64, seed: u64) -> FederatedScenario {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(3)
            .samples(450)
            .public_size(120)
            .global_test_size(200)
            .partition(Partition::Dirichlet { alpha })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn specs() -> Vec<ModelSpec> {
        vec![
            ModelSpec::ResMlp {
                input_dim: 32,
                num_classes: 10,
                tier: DepthTier::T11,
            };
            3
        ]
    }

    fn server_spec() -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier: DepthTier::T20,
        }
    }

    fn config() -> BaselineConfig {
        BaselineConfig {
            local_epochs: 2,
            server_epochs: 2,
            learning_rate: 0.003,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn server_learns_something() {
        let mut algo = NaiveKd::new(scenario(0.5, 1), specs(), server_spec(), config(), 3).unwrap();
        let result = fedpkd_core::Driver::rounds(3).run_silent(&mut algo);
        let acc = result.best_server_accuracy().unwrap();
        assert!(acc > 0.2, "NaiveKD server accuracy {acc}");
    }

    #[test]
    fn aggregated_logits_accessor_matches_shape() {
        let mut algo = NaiveKd::new(scenario(0.5, 2), specs(), server_spec(), config(), 5).unwrap();
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(fedpkd_netsim::Cohort::full(3)),
            &mut ledger,
            &mut NullObserver,
        );
        let agg = algo.aggregated_public_logits();
        assert_eq!(agg.shape(), &[120, 10]);
    }

    #[test]
    fn no_downlink_traffic() {
        let mut algo = NaiveKd::new(scenario(0.5, 3), specs(), server_spec(), config(), 7).unwrap();
        let result = fedpkd_core::Driver::rounds(1).run_silent(&mut algo);
        assert_eq!(result.ledger.direction_bytes(Direction::Downlink), 0);
        assert!(result.ledger.direction_bytes(Direction::Uplink) > 0);
    }
}
