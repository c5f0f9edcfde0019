//! DS-FL (Itahara et al., 2020).

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
use fedpkd_tensor::ops::{sharpen, softmax};
use fedpkd_tensor::Tensor;

/// Distillation-based semi-supervised FL with **entropy-reduction
/// aggregation**.
///
/// Like FedMD, clients exchange public-set knowledge instead of parameters;
/// the difference is the aggregation: client *probabilities* are averaged
/// and then sharpened (temperature < 1), reducing the entropy of the global
/// soft labels, which Itahara et al. show accelerates convergence under
/// non-IID data. There is no server model.
pub struct DsFl {
    scenario: FederatedScenario,
    config: BaselineConfig,
    state: DsFlState,
}

/// The owned, snapshotable half of [`DsFl`]: everything that changes
/// from round to round. `scenario` + `config` are the static half.
struct DsFlState {
    clients: Vec<Client>,
    driver: DriverState,
}

impl DsFl {
    /// Assembles DS-FL over `scenario` with per-client model specs
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
            state: DsFlState {
                clients,
                driver: DriverState::new(),
            },
        })
    }
}

impl Federation for DsFl {
    fn name(&self) -> &'static str {
        "DS-FL"
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
        // No survivors: nothing to pool or sharpen this round.
        if cohort.num_active() == 0 {
            return;
        }
        let config = &self.config;
        let public = &self.scenario.public;

        // Local training; surviving clients upload *probabilities* (same
        // wire size as logits).
        let training_started = Instant::now();
        let client_probs: Vec<(usize, (Tensor, TrainStats))> = for_each_active_client(
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
                (
                    softmax(&eval::logits_on(&mut client.model, public), 1.0),
                    stats,
                )
            },
        );
        for &(client, (_, ref stats)) in &client_probs {
            obs.record(&TelemetryEvent::ClientTrained {
                round,
                client,
                samples: self.scenario.clients[client].train.len(),
                mean_loss: stats.mean_loss,
            });
        }
        emit_phase_timing(obs, round, Phase::ClientTraining, training_started);
        let client_probs: Vec<(usize, Tensor)> = client_probs
            .into_iter()
            .map(|(client, (p, _))| (client, p))
            .collect();
        for (client, probs) in &client_probs {
            ledger.record_bytes(
                round,
                *client,
                Direction::Uplink,
                Message::logits_encoded_len(public.len(), probs.as_slice().len()),
            );
        }

        // Entropy-reduction aggregation over the survivors: mean, then
        // sharpen.
        let aggregation_started = Instant::now();
        let mut mean = Tensor::zeros(client_probs[0].1.shape());
        let w = 1.0 / client_probs.len() as f32;
        for (_, p) in &client_probs {
            mean.axpy(w, p).expect("aligned probabilities");
        }
        if obs.enabled() {
            // The inputs are probabilities rather than logits; the extra
            // softmax inside the helper is monotone per row, so the
            // disagreement measure is unaffected and weights are uniform.
            let probs_only: Vec<Tensor> = client_probs.iter().map(|(_, p)| p.clone()).collect();
            let stats = aggregation_stats(&probs_only, false);
            obs.record(&TelemetryEvent::LogitAggregation {
                round,
                clients: cohort.num_active(),
                variance_weighting: false,
                mean_client_weight: stats.mean_client_weight,
                disagreement: stats.disagreement,
            });
        }
        let sharpened = sharpen(&mean, config.sharpen_temperature);
        emit_phase_timing(obs, round, Phase::Aggregation, aggregation_started);

        // Distribute + distill, survivors only.
        let distill_started = Instant::now();
        let downlink_bytes = Message::logits_encoded_len(public.len(), sharpened.as_slice().len());
        for client in cohort.survivors() {
            ledger.record_bytes(round, client, Direction::Downlink, downlink_bytes);
        }
        let target = &sharpened;
        let distill_stats: Vec<(usize, TrainStats)> = for_each_active_client(
            &mut self.state.clients,
            &self.scenario.clients,
            cohort,
            |_, client, _| {
                train_distill(
                    &mut client.model,
                    public.features(),
                    target,
                    config.gamma,
                    1.0, // targets are already probabilities at T = 1
                    config.digest_epochs,
                    config.batch_size,
                    &mut client.optimizer,
                    &mut client.rng,
                )
            },
        );
        for &(client, ref stats) in &distill_stats {
            obs.record(&TelemetryEvent::ClientDistilled {
                round,
                client,
                mean_loss: stats.mean_loss,
            });
        }
        emit_phase_timing(obs, round, Phase::ClientDistill, distill_started);
    }

    fn driver(&self) -> &DriverState {
        &self.state.driver
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.state.driver
    }

    fn server_accuracy(&mut self) -> Option<f64> {
        None // DS-FL has no server model (Fig. 5 caption).
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
    use fedpkd_tensor::ops::row_entropy;

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
        vec![
            ModelSpec::ResMlp {
                input_dim: 32,
                num_classes: 10,
                tier: DepthTier::T11,
            };
            3
        ]
    }

    #[test]
    fn clients_learn_above_chance() {
        let config = BaselineConfig {
            local_epochs: 2,
            digest_epochs: 1,
            learning_rate: 0.003,
            ..BaselineConfig::default()
        };
        let mut algo = DsFl::new(scenario(1), specs(), config, 3).unwrap();
        let result = fedpkd_core::Driver::rounds(3).run_silent(&mut algo);
        let acc = result.best_client_accuracy();
        assert!(acc > 0.3, "DS-FL client accuracy {acc}");
        assert_eq!(result.best_server_accuracy(), None);
    }

    #[test]
    fn sharpening_reduces_aggregate_entropy() {
        // The defining property of DS-FL's aggregation, checked end-to-end
        // on real client outputs.
        let mut probs = Tensor::zeros(&[4, 10]);
        for r in 0..4 {
            for (j, v) in probs.row_mut(r).iter_mut().enumerate() {
                *v = (j as f32 + 1.0) / 55.0;
            }
        }
        let sharp = sharpen(&probs, 0.5);
        let before: f32 = row_entropy(&probs).iter().sum();
        let after: f32 = row_entropy(&sharp).iter().sum();
        assert!(after < before);
    }
}
