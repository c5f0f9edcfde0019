//! FedET (Cho et al., 2022).

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
use fedpkd_tensor::ops::{row_entropy, softmax};
use fedpkd_tensor::serialize::{load_state_vector, state_vector};
use fedpkd_tensor::Tensor;

/// Heterogeneous **e**nsemble knowledge **t**ransfer: small (possibly
/// heterogeneous) client models teach a larger server model.
///
/// Each round: clients train locally and upload their *model parameters*
/// (the source of FedET's high communication cost that the paper notes);
/// the server rebuilds each client model, forms a confidence-weighted
/// ensemble over the public set — per-sample weights proportional to
/// `1 − H(p_c)/ln k`, the certainty of each client's prediction — and
/// distills the ensemble into the larger server model. Server logits on the
/// public set travel back and clients distill from them.
pub struct FedEt {
    scenario: FederatedScenario,
    client_specs: Vec<ModelSpec>,
    config: BaselineConfig,
    seed: u64,
    state: FedEtState,
}

/// The owned, snapshotable half of [`FedEt`]: everything that changes
/// from round to round. `scenario`, `client_specs`, `config`, and `seed`
/// are the static half — the per-round scratch models are rebuilt from
/// them, so they never enter a snapshot.
struct FedEtState {
    clients: Vec<Client>,
    server_model: ClassifierModel,
    server_rng: Rng,
    driver: DriverState,
}

impl FedEt {
    /// Assembles FedET over `scenario` with per-client specs and a (larger)
    /// server spec.
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
            client_specs,
            config,
            seed,
            state: FedEtState {
                clients,
                server_model,
                server_rng,
                driver: DriverState::new(),
            },
        })
    }
}

impl Federation for FedEt {
    fn name(&self) -> &'static str {
        "FedET"
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
        // No survivors: no uploads, so the ensemble is empty and the server
        // model carries over.
        if cohort.num_active() == 0 {
            return;
        }
        let config = &self.config;
        let public = &self.scenario.public;
        let k = self.scenario.num_classes;

        // Local training; parameters travel up (FedET's costly uplink) from
        // the survivors.
        let training_started = Instant::now();
        let updates: Vec<(usize, (Vec<f32>, TrainStats))> = for_each_active_client(
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
                (state_vector(&client.model), stats)
            },
        );
        for &(client, (_, ref stats)) in &updates {
            obs.record(&TelemetryEvent::ClientTrained {
                round,
                client,
                samples: self.scenario.clients[client].train.len(),
                mean_loss: stats.mean_loss,
            });
        }
        emit_phase_timing(obs, round, Phase::ClientTraining, training_started);
        let updates: Vec<(usize, Vec<f32>)> = updates
            .into_iter()
            .map(|(client, (params, _))| (client, params))
            .collect();
        for (client, params) in &updates {
            ledger.record(
                round,
                *client,
                Direction::Uplink,
                &Message::ModelUpdate {
                    params: params.clone(),
                },
            );
        }

        // Server-side confidence-weighted ensemble over the public set.
        let aggregation_started = Instant::now();
        let ln_k = (k as f32).ln();
        let mut weighted_sum = Tensor::zeros(&[public.len(), k]);
        let mut weight_total = vec![0.0f32; public.len()];
        let mut member_probs: Vec<Tensor> = Vec::new();
        for (i, params) in &updates {
            let i = *i;
            let mut scratch_rng = Rng::stream(self.seed, 1000 + i as u64);
            let mut scratch = self.client_specs[i].build(&mut scratch_rng);
            load_state_vector(&mut scratch, params).expect("spec matches upload");
            let probs = softmax(&eval::logits_on(&mut scratch, public), 1.0);
            let certainty: Vec<f32> = row_entropy(&probs)
                .into_iter()
                .map(|h| (1.0 - h / ln_k).max(1e-3))
                .collect();
            for r in 0..public.len() {
                let w = certainty[r];
                weight_total[r] += w;
                for (o, &p) in weighted_sum.row_mut(r).iter_mut().zip(probs.row(r)) {
                    *o += w * p;
                }
            }
            if obs.enabled() {
                member_probs.push(probs);
            }
        }
        for (r, total) in weight_total.iter().enumerate() {
            let norm = total.max(1e-9);
            for v in weighted_sum.row_mut(r) {
                *v /= norm;
            }
        }
        if obs.enabled() {
            // The entropy-based per-sample weights are FedET-specific; the
            // shared stats helper still measures ensemble disagreement.
            let stats = aggregation_stats(&member_probs, false);
            obs.record(&TelemetryEvent::LogitAggregation {
                round,
                clients: cohort.num_active(),
                variance_weighting: false,
                mean_client_weight: stats.mean_client_weight,
                disagreement: stats.disagreement,
            });
        }
        emit_phase_timing(obs, round, Phase::Aggregation, aggregation_started);

        // Distill ensemble → (larger) server model.
        let server_started = Instant::now();
        let server_stats = train_distill(
            &mut self.state.server_model,
            public.features(),
            &weighted_sum,
            config.gamma,
            1.0,
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

        // Server logits travel down; surviving clients distill.
        let distill_started = Instant::now();
        let server_probs = softmax(&eval::logits_on(&mut self.state.server_model, public), 1.0);
        let downlink_bytes =
            Message::logits_encoded_len(public.len(), server_probs.as_slice().len());
        for client in cohort.survivors() {
            ledger.record_bytes(round, client, Direction::Downlink, downlink_bytes);
        }
        let target = &server_probs;
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
                    1.0,
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
        Some(eval::accuracy(
            &mut self.state.server_model,
            &self.scenario.global_test,
        ))
    }

    fn client_accuracies(&mut self) -> Vec<f64> {
        // FedET is not focused on client personalization (Fig. 5 caption),
        // but the client models exist, so their local accuracy is reported.
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

    fn client_specs() -> Vec<ModelSpec> {
        [DepthTier::T11, DepthTier::T20, DepthTier::T29]
            .into_iter()
            .map(|tier| ModelSpec::ResMlp {
                input_dim: 32,
                num_classes: 10,
                tier,
            })
            .collect()
    }

    fn server_spec() -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier: DepthTier::T56,
        }
    }

    fn config() -> BaselineConfig {
        BaselineConfig {
            local_epochs: 3,
            server_epochs: 4,
            digest_epochs: 1,
            learning_rate: 0.003,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn larger_server_learns_from_heterogeneous_clients() {
        let mut algo = FedEt::new(scenario(1), client_specs(), server_spec(), config(), 3).unwrap();
        let result = fedpkd_core::Driver::rounds(4).run_silent(&mut algo);
        let acc = result.best_server_accuracy().unwrap();
        assert!(acc > 0.3, "FedET server accuracy {acc}");
    }

    #[test]
    fn uplink_is_parameter_sized() {
        let mut algo = FedEt::new(scenario(2), client_specs(), server_spec(), config(), 5).unwrap();
        let result = fedpkd_core::Driver::rounds(1).run_silent(&mut algo);
        let up = result.ledger.direction_bytes(Direction::Uplink);
        let down = result.ledger.direction_bytes(Direction::Downlink);
        // Parameter uplink dwarfs logits downlink — the cost the paper
        // attributes to FedET.
        assert!(up > 10 * down, "uplink {up} vs downlink {down}");
    }

    #[test]
    fn rejects_mismatched_class_counts() {
        let bad_server = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 12,
            tier: DepthTier::T56,
        };
        assert!(FedEt::new(scenario(3), client_specs(), bad_server, config(), 7).is_err());
    }
}
