//! The plain logit-averaging KD strawman of the paper's motivation study.

use std::time::Instant;

use crate::common::{
    distill_server, forward_to_fleet, mean_upload, public_upload, train_local, Fleet, RoundIo,
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
    state: Fleet,
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
        let (mut state, server_rng) = Fleet::new(
            &scenario,
            &config,
            &client_specs,
            Some(&server_spec),
            false,
            seed,
        )?;
        state.server_rng = Some(server_rng);
        Ok(Self {
            scenario,
            config,
            state,
        })
    }
}

impl Federation for NaiveKd {
    fn name(&self) -> &'static str {
        "NaiveKD"
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
        let Some((_, logits)) = public_upload(clients, scenario, io, |client, data| {
            let stats = train_local(config, client, data);
            (eval::logits_on(&mut client.model, &scenario.public), stats)
        }) else {
            return;
        };

        // Uniform average over the admitted uploads → server distillation
        // (Eq. 3).
        let started = Instant::now();
        let teacher = mean_upload(&logits, io).map(|mean| softmax(&mean, config.temperature));
        emit_phase_timing(io.obs, round, Phase::Aggregation, started);
        if let Some(teacher) = teacher {
            let server = self.state.server.as_mut().expect("built with a server");
            let rng = self.state.server_rng.as_mut().expect("stored at build");
            let (public, t) = (&scenario.public, config.temperature);
            distill_server(server, public, &teacher, t, config, rng, io);
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
    fn no_downlink_traffic() {
        let mut algo = NaiveKd::new(scenario(0.5, 3), specs(), server_spec(), config(), 7).unwrap();
        let result = fedpkd_core::Driver::rounds(1).run_silent(&mut algo);
        assert_eq!(result.ledger.direction_bytes(Direction::Downlink), 0);
        assert!(result.ledger.direction_bytes(Direction::Uplink) > 0);
    }
}
