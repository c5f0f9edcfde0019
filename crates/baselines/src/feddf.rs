//! FedDF (Lin et al., 2020).

use std::time::Instant;

use crate::common::{
    distill_server, forward_to_fleet, local_update, report_ensemble, train_fresh, train_sizes,
    Fleet, RoundIo,
};
use crate::BaselineConfig;
use fedpkd_core::eval;
use fedpkd_core::fedpkd::CoreError;
use fedpkd_core::runtime::Federation;
use fedpkd_core::telemetry::{emit_phase_timing, Phase, RoundObserver};
use fedpkd_data::FederatedScenario;
use fedpkd_netsim::{CommLedger, RoundContext};
use fedpkd_tensor::models::{ClassifierModel, ModelSpec};
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::serialize::{load_state_vector, state_vector, weighted_average};
use fedpkd_tensor::Tensor;

/// Ensemble distillation for robust model fusion.
///
/// Each round: clients train locally from the global parameters and upload
/// them (FedAvg traffic). The server initializes the fused model with the
/// weighted parameter average, then refines it by distilling from the
/// *ensemble* of uploaded client models — it loads each client's parameters
/// into a scratch model, averages their softmax outputs (T = 1) on the
/// public set, and trains the fused model toward that probability average.
/// Lin et al.'s AVGLOGITS (Ensemble Distillation, PAPERS.md) distills
/// toward the softmax of the mean *logits* instead; ROADMAP item 2 step 2
/// moves FedDF to it. The server architecture is constrained to the client
/// architecture (the limitation the paper calls out).
pub struct FedDf {
    scenario: FederatedScenario,
    config: BaselineConfig,
    state: Fleet,
    /// Mutable but excluded from snapshots — every use fully overwrites it
    /// with an uploaded parameter vector first.
    scratch: ClassifierModel,
}

impl FedDf {
    /// Assembles FedDF over `scenario` with the (homogeneous) model spec.
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
        let (mut state, mut server_rng) =
            Fleet::new(&scenario, &config, &specs, Some(&spec), true, seed)?;
        let scratch = spec.build(&mut server_rng);
        state.server_rng = Some(server_rng);
        Ok(Self {
            scenario,
            config,
            state,
            scratch,
        })
    }
}

impl Federation for FedDf {
    fn name(&self) -> &'static str {
        "FedDF"
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
        let fused = self.state.server.as_mut().expect("built with a server");
        let rng = self.state.server_rng.as_mut().expect("stored at build");
        let global = state_vector(fused);

        // FedAvg-style local phase over the survivors.
        let clients = &mut self.state.clients;
        let Some((senders, updates)) =
            local_update(clients, scenario, io, Some(&global), |client, data| {
                train_fresh(config, client, data)
            })
        else {
            return;
        };
        let started = Instant::now();
        if updates.is_empty() {
            emit_phase_timing(io.obs, round, Phase::Aggregation, started);
            return;
        }

        // Fusion init: weighted parameter average over the admitted updates.
        let weights = train_sizes(scenario, &senders);
        let averaged = weighted_average(&updates, &weights).expect("equal-length updates");
        load_state_vector(fused, &averaged).expect("layout is fixed");

        // Ensemble distillation: the server holds the admitted clients'
        // parameters, so no extra traffic is needed to compute the ensemble.
        let public = &scenario.public;
        let mut ensemble = Tensor::zeros(&[public.len(), scenario.num_classes]);
        let w = 1.0 / updates.len() as f32;
        let mut members: Vec<Tensor> = Vec::new();
        for params in &updates {
            load_state_vector(&mut self.scratch, params).expect("layout is fixed");
            let probs = softmax(&eval::logits_on(&mut self.scratch, public), 1.0);
            ensemble.axpy(w, &probs).expect("aligned outputs");
            if io.obs.enabled() {
                members.push(probs);
            }
        }
        report_ensemble(&members, io);
        emit_phase_timing(io.obs, round, Phase::Aggregation, started);

        // The ensemble is already a T = 1 probability average.
        distill_server(fused, public, &ensemble, 1.0, config, rng, io);
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
            .public_size(120)
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

    fn config() -> BaselineConfig {
        BaselineConfig {
            local_epochs: 2,
            server_epochs: 2,
            learning_rate: 0.003,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn server_learns_above_chance() {
        let mut algo = FedDf::new(scenario(1), spec(), config(), 3).unwrap();
        let result = fedpkd_core::Driver::rounds(3).run_silent(&mut algo);
        let acc = result.best_server_accuracy().unwrap();
        assert!(acc > 0.3, "FedDF accuracy {acc}");
    }

    #[test]
    fn traffic_is_parameter_sized() {
        let mut algo = FedDf::new(scenario(2), spec(), config(), 5).unwrap();
        let result = fedpkd_core::Driver::rounds(1).run_silent(&mut algo);
        // One round ships 2 model updates per client; each T20 ResMlp is
        // tens of thousands of parameters.
        let per_client = result.ledger.client_bytes(0);
        assert!(per_client > 100_000, "param traffic {per_client}");
    }

    #[test]
    fn requires_homogeneous_models() {
        // A class-count mismatch is caught; heterogeneity is impossible by
        // construction (single spec), matching the paper's constraint.
        let bad = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 3,
            tier: DepthTier::T20,
        };
        assert!(FedDf::new(scenario(3), bad, config(), 7).is_err());
    }
}
