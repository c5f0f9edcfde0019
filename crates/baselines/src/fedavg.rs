//! FedAvg (McMahan et al., 2017).

use std::time::Instant;

use crate::common::{
    forward_to_fleet, local_update, train_fresh, train_sizes, Client, Fleet, RoundIo,
};
use crate::BaselineConfig;
use fedpkd_core::fedpkd::CoreError;
use fedpkd_core::runtime::Federation;
use fedpkd_core::telemetry::{emit_phase_timing, Phase, RoundObserver};
use fedpkd_core::train::TrainStats;
use fedpkd_data::{ClientData, FederatedScenario};
use fedpkd_netsim::{CommLedger, RoundContext};
use fedpkd_tensor::models::ModelSpec;
use fedpkd_tensor::serialize::{load_state_vector, state_vector, weighted_average};

/// The classic parameter-averaging algorithm (Eq. 1 of the paper).
///
/// Every round: the server broadcasts the global parameters, each client
/// trains locally and uploads its parameters, and the server forms the
/// data-size-weighted average. Requires identical architectures everywhere.
pub struct FedAvg {
    scenario: FederatedScenario,
    config: BaselineConfig,
    state: Fleet,
}

impl FedAvg {
    /// Assembles FedAvg over `scenario` with the (homogeneous) model spec.
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

/// One parameter-averaging round over `train`, the local objective run
/// from the broadcast global state (its third argument): FedAvg's own
/// round, and FedProx's with the proximal term added.
///
/// The average is renormalized over whoever reported back clean; when
/// nobody did, the global model carries over.
pub(crate) fn averaging_round(
    fleet: &mut Fleet,
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    train: impl Fn(&mut Client, &ClientData, &[f32]) -> TrainStats + Sync,
) {
    let server = fleet.server.as_mut().expect("built with a server spec");
    let global = state_vector(server);
    let train = |client: &mut Client, data: &ClientData| train(client, data, &global);
    let Some((senders, updates)) =
        local_update(&mut fleet.clients, scenario, io, Some(&global), train)
    else {
        return;
    };
    let started = Instant::now();
    if !updates.is_empty() {
        let weights = train_sizes(scenario, &senders);
        let averaged = weighted_average(&updates, &weights).expect("equal-length updates");
        load_state_vector(server, &averaged).expect("layout is fixed");
    }
    emit_phase_timing(io.obs, io.round, Phase::Aggregation, started);
}

impl Federation for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn run_round(
        &mut self,
        round: usize,
        ctx: &RoundContext,
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    ) {
        let (config, io) = (&self.config, &mut RoundIo::new(round, ctx, ledger, obs));
        averaging_round(&mut self.state, &self.scenario, io, |c, d, _| {
            train_fresh(config, c, d)
        });
    }

    forward_to_fleet!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_core::telemetry::NullObserver;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_netsim::Cohort;
    use fedpkd_netsim::Direction;
    use fedpkd_tensor::models::DepthTier;

    fn scenario(seed: u64) -> FederatedScenario {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(3)
            .samples(450)
            .public_size(100)
            .global_test_size(150)
            .partition(Partition::Dirichlet { alpha: 0.5 })
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
            local_epochs: 3,
            learning_rate: 0.003,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn learns_above_chance() {
        let mut algo = FedAvg::new(scenario(1), spec(), config(), 3).unwrap();
        let result = fedpkd_core::Driver::rounds(3).run_silent(&mut algo);
        let acc = result.best_server_accuracy().unwrap();
        assert!(acc > 0.3, "FedAvg accuracy {acc} vs chance 0.1");
    }

    #[test]
    fn traffic_is_model_updates_both_ways() {
        let mut algo = FedAvg::new(scenario(2), spec(), config(), 5).unwrap();
        let result = fedpkd_core::Driver::rounds(1).run_silent(&mut algo);
        let up = result.ledger.direction_bytes(Direction::Uplink);
        let down = result.ledger.direction_bytes(Direction::Downlink);
        assert_eq!(up, down, "uplink and downlink are symmetric in FedAvg");
        assert!(up > 0);
    }

    #[test]
    fn aggregation_moves_global_model() {
        let mut algo = FedAvg::new(scenario(3), spec(), config(), 7).unwrap();
        let before = state_vector(algo.state.server.as_ref().unwrap());
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(Cohort::full(3)),
            &mut ledger,
            &mut NullObserver,
        );
        let after = state_vector(algo.state.server.as_ref().unwrap());
        assert_ne!(before, after);
    }

    #[test]
    fn dropped_clients_ship_no_bytes_and_skip_training() {
        use fedpkd_netsim::DropCause;

        let mut algo = FedAvg::new(scenario(5), spec(), config(), 11).unwrap();
        let dropped_before = state_vector(&algo.state.clients.materialize(1).model);
        let cohort = Cohort::from_causes(vec![None, Some(DropCause::Crash), None]);
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(cohort),
            &mut ledger,
            &mut NullObserver,
        );
        assert_eq!(ledger.client_bytes(1), 0, "dropped client billed nothing");
        assert!(ledger.client_bytes(0) > 0);
        assert_eq!(
            state_vector(&algo.state.clients.materialize(1).model),
            dropped_before,
            "dropped client's local state is untouched"
        );
    }

    #[test]
    fn zero_survivor_round_leaves_global_model_unchanged() {
        use fedpkd_netsim::DropCause;

        let mut algo = FedAvg::new(scenario(6), spec(), config(), 13).unwrap();
        let before = state_vector(algo.state.server.as_ref().unwrap());
        let cohort = Cohort::from_causes(vec![Some(DropCause::Dropout); 3]);
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(cohort),
            &mut ledger,
            &mut NullObserver,
        );
        assert_eq!(state_vector(algo.state.server.as_ref().unwrap()), before);
        assert_eq!(ledger.total_bytes(), 0);
    }

    #[test]
    fn rejects_heterogeneous_spec_wiring() {
        // FedAvg takes a single spec, so heterogeneity cannot be expressed —
        // but a class-count mismatch must be caught.
        let bad = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 4,
            tier: DepthTier::T20,
        };
        assert!(FedAvg::new(scenario(4), bad, config(), 9).is_err());
    }
}
