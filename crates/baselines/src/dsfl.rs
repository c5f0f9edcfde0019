//! DS-FL (Itahara et al., 2020).

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
use fedpkd_tensor::ops::{sharpen, softmax};

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
    state: Fleet,
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
        let (state, _) = Fleet::new(&scenario, &config, &client_specs, None, false, seed)?;
        Ok(Self {
            scenario,
            config,
            state,
        })
    }
}

impl Federation for DsFl {
    fn name(&self) -> &'static str {
        "DS-FL"
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

        // Local training; surviving clients upload *probabilities* (same
        // wire size as logits).
        let Some((_, probs)) = public_upload(clients, scenario, io, |client, data| {
            let stats = train_local(config, client, data);
            let logits = eval::logits_on(&mut client.model, &scenario.public);
            (softmax(&logits, 1.0), stats)
        }) else {
            return;
        };

        // Entropy-reduction aggregation over the admitted uploads: mean,
        // then sharpen.
        let started = Instant::now();
        let sharpened =
            mean_upload(&probs, io).map(|mean| sharpen(&mean, config.sharpen_temperature));
        emit_phase_timing(io.obs, round, Phase::Aggregation, started);

        // Distribute + distill, survivors only; the targets are already
        // probabilities at T = 1.
        if let Some(sharpened) = sharpened {
            digest_public(clients, scenario, config, io, &sharpened, 1.0);
        }
    }

    forward_to_fleet!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_tensor::models::DepthTier;
    use fedpkd_tensor::ops::row_entropy;
    use fedpkd_tensor::Tensor;

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
