//! FedET (Cho et al., 2022).

use std::time::Instant;

use crate::common::{
    digest_public, distill_server, forward_to_fleet, local_update, report_ensemble, train_local,
    Fleet, RoundIo,
};
use crate::BaselineConfig;
use fedpkd_core::eval;
use fedpkd_core::fedpkd::CoreError;
use fedpkd_core::runtime::Federation;
use fedpkd_core::telemetry::{emit_phase_timing, Phase, RoundObserver};
use fedpkd_data::FederatedScenario;
use fedpkd_netsim::{CommLedger, RoundContext};
use fedpkd_rng::Rng;
use fedpkd_tensor::models::ModelSpec;
use fedpkd_tensor::ops::{row_entropy, softmax};
use fedpkd_tensor::serialize::load_state_vector;
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
    /// With `seed`, what the per-round scratch models are rebuilt from, so
    /// they never enter a snapshot.
    client_specs: Vec<ModelSpec>,
    config: BaselineConfig,
    seed: u64,
    state: Fleet,
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
            client_specs,
            config,
            seed,
            state,
        })
    }
}

impl Federation for FedEt {
    fn name(&self) -> &'static str {
        "FedET"
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
        let public = &scenario.public;
        let k = scenario.num_classes;

        // Local training; parameters travel up (FedET's costly uplink) and
        // nothing is broadcast — clients keep their own heterogeneous state.
        let clients = &mut self.state.clients;
        let Some((senders, updates)) = local_update(clients, scenario, io, None, |client, data| {
            train_local(config, client, data)
        }) else {
            return;
        };
        let started = Instant::now();
        if updates.is_empty() {
            emit_phase_timing(io.obs, round, Phase::Aggregation, started);
            return;
        }

        // Server-side confidence-weighted ensemble over the public set,
        // each sender's model rebuilt from its upload in turn.
        let members = senders.iter().zip(&updates).map(|(&i, params)| {
            let mut scratch_rng = Rng::stream(self.seed, 1000 + i as u64);
            let mut scratch = self.client_specs[i].build(&mut scratch_rng);
            load_state_vector(&mut scratch, params).expect("spec matches upload");
            softmax(&eval::logits_on(&mut scratch, public), 1.0)
        });
        let (weighted_sum, members) =
            certainty_ensemble(members, public.len(), k, io.obs.enabled());
        // The entropy-based per-sample weights are FedET-specific; the
        // shared report still measures ensemble disagreement.
        report_ensemble(&members, io);
        emit_phase_timing(io.obs, round, Phase::Aggregation, started);

        // Distill ensemble → (larger) server model.
        let server = self.state.server.as_mut().expect("built with a server");
        let rng = self.state.server_rng.as_mut().expect("stored at build");
        distill_server(server, public, &weighted_sum, 1.0, config, rng, io);

        // Server probabilities travel down; surviving clients distill.
        let server_probs = softmax(&eval::logits_on(server, public), 1.0);
        let clients = &mut self.state.clients;
        digest_public(clients, scenario, config, io, &server_probs, 1.0);
    }

    forward_to_fleet!();
}

/// FedET's certainty-weighted ensemble of `members`, each a
/// `[samples, k]` probability matrix, folded one at a time: per sample,
/// member `c` weighs `w_c = max(1 − H(p_c)/ln k, 1e-3)` and the ensemble
/// is `Σ_c w_c·p_c / max(Σ_c w_c, 1e-9)`. Returns it with every member's
/// probabilities when `keep` is set, else with none buffered.
pub(crate) fn certainty_ensemble(
    members: impl IntoIterator<Item = Tensor>,
    samples: usize,
    k: usize,
    keep: bool,
) -> (Tensor, Vec<Tensor>) {
    let ln_k = (k as f32).ln();
    let mut weighted_sum = Tensor::zeros(&[samples, k]);
    let mut weight_total = vec![0.0f32; samples];
    let mut kept = Vec::new();
    for probs in members {
        let certainty = row_entropy(&probs)
            .into_iter()
            .map(|h| (1.0 - h / ln_k).max(1e-3));
        for (r, w) in certainty.enumerate() {
            weight_total[r] += w;
            for (o, &p) in weighted_sum.row_mut(r).iter_mut().zip(probs.row(r)) {
                *o += w * p;
            }
        }
        if keep {
            kept.push(probs);
        }
    }
    for (r, total) in weight_total.iter().enumerate() {
        let norm = total.max(1e-9);
        for v in weighted_sum.row_mut(r) {
            *v /= norm;
        }
    }
    (weighted_sum, kept)
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

    /// Relative tolerance, per entry, of the ensemble row.
    const TOL: f64 = 2.5e-5;

    /// Smallest certainty an unfloored fixture weight may have (asserted).
    const MIN_CERTAINTY: f64 = 0.1;

    /// FedET (Cho et al.): the certainty-weighted ensemble, diffed against a
    /// naive `f64` reference of the rule [`certainty_ensemble`] states,
    /// sharing no code with it, over three members' `f32` probabilities
    /// (6 samples, 4 classes; member 2's sample 0 is uniform, so the
    /// `1e-3` floor is taken there).
    ///
    /// Tolerance, with `u = 2⁻²⁴` the `f32` unit roundoff: each entropy
    /// term `−p·ln p` is within `3u` relative and the `K`-term sum adds
    /// `(K − 1)u`, so `H` is within `6u`; `ln k` and the division add `2u`,
    /// so `H/ln k ≤ 1` is within `8u` absolute, and `1 − H/ln k` within
    /// `9u` absolute — `90u` relative for a weight of at least
    /// [`MIN_CERTAINTY`] (a floored weight is `1e-3` on both sides). All
    /// terms are non-negative: `Σ w·p` is within `90u + u + (C − 1)u`,
    /// `Σ w` within `90u + (C − 1)u` and the division adds `u`, about
    /// `187u ≈ 1.1e-5` relative per entry. [`TOL`] allows a little over
    /// twice that.
    #[test]
    fn fedet_ensemble_matches_the_reference() {
        let (samples, k) = (6, 4);
        let mut rng = Rng::seed_from_u64(91);
        let mut members: Vec<Tensor> = (0..3)
            .map(|_| softmax(&Tensor::randn(&[samples, k], 3.0, &mut rng), 1.0))
            .collect();
        members[2].row_mut(0).fill(0.25);
        let (got, kept) = certainty_ensemble(members.clone(), samples, k, false);
        assert!(kept.is_empty(), "nothing is buffered without `keep`");

        let entropy =
            |p: &[f64]| -> f64 { p.iter().filter(|&&v| v > 0.0).map(|v| -v * v.ln()).sum() };
        let ln_k = (k as f64).ln();
        let mut worst: f64 = 0.0;
        for r in 0..samples {
            let rows: Vec<Vec<f64>> = members
                .iter()
                .map(|m| m.row(r).iter().map(|&v| f64::from(v)).collect())
                .collect();
            let weights: Vec<f64> = rows
                .iter()
                .map(|p| (1.0 - entropy(p) / ln_k).max(1e-3))
                .collect();
            for &w in &weights {
                assert!(w == 1e-3 || w >= MIN_CERTAINTY, "fixture bound: w = {w}");
            }
            let total = weights.iter().sum::<f64>().max(1e-9);
            for (j, &g) in got.row(r).iter().enumerate() {
                let want = rows
                    .iter()
                    .zip(&weights)
                    .map(|(p, w)| w * p[j])
                    .sum::<f64>()
                    / total;
                worst = worst.max((f64::from(g) - want).abs() / want);
            }
        }
        assert!(
            worst <= TOL,
            "certainty-weighted ensemble: relative gap {worst}"
        );
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
