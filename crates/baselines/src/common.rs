//! Shared client plumbing for the baseline algorithms.
//!
//! The generic pieces — client construction, spec validation, the threaded
//! per-client driver, and local-test evaluation — live in
//! [`fedpkd_core::clients`] so FedPKD and the baselines share one
//! implementation; this module re-exports them under the names the baseline
//! sources use and keeps only what is baseline-specific (the FedProx local
//! objective).

pub(crate) use fedpkd_core::clients::{
    build_clients, client_accuracies, for_each_active_client, validate_specs, ClientState as Client,
};

use fedpkd_core::train::{add_proximal_term, TrainStats};
use fedpkd_data::Dataset;
use fedpkd_rng::Rng;
use fedpkd_tensor::loss::CrossEntropy;
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::nn::Layer;
use fedpkd_tensor::optim::{step_and_zero, Optimizer};

/// Supervised local training with the FedProx proximal term
/// `μ/2 · ‖w − w_global‖²` added to every mini-batch objective.
///
/// The reported [`TrainStats`] mean loss covers the cross-entropy term only;
/// the proximal penalty enters through the gradients.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_supervised_prox(
    model: &mut ClassifierModel,
    dataset: &Dataset,
    reference: &[f32],
    mu: f32,
    epochs: usize,
    batch_size: usize,
    optimizer: &mut dyn Optimizer,
    rng: &mut Rng,
) -> TrainStats {
    assert_eq!(
        reference.len(),
        model.param_count(),
        "reference does not match the model's parameters"
    );
    // Where each parameter (by slot) starts in the flat reference vector.
    let mut offsets = Vec::new();
    let mut next = 0usize;
    model.visit_params(&mut |p| {
        offsets.push(next);
        next += p.value.len();
    });
    let ce = CrossEntropy::new();
    let mut total = 0.0f64;
    let mut batches = 0usize;
    for _ in 0..epochs {
        for batch in dataset.batches(batch_size, rng) {
            let logits = model.forward_logits(&batch.features, true);
            let (loss, grad) = ce.loss_and_grad(&logits, &batch.labels);
            // The fused step with the proximal gradient `μ(w − w_ref)`
            // folded into the per-parameter hook, ahead of the update.
            optimizer.begin_step(model);
            model.backward_dual_with(&grad, None, &mut |slot, param| {
                let start = offsets[slot];
                let reference = &reference[start..start + param.value.len()];
                add_proximal_term(param, reference, mu);
                step_and_zero(optimizer, slot, param);
            });
            total += f64::from(loss);
            batches += 1;
        }
    }
    TrainStats::from_total(total, batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_data::{FederatedScenario, Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_tensor::models::{DepthTier, ModelSpec};
    use fedpkd_tensor::serialize::param_vector;

    pub(crate) fn tiny_scenario(seed: u64) -> FederatedScenario {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(3)
            .samples(360)
            .public_size(120)
            .global_test_size(150)
            .partition(Partition::Dirichlet { alpha: 0.5 })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn spec(tier: DepthTier) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier,
        }
    }

    #[test]
    fn prox_training_stays_near_reference_for_large_mu() {
        let scenario = tiny_scenario(4);
        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 9);
        let reference = param_vector(&clients[0].model);
        // Huge mu: weights should barely move.
        let c = &mut clients[0];
        let stats = train_supervised_prox(
            &mut c.model,
            &scenario.clients[0].train,
            &reference,
            100.0,
            2,
            32,
            &mut c.optimizer,
            &mut c.rng,
        );
        assert!(stats.batches > 0 && stats.mean_loss > 0.0);
        let after = param_vector(&clients[0].model);
        let drift: f32 = reference
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        // Compare against an unconstrained run from the same start.
        let mut free = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 9);
        let f = &mut free[0];
        fedpkd_core::train::train_supervised(
            &mut f.model,
            &scenario.clients[0].train,
            2,
            32,
            &mut f.optimizer,
            &mut f.rng,
        );
        let free_after = param_vector(&free[0].model);
        let free_drift: f32 = reference
            .iter()
            .zip(&free_after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(
            drift < free_drift,
            "prox drift {drift} should be below free drift {free_drift}"
        );
    }
}
