//! Shared training loops used by FedPKD and every baseline.

use fedpkd_data::Dataset;
use fedpkd_rng::Rng;
use fedpkd_tensor::loss::{distill_kl_ce, CrossEntropy, DistillKl, Mse};
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::nn::{Layer, Param};
use fedpkd_tensor::optim::Optimizer;
use fedpkd_tensor::Tensor;

/// Summary of one training call: how many mini-batches ran and their mean
/// objective value.
///
/// The loss values are byproducts of gradients the loops already compute,
/// so collecting them is free and never perturbs training; callers forward
/// them to telemetry or drop them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainStats {
    /// Mini-batches processed (across all epochs).
    pub batches: usize,
    /// Mean per-batch objective value, or 0 when no batch ran.
    pub mean_loss: f64,
}

impl TrainStats {
    /// Builds stats from an accumulated loss total and batch count.
    pub fn from_total(total_loss: f64, batches: usize) -> Self {
        Self {
            batches,
            mean_loss: if batches == 0 {
                0.0
            } else {
                total_loss / batches as f64
            },
        }
    }
}

/// Plain supervised training on a labeled dataset (Eq. 4).
///
/// Runs `epochs` passes of shuffled mini-batch training with cross-entropy.
pub fn train_supervised(
    model: &mut ClassifierModel,
    dataset: &Dataset,
    epochs: usize,
    batch_size: usize,
    optimizer: &mut dyn Optimizer,
    rng: &mut Rng,
) -> TrainStats {
    let ce = CrossEntropy::new();
    let mut total_loss = 0.0f64;
    let mut batches = 0usize;
    for _ in 0..epochs {
        for batch in dataset.batches(batch_size, rng) {
            let logits = model.forward_logits(&batch.features, true);
            let (loss, grad) = ce.loss_and_grad(&logits, &batch.labels);
            model.backward_step(&grad, None, optimizer);
            total_loss += f64::from(loss);
            batches += 1;
        }
    }
    TrainStats::from_total(total_loss, batches)
}

/// Supervised training regularized toward global prototypes (Eq. 16):
/// `CE(logits, y) + ε · MSE(features, P^{y})`.
///
/// Classes without a global prototype contribute only the CE term.
#[allow(clippy::too_many_arguments)]
pub fn train_supervised_with_prototypes(
    model: &mut ClassifierModel,
    dataset: &Dataset,
    global_prototypes: &[Option<Tensor>],
    epsilon: f32,
    epochs: usize,
    batch_size: usize,
    optimizer: &mut dyn Optimizer,
    rng: &mut Rng,
) -> TrainStats {
    let ce = CrossEntropy::new();
    let mse = Mse::new();
    let mut total_loss = 0.0f64;
    let mut batches = 0usize;
    // The Eq. 16 target, rebuilt in place per batch.
    let mut target = Tensor::default();
    for _ in 0..epochs {
        for batch in dataset.batches(batch_size, rng) {
            let (features, logits) = model.forward_full(&batch.features, true);
            let (ce_loss, logit_grad) = ce.loss_and_grad(&logits, &batch.labels);

            // Prototype pull: rows whose class has a global prototype get an
            // MSE gradient on their feature embedding.
            target.clone_from(&features);
            let mut any = false;
            for (row, &y) in batch.labels.iter().enumerate() {
                if let Some(proto) = global_prototypes.get(y).and_then(Option::as_ref) {
                    target.row_mut(row).copy_from_slice(proto.as_slice());
                    any = true;
                }
            }
            let mut objective = f64::from(ce_loss);
            let feature_grad = if any && epsilon != 0.0 {
                let (mse_loss, mut fgrad) = mse.loss_and_grad(&features, &target);
                fgrad.scale_in_place(epsilon);
                objective += f64::from(epsilon) * f64::from(mse_loss);
                Some(fgrad)
            } else {
                None
            };
            model.backward_step(&logit_grad, feature_grad.as_ref(), optimizer);
            total_loss += objective;
            batches += 1;
        }
    }
    TrainStats::from_total(total_loss, batches)
}

/// Knowledge-distillation training on (a subset of) the public dataset
/// (Eq. 15): `γ · KL(student ‖ teacher) + (1−γ) · CE(student, ỹ)` where the
/// pseudo-labels `ỹ` are the argmax of the teacher distribution (Eq. 14).
///
/// `public_features` rows must align with `teacher_probs` rows.
///
/// # Panics
///
/// Panics if the row counts of `public_features` and `teacher_probs`
/// disagree.
#[allow(clippy::too_many_arguments)]
pub fn train_distill(
    model: &mut ClassifierModel,
    public_features: &Tensor,
    teacher_probs: &Tensor,
    gamma: f32,
    temperature: f32,
    epochs: usize,
    batch_size: usize,
    optimizer: &mut dyn Optimizer,
    rng: &mut Rng,
) -> TrainStats {
    assert_eq!(
        public_features.rows(),
        teacher_probs.rows(),
        "feature/teacher row mismatch"
    );
    let n = public_features.rows();
    if n == 0 {
        return TrainStats::default();
    }
    let kl = DistillKl::new(temperature);
    let pseudo_labels: Vec<usize> = teacher_probs.argmax_rows();

    let mut total_loss = 0.0f64;
    let mut batches = 0usize;
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut labels: Vec<usize> = Vec::with_capacity(batch_size.min(n));
    // The batch and its teacher rows, gathered in place per batch.
    let (mut x, mut teacher) = (Tensor::default(), Tensor::default());
    for _ in 0..epochs {
        order.clear();
        order.extend(0..n);
        rng.shuffle(&mut order);
        for chunk in order.chunks(batch_size) {
            public_features
                .select_rows_into(chunk, &mut x)
                .expect("indices in range");
            teacher_probs
                .select_rows_into(chunk, &mut teacher)
                .expect("indices in range");
            labels.clear();
            labels.extend(chunk.iter().map(|&i| pseudo_labels[i]));
            let logits = model.forward_logits(&x, true);
            // Both loss terms share the logits; the combined entry fuses
            // their softmax families.
            let ((kl_loss, kl_grad), (ce_loss, ce_grad)) =
                distill_kl_ce(&kl, &logits, &teacher, &labels);
            let mut grad = kl_grad.scale(gamma);
            grad.axpy(1.0 - gamma, &ce_grad).expect("equal shapes");
            model.backward_step(&grad, None, optimizer);
            total_loss +=
                f64::from(gamma) * f64::from(kl_loss) + f64::from(1.0 - gamma) * f64::from(ce_loss);
            batches += 1;
        }
    }
    TrainStats::from_total(total_loss, batches)
}

/// Adds the FedProx proximal gradient `μ · (w − w_ref)` to the accumulated
/// gradients of `model`. Call between `backward` and the optimizer step.
///
/// # Panics
///
/// Panics if `reference` does not match the model's parameter count.
pub fn apply_proximal_term(model: &mut dyn Layer, reference: &[f32], mu: f32) {
    let expected = model.param_count();
    assert_eq!(
        reference.len(),
        expected,
        "reference has {} values, model has {expected} parameters",
        reference.len()
    );
    let mut offset = 0usize;
    model.visit_params_mut(&mut |p| {
        let len = p.value.len();
        add_proximal_term(p, &reference[offset..offset + len], mu);
        offset += len;
    });
}

/// The proximal term for one parameter: `grad += μ · (w − w_ref)`, with
/// `reference` that parameter's slice of the reference vector.
///
/// # Panics
///
/// Panics if `reference` is not the parameter's length.
pub fn add_proximal_term(param: &mut Param, reference: &[f32], mu: f32) {
    let values = param.value.as_slice();
    assert_eq!(reference.len(), values.len(), "reference slice mismatch");
    for ((g, &w), &r) in param
        .grad
        .as_mut_slice()
        .iter_mut()
        .zip(values)
        .zip(reference)
    {
        *g += mu * (w - r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use fedpkd_data::SyntheticConfig;
    use fedpkd_tensor::models::build_mlp;
    use fedpkd_tensor::ops::softmax;
    use fedpkd_tensor::optim::Adam;
    use fedpkd_tensor::serialize::param_vector;

    fn small_dataset(seed: u64, n: usize) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        SyntheticConfig::cifar10_like()
            .generate(n, &mut rng)
            .unwrap()
    }

    #[test]
    fn supervised_training_improves_accuracy() {
        let mut rng = Rng::seed_from_u64(1);
        let ds = small_dataset(1, 400);
        let mut model = build_mlp(&[32, 64], 10, &mut rng);
        let mut opt = Adam::new(0.005);
        let before = eval::accuracy(&mut model, &ds);
        train_supervised(&mut model, &ds, 15, 32, &mut opt, &mut rng);
        let after = eval::accuracy(&mut model, &ds);
        assert!(after > before + 0.2, "{before} → {after}");
    }

    #[test]
    fn prototype_regularized_training_improves_accuracy() {
        let mut rng = Rng::seed_from_u64(2);
        let ds = small_dataset(2, 400);
        let mut model = build_mlp(&[32, 64], 10, &mut rng);
        let mut opt = Adam::new(0.005);
        // Prototypes: zero vectors for all classes (pure regularization).
        let protos: Vec<Option<Tensor>> = (0..10).map(|_| Some(Tensor::zeros(&[64]))).collect();
        let before = eval::accuracy(&mut model, &ds);
        train_supervised_with_prototypes(&mut model, &ds, &protos, 0.1, 15, 32, &mut opt, &mut rng);
        let after = eval::accuracy(&mut model, &ds);
        assert!(after > before + 0.2, "{before} → {after}");
    }

    #[test]
    fn prototype_training_with_no_prototypes_matches_plain_path() {
        // With every prototype missing the function must still train.
        let mut rng = Rng::seed_from_u64(3);
        let ds = small_dataset(3, 200);
        let mut model = build_mlp(&[32, 32], 10, &mut rng);
        let mut opt = Adam::new(0.005);
        let protos: Vec<Option<Tensor>> = vec![None; 10];
        train_supervised_with_prototypes(&mut model, &ds, &protos, 0.5, 5, 32, &mut opt, &mut rng);
        assert!(eval::accuracy(&mut model, &ds) > 0.2);
    }

    #[test]
    fn distillation_transfers_teacher_knowledge() {
        let mut rng = Rng::seed_from_u64(4);
        let ds = small_dataset(4, 400);
        // Teacher: train a model supervised.
        let mut teacher = build_mlp(&[32, 64], 10, &mut rng);
        let mut t_opt = Adam::new(0.005);
        train_supervised(&mut teacher, &ds, 15, 32, &mut t_opt, &mut rng);
        let teacher_logits = eval::logits_on(&mut teacher, &ds);
        let teacher_probs = softmax(&teacher_logits, 1.0);
        // Student: fresh model distilled from the teacher, never sees labels.
        let mut student = build_mlp(&[32, 48], 10, &mut rng);
        let mut s_opt = Adam::new(0.005);
        let before = eval::accuracy(&mut student, &ds);
        train_distill(
            &mut student,
            ds.features(),
            &teacher_probs,
            0.5,
            2.0,
            15,
            32,
            &mut s_opt,
            &mut rng,
        );
        let after = eval::accuracy(&mut student, &ds);
        assert!(after > before + 0.2, "distillation {before} → {after}");
    }

    #[test]
    fn training_reports_batch_count_and_decreasing_loss() {
        let mut rng = Rng::seed_from_u64(8);
        let ds = small_dataset(8, 256);
        let mut model = build_mlp(&[32, 64], 10, &mut rng);
        let mut opt = Adam::new(0.005);
        let first = train_supervised(&mut model, &ds, 1, 32, &mut opt, &mut rng);
        assert_eq!(first.batches, 8);
        assert!(first.mean_loss.is_finite() && first.mean_loss > 0.0);
        let later = train_supervised(&mut model, &ds, 10, 32, &mut opt, &mut rng);
        assert!(
            later.mean_loss < first.mean_loss,
            "loss should fall: {} → {}",
            first.mean_loss,
            later.mean_loss
        );
    }

    #[test]
    fn distillation_on_empty_subset_is_a_noop() {
        let mut rng = Rng::seed_from_u64(5);
        let mut model = build_mlp(&[4, 8], 3, &mut rng);
        let mut opt = Adam::new(0.01);
        let before = param_vector(&model);
        let stats = train_distill(
            &mut model,
            &Tensor::zeros(&[0, 4]),
            &Tensor::zeros(&[0, 3]),
            0.5,
            1.0,
            3,
            8,
            &mut opt,
            &mut rng,
        );
        assert_eq!(param_vector(&model), before);
        assert_eq!(stats, TrainStats::default());
    }

    #[test]
    fn proximal_term_pulls_toward_reference() {
        let mut rng = Rng::seed_from_u64(6);
        let mut model = build_mlp(&[2, 4], 2, &mut rng);
        let reference = vec![0.0f32; model.param_count()];
        // Zero data gradient: apply the prox term alone and step.
        model.zero_grad();
        apply_proximal_term(&mut model, &reference, 1.0);
        let norm_before: f32 = param_vector(&model).iter().map(|v| v * v).sum();
        let mut opt = fedpkd_tensor::optim::Adam::new(0.01);
        opt.step(&mut model);
        let norm_after: f32 = param_vector(&model).iter().map(|v| v * v).sum();
        assert!(
            norm_after < norm_before,
            "prox toward zero must shrink weights"
        );
    }

    #[test]
    #[should_panic(expected = "parameters")]
    fn proximal_term_validates_length() {
        let mut rng = Rng::seed_from_u64(7);
        let mut model = build_mlp(&[2, 4], 2, &mut rng);
        apply_proximal_term(&mut model, &[0.0; 3], 0.1);
    }
}
