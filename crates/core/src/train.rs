//! Shared training loops used by FedPKD and every baseline: one batch
//! order, [`minibatches`], and per objective a plain function of one
//! batch's forward outputs that returns its loss terms and gradients.

use fedpkd_data::Dataset;
use fedpkd_rng::Rng;
use fedpkd_tensor::loss::{distill_kl_ce, CrossEntropy, DistillKl, Mse};
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::nn::Param;
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
    /// Builds stats from an accumulated loss total (0 when no batch ran)
    /// and batch count.
    pub fn from_total(total_loss: f64, batches: usize) -> Self {
        let mean_loss = total_loss / batches.max(1) as f64;
        Self { batches, mean_loss }
    }
}

/// The one batch order: each of `epochs` passes shuffles `0..n` once with
/// `rng` and hands `step` the shuffled indices cut into chunks of
/// `batch_size` (the last one may be shorter). Returns the batch count.
///
/// # Panics
///
/// Panics if `batch_size` is 0.
pub fn minibatches(
    n: usize,
    epochs: usize,
    batch_size: usize,
    rng: &mut Rng,
    mut step: impl FnMut(&[usize]),
) -> usize {
    // Both configs' `validate` reject 0, and no wire or snapshot byte sets it.
    assert!(batch_size > 0, "batch size must be positive");
    let (mut order, mut batches) = (Vec::with_capacity(n), 0);
    for _ in 0..epochs {
        order.clear();
        order.extend(0..n);
        rng.shuffle(&mut order);
        for chunk in order.chunks(batch_size) {
            step(chunk);
            batches += 1;
        }
    }
    batches
}

/// Gathers `rows` of `source` into `out`, a buffer reused across batches.
pub(crate) fn gather(source: &Tensor, rows: &[usize], out: &mut Tensor) {
    // Every trainer walks `minibatches` over its inputs' common row count.
    source.select_rows_into(rows, out).expect("in range");
}

/// The prototype target of Eqs. 12 and 16: `features` with every row whose
/// (pseudo-)label has a global prototype replaced by that prototype, and
/// the number of rows replaced; `None` when no row's label has one.
pub(crate) fn prototype_target(
    features: &Tensor,
    labels: &[usize],
    prototypes: &[Option<Tensor>],
) -> Option<(Tensor, usize)> {
    let (mut target, mut covered) = (None::<Tensor>, 0);
    for (row, &y) in labels.iter().enumerate() {
        if let Some(proto) = prototypes.get(y).and_then(Option::as_ref) {
            let target = target.get_or_insert_with(|| features.clone());
            // Admission holds every global prototype to the feature width.
            target.row_mut(row).copy_from_slice(proto.as_slice());
            covered += 1;
        }
    }
    Some((target?, covered))
}

/// One batch of private training (Eq. 16):
/// `CE(logits, y) + ε · MSE(features, P^{y})`, or Eq. 4 when `ε == 0` or no
/// row's class has a global prototype. Returns `((CE, MSE), logit gradient,
/// feature gradient)`; MSE and feature gradient (ε applied) are `None` when
/// the pull is off. The MSE averages over every row, uncovered ones too.
pub fn supervised_objective(
    features: &Tensor,
    logits: &Tensor,
    labels: &[usize],
    prototypes: &[Option<Tensor>],
    epsilon: f32,
) -> ((f64, Option<f64>), Tensor, Option<Tensor>) {
    let (ce, logit_grad) = CrossEntropy::new().loss_and_grad(logits, labels);
    let pull = (epsilon != 0.0).then(|| prototype_target(features, labels, prototypes));
    let Some((target, _)) = pull.flatten() else {
        return ((f64::from(ce), None), logit_grad, None);
    };
    let (mse, mut feature_grad) = Mse::new().loss_and_grad(features, &target);
    feature_grad.scale_in_place(epsilon);
    let terms = (f64::from(ce), Some(f64::from(mse)));
    (terms, logit_grad, Some(feature_grad))
}

/// One batch of client distillation (Eq. 15):
/// `γ · T²·KL(teacher ‖ softmax(logits / T)) + (1−γ) · CE(logits, ỹ)`,
/// with `labels` the pseudo-labels ỹ (Eq. 14). Returns `((T²·KL, CE),
/// logit gradient)`.
pub fn distill_objective(
    logits: &Tensor,
    teacher: &Tensor,
    labels: &[usize],
    gamma: f32,
    temperature: f32,
) -> ((f64, f64), Tensor) {
    // Both terms share the logits; the combined entry fuses their softmax
    // families.
    let ((kl, kl_grad), (ce, ce_grad)) =
        distill_kl_ce(&DistillKl::new(temperature), logits, teacher, labels);
    let mut grad = kl_grad.scale(gamma);
    // Both gradients have the logits' shape.
    grad.axpy(1.0 - gamma, &ce_grad).expect("equal shapes");
    ((f64::from(kl), f64::from(ce)), grad)
}

/// Plain supervised training on a labeled dataset (Eq. 4): Eq. 16's
/// trainer with no prototypes.
pub fn train_supervised(
    model: &mut ClassifierModel,
    dataset: &Dataset,
    epochs: usize,
    batch_size: usize,
    optimizer: &mut dyn Optimizer,
    rng: &mut Rng,
) -> TrainStats {
    train_supervised_with_prototypes(model, dataset, &[], 0.0, epochs, batch_size, optimizer, rng)
}

/// Supervised training regularized toward global prototypes (Eq. 16), one
/// [`supervised_objective`] per mini-batch.
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
    let (mut x, mut total_loss) = (Tensor::default(), 0.0f64);
    let batches = minibatches(dataset.len(), epochs, batch_size, rng, |rows| {
        gather(dataset.features(), rows, &mut x);
        let labels: Vec<usize> = rows.iter().map(|&i| dataset.labels()[i]).collect();
        let (features, logits) = model.forward_full(&x, true);
        let ((ce, mse), logit_grad, feature_grad) =
            supervised_objective(&features, &logits, &labels, global_prototypes, epsilon);
        model.backward_step(&logit_grad, feature_grad.as_ref(), optimizer);
        total_loss += mse.map_or(ce, |mse| ce + f64::from(epsilon) * mse);
    });
    TrainStats::from_total(total_loss, batches)
}

/// Knowledge-distillation training on (a subset of) the public dataset
/// (Eq. 15), one [`distill_objective`] per mini-batch:
/// `γ · T²·KL(teacher ‖ student) + (1−γ) · CE(student, ỹ)`, where the
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
    let pseudo_labels: Vec<usize> = teacher_probs.argmax_rows();
    let (mut x, mut teacher, mut total_loss) = (Tensor::default(), Tensor::default(), 0.0f64);
    let batches = minibatches(public_features.rows(), epochs, batch_size, rng, |rows| {
        gather(public_features, rows, &mut x);
        gather(teacher_probs, rows, &mut teacher);
        let labels: Vec<usize> = rows.iter().map(|&i| pseudo_labels[i]).collect();
        let logits = model.forward_logits(&x, true);
        let ((kl, ce), grad) = distill_objective(&logits, &teacher, &labels, gamma, temperature);
        model.backward_step(&grad, None, optimizer);
        total_loss += f64::from(gamma) * kl + f64::from(1.0 - gamma) * ce;
    });
    TrainStats::from_total(total_loss, batches)
}

/// The proximal term for one parameter: `grad += μ · (w − w_ref)`, with
/// `reference` that parameter's slice of the reference vector.
///
/// # Panics
///
/// Panics if `reference` is not the parameter's length.
pub fn add_proximal_term(param: &mut Param, reference: &[f32], mu: f32) {
    let (value, grad) = param.value_and_grad_mut();
    add_proximal_grad(grad.as_mut_slice(), value.as_slice(), reference, mu);
}

/// [`add_proximal_term`] on a gradient slice: `grad += μ · (w − w_ref)`,
/// `value` holding `w` — what FedProx's optimizer does to each gradient
/// the fused step hands it.
///
/// # Panics
///
/// Panics if `reference` or `grad` is not `value`'s length.
pub fn add_proximal_grad(grad: &mut [f32], value: &[f32], reference: &[f32], mu: f32) {
    assert_eq!(reference.len(), value.len(), "reference slice mismatch");
    assert_eq!(grad.len(), value.len(), "gradient slice mismatch");
    for ((g, &w), &r) in grad.iter_mut().zip(value).zip(reference) {
        *g += mu * (w - r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use fedpkd_data::SyntheticConfig;
    use fedpkd_tensor::models::build_mlp;
    use fedpkd_tensor::nn::Layer;
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
        // Zero data gradient: apply the prox term toward zero alone and step.
        model.zero_grad();
        model.visit_params_mut(&mut |p| {
            let reference = vec![0.0f32; p.value.len()];
            add_proximal_term(p, &reference, 1.0);
        });
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
    #[should_panic(expected = "reference slice mismatch")]
    fn proximal_term_validates_length() {
        let mut rng = Rng::seed_from_u64(7);
        let mut model = build_mlp(&[2, 4], 2, &mut rng);
        model.visit_params_mut(&mut |p| add_proximal_term(p, &[0.0; 3], 0.1));
    }
}
