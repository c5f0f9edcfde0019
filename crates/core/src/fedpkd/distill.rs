//! Prototype-based ensemble distillation — server training (Eqs. 11–13).
//!
//! The server step is the one place FedPKD's server spends the worker
//! budget, and this module holds its one [`std::thread::scope`]: the step
//! worker's thread, and a data-free round's generator refine beside the
//! distillation ([`train_server_with_workers`]), whose thread becomes the step
//! worker when the refine returns if the budget has no room for both.

use std::panic::resume_unwind;

use crate::train::{gather, minibatches, prototype_target};
use fedpkd_rng::Rng;
use fedpkd_tensor::loss::{distill_kl_ce, DistillKl, Mse};
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::optim::Optimizer;
use fedpkd_tensor::parallel::max_workers;
use fedpkd_tensor::step_worker::StepWorker;
use fedpkd_tensor::Tensor;

/// Loss components of one [`train_server`] call, averaged per mini-batch:
/// the distillation term `L_kd` (Eq. 11), the prototype term `L_p`
/// (Eq. 12), and the combined objective `F` (Eq. 13).
///
/// `proto_loss` is 0 when the prototype term never ran (`delta == 1` or no
/// class had a prototype). All values are byproducts of the gradients the
/// loop computes anyway.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerDistillStats {
    /// Mean `T²·KL + CE` distillation loss (Eq. 11).
    pub kd_loss: f64,
    /// Mean `MSE` prototype loss (Eq. 12); 0 when the term was inactive.
    pub proto_loss: f64,
    /// Mean combined objective `δ·L_kd + (1−δ)·L_p` (Eq. 13).
    pub combined_loss: f64,
    /// Mini-batches processed (across all epochs).
    pub batches: usize,
}

/// One batch of server distillation (Eqs. 11–13): `F = δ·L_kd + (1−δ)·L_p`
/// with Eq. 11's `L_kd = T²·KL(teacher ‖ softmax(logits / T)) + CE(logits, ỹ)`
/// and Eq. 12's `L_p = MSE(features, P^{ỹ})` over the rows whose
/// pseudo-class ỹ (`labels`) has a global prototype. Returns `((L_kd, L_p),
/// logit gradient, feature gradient)`, the gradients being `F`'s; `L_p` and
/// the feature gradient are `None` when `delta == 1` or no row is covered.
pub fn server_objective(
    features: &Tensor,
    logits: &Tensor,
    teacher: &Tensor,
    labels: &[usize],
    prototypes: &[Option<Tensor>],
    delta: f32,
    temperature: f32,
) -> ((f64, Option<f64>), Tensor, Option<Tensor>) {
    // Eq. 11: both losses share the logits, so the combined entry fuses
    // their softmax families.
    let ((kl, mut logit_grad), (ce, ce_grad)) =
        distill_kl_ce(&DistillKl::new(temperature), logits, teacher, labels);
    // Both gradients have the logits' shape.
    logit_grad.axpy(1.0, &ce_grad).expect("equal shapes");
    logit_grad.scale_in_place(delta);
    let kd = f64::from(kl) + f64::from(ce);

    // Eq. 12: pull features toward P^{ỹ}.
    let pull = (delta < 1.0).then(|| prototype_target(features, labels, prototypes));
    let Some((target, covered)) = pull.flatten() else {
        return ((kd, None), logit_grad, None);
    };
    // The MSE averages over every batch row, but rows whose pseudo-class has
    // no prototype have target == features and contribute exactly zero, so
    // Eq. 12's mean must be over covered rows only — without the rescale,
    // partial coverage dilutes both the reported L_p and its gradient.
    let (mse, mut feature_grad) = Mse::new().loss_and_grad(features, &target);
    let rescale = labels.len() as f32 / covered as f32;
    feature_grad.scale_in_place((1.0 - delta) * rescale);
    let proto = f64::from(mse) * f64::from(rescale);
    ((kd, Some(proto)), logit_grad, Some(feature_grad))
}

/// Trains the server model on the filtered public subset with the combined
/// objective of Eq. 13:
/// `F = δ·(T²·KL(S ‖ M) + CE(M, ỹ)) + (1−δ)·MSE(R(x), P^{ỹ})`, one
/// [`server_objective`] per mini-batch.
///
/// `public_features` / `teacher_probs` / `pseudo_labels` must be row-aligned
/// (the already-filtered subset). Rows whose pseudo-class has no global
/// prototype (or when `delta == 1`) skip the prototype term.
///
/// This is [`train_server_with_workers`] at the machine's
/// [`max_workers`].
///
/// # Panics
///
/// Panics if row counts disagree, `delta` is outside `[0, 1]` or
/// `batch_size` is 0.
#[allow(clippy::too_many_arguments)]
pub fn train_server(
    model: &mut ClassifierModel,
    public_features: &Tensor,
    teacher_probs: &Tensor,
    pseudo_labels: &[usize],
    global_prototypes: &[Option<Tensor>],
    delta: f32,
    temperature: f32,
    epochs: usize,
    batch_size: usize,
    optimizer: &mut dyn Optimizer,
    rng: &mut Rng,
) -> ServerDistillStats {
    train_server_with_workers(
        model,
        public_features,
        teacher_probs,
        pseudo_labels,
        global_prototypes,
        delta,
        temperature,
        epochs,
        batch_size,
        optimizer,
        rng,
        max_workers(),
        None::<fn()>,
    )
    .0
}

/// [`train_server`] under a worker budget, with an optional job of the
/// caller's — a data-free round's generator refine — running `beside` it
/// on a thread of the same budget. Returns the job's result with the
/// stats.
///
/// Mini-batch SGD is sequential, so the server trains on the calling
/// thread whatever the budget; with `workers >= 2` one more thread, scoped
/// to this call, takes the parameter-gradient products and optimizer
/// updates off the backward pass's critical path (see [`StepWorker`]). The
/// budget is spent in order. At 1, or with nothing to train, the job runs
/// on the calling thread after the distillation (or alone), and nothing is
/// spawned. At 2 the job's thread becomes the step worker once the job
/// returns; until then the distillation steps inline. From 3 the job and
/// the step worker each have a thread. The job and the distillation must
/// share no mutable state, so — as the step worker moves no bits — where
/// and when anything runs cannot show in the bits of either.
///
/// # Panics
///
/// Panics if row counts disagree, `delta` is outside `[0, 1]` or
/// `batch_size` is 0; resumes a panic of the job once the distillation is
/// done.
#[allow(clippy::too_many_arguments)]
pub fn train_server_with_workers<T: Send>(
    model: &mut ClassifierModel,
    public_features: &Tensor,
    teacher_probs: &Tensor,
    pseudo_labels: &[usize],
    global_prototypes: &[Option<Tensor>],
    delta: f32,
    temperature: f32,
    epochs: usize,
    batch_size: usize,
    optimizer: &mut dyn Optimizer,
    rng: &mut Rng,
    workers: usize,
    beside: Option<impl FnOnce() -> T + Send>,
) -> (ServerDistillStats, Option<T>) {
    assert!((0.0..=1.0).contains(&delta), "delta must be in [0, 1]");
    // `FedPkdConfig::validate` rejects 0, and no wire or snapshot byte sets it.
    assert!(batch_size > 0, "batch size must be positive");
    let n = public_features.rows();
    assert_eq!(teacher_probs.rows(), n, "teacher rows mismatch");
    assert_eq!(pseudo_labels.len(), n, "pseudo-label count mismatch");
    if n == 0 || epochs == 0 {
        // Nothing runs; dividing by zero batches below would poison the
        // stats (and JSONL telemetry) with NaN.
        return (ServerDistillStats::default(), beside.map(|job| job()));
    }
    let (mut x, mut teacher) = (Tensor::default(), Tensor::default());
    // The epochs, over whichever training forward and fused step
    // `forward` and `step` are.
    let mut epochs_with =
        |model: &mut ClassifierModel,
         forward: &mut dyn FnMut(&mut ClassifierModel, &Tensor) -> (Tensor, Tensor),
         step: &mut dyn FnMut(&mut ClassifierModel, &Tensor, Option<&Tensor>)| {
            let (mut kd_total, mut proto_total) = (0.0f64, 0.0f64);
            let batches = minibatches(n, epochs, batch_size, rng, |rows| {
                gather(public_features, rows, &mut x);
                gather(teacher_probs, rows, &mut teacher);
                let labels: Vec<usize> = rows.iter().map(|&i| pseudo_labels[i]).collect();
                let (features, logits) = forward(model, &x);
                let ((kd, proto), logit_grad, feature_grad) = server_objective(
                    &features,
                    &logits,
                    &teacher,
                    &labels,
                    global_prototypes,
                    delta,
                    temperature,
                );
                kd_total += kd;
                proto_total += proto.unwrap_or(0.0);
                step(model, &logit_grad, feature_grad.as_ref());
            });
            let (kd_loss, proto_loss) = (kd_total / batches as f64, proto_total / batches as f64);
            ServerDistillStats {
                kd_loss,
                proto_loss,
                combined_loss: f64::from(delta) * kd_loss + f64::from(1.0 - delta) * proto_loss,
                batches,
            }
        };

    if workers < 2 {
        let stats = epochs_with(
            model,
            &mut |model, x| model.forward_full(x, true),
            &mut |model, logit_grad, feature_grad| {
                model.backward_step(logit_grad, feature_grad, optimizer);
            },
        );
        return (stats, beside.map(|job| job()));
    }
    let serves_after_job = beside.is_some() && workers == 2;
    let worker = if serves_after_job {
        StepWorker::inline_until_served(optimizer)
    } else {
        StepWorker::new(optimizer)
    };
    let worker = &worker;
    std::thread::scope(|scope| {
        let job = beside.map(|job| {
            scope.spawn(move || {
                let out = job();
                if serves_after_job {
                    worker.serve();
                }
                out
            })
        });
        if !serves_after_job {
            scope.spawn(|| worker.serve());
        }
        let stats = {
            let _close = worker.close_on_drop();
            let stats = epochs_with(
                model,
                &mut |model, x| model.forward_train_on(x, worker),
                &mut |model, logit_grad, feature_grad| {
                    model.backward_step_on(logit_grad, feature_grad, worker);
                },
            );
            worker.finish_step(model);
            stats
        };
        let out = job.map(|thread| thread.join().unwrap_or_else(|panic| resume_unwind(panic)));
        (stats, out)
    })
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

    #[test]
    fn server_learns_from_good_teacher_probs() {
        let mut rng = Rng::seed_from_u64(1);
        let ds = SyntheticConfig::cifar10_like()
            .generate(400, &mut rng)
            .unwrap();
        // "Teacher": one-hot-ish probabilities from the true labels —
        // upper-bound-quality aggregated knowledge.
        let n = ds.len();
        let mut teacher = Tensor::full(&[n, 10], 0.01);
        for (i, &y) in ds.labels().iter().enumerate() {
            teacher.row_mut(i)[y] = 0.91;
        }
        let pseudo: Vec<usize> = teacher.argmax_rows();
        let protos: Vec<Option<Tensor>> = vec![None; 10];
        let mut server = build_mlp(&[32, 64], 10, &mut rng);
        let mut opt = Adam::new(0.005);
        let before = eval::accuracy(&mut server, &ds);
        train_server(
            &mut server,
            ds.features(),
            &teacher,
            &pseudo,
            &protos,
            1.0, // distillation only
            2.0,
            15,
            32,
            &mut opt,
            &mut rng,
        );
        let after = eval::accuracy(&mut server, &ds);
        assert!(after > before + 0.3, "{before} → {after}");
    }

    #[test]
    fn prototype_term_moves_features_toward_targets() {
        let mut rng = Rng::seed_from_u64(2);
        let ds = SyntheticConfig::cifar10_like()
            .generate(100, &mut rng)
            .unwrap();
        let mut server = build_mlp(&[32, 16], 10, &mut rng);
        let logits = eval::logits_on(&mut server, &ds);
        let teacher = softmax(&logits, 1.0);
        let pseudo = teacher.argmax_rows();
        // Prototypes: distinct constants per class.
        let protos: Vec<Option<Tensor>> = (0..10)
            .map(|c| Some(Tensor::full(&[16], c as f32 * 0.1)))
            .collect();
        let mean_dist = |m: &mut ClassifierModel| -> f32 {
            let f = eval::features_on(m, &ds);
            (0..f.rows())
                .map(|r| {
                    let p = protos[pseudo[r]].as_ref().unwrap();
                    f.row(r)
                        .iter()
                        .zip(p.as_slice())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f32>()
                })
                .sum::<f32>()
                / f.rows() as f32
        };
        let before = mean_dist(&mut server);
        let mut opt = Adam::new(0.01);
        train_server(
            &mut server,
            ds.features(),
            &teacher,
            &pseudo,
            &protos,
            0.0, // prototype term only
            1.0,
            20,
            32,
            &mut opt,
            &mut rng,
        );
        let after = mean_dist(&mut server);
        assert!(after < before * 0.7, "{before} → {after}");
    }

    #[test]
    fn empty_subset_is_a_noop() {
        let mut rng = Rng::seed_from_u64(3);
        let mut server = build_mlp(&[4, 8], 3, &mut rng);
        let before = param_vector(&server);
        let mut opt = Adam::new(0.01);
        let stats = train_server(
            &mut server,
            &Tensor::zeros(&[0, 4]),
            &Tensor::zeros(&[0, 3]),
            &[],
            &[None, None, None],
            0.5,
            1.0,
            5,
            8,
            &mut opt,
            &mut rng,
        );
        assert_eq!(param_vector(&server), before);
        assert_eq!(stats, ServerDistillStats::default());
    }

    #[test]
    fn zero_epochs_report_default_stats_not_nan() {
        // Regression: `epochs == 0` used to divide by `batches == 0`,
        // poisoning the stats (and JSONL telemetry) with NaN.
        let mut rng = Rng::seed_from_u64(8);
        let ds = SyntheticConfig::cifar10_like()
            .generate(40, &mut rng)
            .unwrap();
        let mut server = build_mlp(&[32, 16], 10, &mut rng);
        let before = param_vector(&server);
        let mut opt = Adam::new(0.005);
        let pseudo = vec![0usize; ds.len()];
        let stats = train_server(
            &mut server,
            ds.features(),
            &Tensor::full(&[ds.len(), 10], 0.1),
            &pseudo,
            &vec![None; 10],
            0.5,
            1.0,
            0, // no epochs
            32,
            &mut opt,
            &mut rng,
        );
        assert_eq!(stats, ServerDistillStats::default());
        assert!(stats.kd_loss.is_finite() && stats.combined_loss.is_finite());
        assert_eq!(param_vector(&server), before);
    }

    #[test]
    fn partial_prototype_coverage_normalizes_over_covered_rows() {
        // Regression: Eq. 12 used to average the MSE over every batch row,
        // including rows whose pseudo-class has no prototype (they
        // contribute exactly zero), diluting L_p under partial coverage.
        // Adding uncovered rows to the batch must leave L_p unchanged.
        let mut rng = Rng::seed_from_u64(9);
        let ds = SyntheticConfig::cifar10_like()
            .generate(60, &mut rng)
            .unwrap();
        // Only class 0 has a prototype; half the pseudo-labels point at the
        // uncovered class 1.
        let mut protos: Vec<Option<Tensor>> = vec![None; 10];
        protos[0] = Some(Tensor::full(&[16], 0.3));
        let covered: Vec<usize> = (0..ds.len() / 2).collect();
        let run = |rows: &[usize], labels: &[usize]| {
            // Fresh model/rng per run so both start from identical state.
            let mut rng = Rng::seed_from_u64(10);
            let mut server = build_mlp(&[32, 16], 10, &mut rng);
            let mut opt = Adam::new(0.005);
            let x = ds.features().select_rows(rows).unwrap();
            train_server(
                &mut server,
                &x,
                &Tensor::full(&[rows.len(), 10], 0.1),
                labels,
                &protos,
                0.0, // prototype term only
                1.0,
                1,
                ds.len(), // one batch
                &mut opt,
                &mut rng,
            )
        };
        // Covered rows alone (all pseudo-class 0)…
        let alone = run(&covered, &vec![0usize; covered.len()]);
        // …versus the same rows plus as many uncovered (pseudo-class 1)
        // rows in the same batch.
        let all_rows: Vec<usize> = (0..ds.len()).collect();
        let mut mixed_labels = vec![0usize; covered.len()];
        mixed_labels.resize(ds.len(), 1);
        let mixed = run(&all_rows, &mixed_labels);
        assert!(alone.proto_loss > 0.0);
        assert!(
            (alone.proto_loss - mixed.proto_loss).abs() < 1e-6 * alone.proto_loss.max(1.0),
            "uncovered rows must not dilute L_p: {} vs {}",
            alone.proto_loss,
            mixed.proto_loss
        );
    }

    #[test]
    fn stats_expose_eq13_components() {
        let mut rng = Rng::seed_from_u64(6);
        let ds = SyntheticConfig::cifar10_like()
            .generate(120, &mut rng)
            .unwrap();
        let mut server = build_mlp(&[32, 16], 10, &mut rng);
        let logits = eval::logits_on(&mut server, &ds);
        let teacher = softmax(&logits, 1.0);
        let pseudo = teacher.argmax_rows();
        let protos: Vec<Option<Tensor>> = (0..10)
            .map(|c| Some(Tensor::full(&[16], c as f32 * 0.1)))
            .collect();
        let mut opt = Adam::new(0.005);
        let delta = 0.75f32;
        let stats = train_server(
            &mut server,
            ds.features(),
            &teacher,
            &pseudo,
            &protos,
            delta,
            2.0,
            2,
            32,
            &mut opt,
            &mut rng,
        );
        assert_eq!(stats.batches, 8);
        assert!(stats.kd_loss > 0.0 && stats.proto_loss > 0.0);
        let expected = f64::from(delta) * stats.kd_loss + f64::from(1.0 - delta) * stats.proto_loss;
        assert!((stats.combined_loss - expected).abs() < 1e-12);
    }

    #[test]
    fn pure_distillation_reports_zero_proto_loss() {
        let mut rng = Rng::seed_from_u64(7);
        let ds = SyntheticConfig::cifar10_like()
            .generate(64, &mut rng)
            .unwrap();
        let mut server = build_mlp(&[32, 16], 10, &mut rng);
        let logits = eval::logits_on(&mut server, &ds);
        let teacher = softmax(&logits, 1.0);
        let pseudo = teacher.argmax_rows();
        let protos: Vec<Option<Tensor>> = vec![None; 10];
        let mut opt = Adam::new(0.005);
        let stats = train_server(
            &mut server,
            ds.features(),
            &teacher,
            &pseudo,
            &protos,
            1.0,
            1.0,
            1,
            32,
            &mut opt,
            &mut rng,
        );
        assert_eq!(stats.proto_loss, 0.0);
        assert!((stats.combined_loss - stats.kd_loss).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "delta must be in")]
    fn rejects_bad_delta() {
        let mut rng = Rng::seed_from_u64(4);
        let mut server = build_mlp(&[2, 4], 2, &mut rng);
        let mut opt = Adam::new(0.01);
        train_server(
            &mut server,
            &Tensor::zeros(&[1, 2]),
            &Tensor::zeros(&[1, 2]),
            &[0],
            &[None, None],
            1.5,
            1.0,
            1,
            1,
            &mut opt,
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "pseudo-label count")]
    fn rejects_misaligned_labels() {
        let mut rng = Rng::seed_from_u64(5);
        let mut server = build_mlp(&[2, 4], 2, &mut rng);
        let mut opt = Adam::new(0.01);
        train_server(
            &mut server,
            &Tensor::zeros(&[2, 2]),
            &Tensor::zeros(&[2, 2]),
            &[0],
            &[None, None],
            0.5,
            1.0,
            1,
            1,
            &mut opt,
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn rejects_a_zero_batch_size() {
        let mut rng = Rng::seed_from_u64(6);
        let mut server = build_mlp(&[2, 4], 2, &mut rng);
        let mut opt = Adam::new(0.01);
        train_server_with_workers(
            &mut server,
            &Tensor::zeros(&[2, 2]),
            &Tensor::zeros(&[2, 2]),
            &[0, 1],
            &[None, None],
            0.5,
            1.0,
            1,
            0,
            &mut opt,
            &mut rng,
            2,
            None::<fn()>,
        );
    }
}
