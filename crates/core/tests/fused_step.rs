//! The fused training step against the trio it replaces.
//!
//! `ClassifierModel::backward_step` (and the hook-level form the FedProx
//! loop uses) must leave a model, its gradients, its optimizer and the
//! returned input gradient bit for bit where `backward_dual` →
//! [`add_proximal_term`] on every parameter → `Optimizer::step` →
//! `zero_grad` leaves them —
//! on every model family, under Adam, with and without the
//! prototype feature gradient, across consecutive steps (so optimizer state
//! carried between steps is covered) including a 4-row tail batch.
//!
//! The same goes for *where and when* the step's second half runs:
//! `backward_step_on` a [`StepWorker`] (the update, and the gradient
//! products the layers offer unapplied, on another thread), with the next
//! `forward_train_on` taking each layer's parameters back as it reaches
//! it, against the inline `backward_step`; a worker nobody serves yet
//! against the inline step; `train_server_with_workers` at budget 1
//! (inline) against budgets 2 and 8 (worker), and with a job beside it that
//! finishes before the distillation, after it, or panics, at budgets 2 and
//! 3 against budget 1. Every test that runs a step worker
//! has `worker` in its name: `scripts/check.sh` re-runs those on one core.
//!
//! A fused step hands every `Linear`'s `dW` and `db` from thread scratch
//! to the optimizer, so after one, inline or on a worker, no `Linear`
//! weight or bias holds an allocated gradient; the trio comparison reads
//! such a gradient as the zeros it stands for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use fedpkd_core::fedpkd::distill::{train_server_with_workers, ServerDistillStats};
use fedpkd_core::train::add_proximal_term;
use fedpkd_rng::Rng;
use fedpkd_tensor::models::{ClassifierModel, DepthTier, ModelSpec};
use fedpkd_tensor::nn::{Layer, Param, ParamHook, PendingGrads};
use fedpkd_tensor::optim::{step_and_zero, Adam, Optimizer};
use fedpkd_tensor::serialize::{param_vector, state_vector};
use fedpkd_tensor::step_worker::StepWorker;
use fedpkd_tensor::Tensor;
use proptest::prelude::*;

/// Rows per step: two full batches and a tail.
const BATCHES: [usize; 3] = [32, 32, 4];

/// Every model family: a plain MLP, the four residual tiers, a conv net.
fn all_specs() -> Vec<ModelSpec> {
    let res_mlp = |tier| ModelSpec::ResMlp {
        input_dim: 12,
        num_classes: 5,
        tier,
    };
    vec![
        ModelSpec::Mlp {
            dims: vec![12, 20, 16],
            num_classes: 5,
        },
        res_mlp(DepthTier::T11),
        res_mlp(DepthTier::T20),
        res_mlp(DepthTier::T29),
        res_mlp(DepthTier::T56),
        ModelSpec::ConvNet {
            in_channels: 2,
            image_size: 6,
            num_classes: 4,
            tier: DepthTier::T11,
        },
    ]
}

fn model_spec() -> impl Strategy<Value = ModelSpec> {
    let specs = all_specs();
    (0..specs.len()).prop_map(move |i| specs[i].clone())
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Every parameter's gradient bits, an unallocated gradient read as the
/// zeros it stands for (the fused step never allocates a `Linear`'s).
fn grad_bits(model: &ClassifierModel) -> Vec<u32> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| match p.grad() {
        Some(grad) => out.extend(bits(grad.as_slice())),
        None => out.extend(std::iter::repeat_n(0, p.value.len())),
    });
    out
}

/// The slots of every `Linear` weight and bias in `spec`'s models: the
/// ones a backward pass offers through [`ParamHook::linear`].
fn linear_slots(spec: &ModelSpec) -> Vec<usize> {
    struct Linears(Vec<usize>);
    impl ParamHook for Linears {
        fn param(&mut self, _: usize, _: &mut Param) {}

        fn linear(&mut self, slot: usize, _: &mut Param, _: &mut Param, _: PendingGrads<'_>) {
            self.0.extend([slot, slot + 1]);
        }
    }
    let mut model = spec.build(&mut Rng::seed_from_u64(0));
    let x = input_batch(spec, 2, &mut Rng::seed_from_u64(1));
    let logits = model.forward_logits(&x, true);
    let mut linears = Linears(Vec::new());
    model.backward_dual_with(&Tensor::zeros(logits.shape()), None, &mut linears);
    assert!(!linears.0.is_empty(), "{} has a Linear", spec.describe());
    linears.0
}

/// The `Linear` slots (of `linear`) whose parameter holds an allocated
/// gradient.
fn allocated_linear_grads(model: &ClassifierModel, linear: &[usize]) -> Vec<usize> {
    let (mut slot, mut allocated) = (0, Vec::new());
    model.visit_params(&mut |p| {
        if linear.contains(&slot) && p.grad().is_some() {
            allocated.push(slot);
        }
        slot += 1;
    });
    allocated
}

/// Where each parameter (by slot) starts in the flat parameter vector.
fn param_offsets(model: &ClassifierModel) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut next = 0;
    model.visit_params(&mut |p| {
        offsets.push(next);
        next += p.value.len();
    });
    offsets
}

fn input_batch(spec: &ModelSpec, rows: usize, rng: &mut Rng) -> Tensor {
    match spec {
        ModelSpec::ConvNet {
            in_channels,
            image_size,
            ..
        } => Tensor::randn(&[rows, *in_channels, *image_size, *image_size], 1.0, rng),
        _ => Tensor::randn(&[rows, 12], 1.0, rng),
    }
}

/// Runs the three steps both ways from one seed and holds every piece of
/// state equal after each.
fn check(
    spec: &ModelSpec,
    with_feature_grad: bool,
    mu: Option<f32>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut trio_model = spec.build(&mut Rng::seed_from_u64(seed));
    let mut fused_model = spec.build(&mut Rng::seed_from_u64(seed));
    let (mut trio_opt, mut fused_opt) = (Adam::new(0.01), Adam::new(0.01));
    let reference = param_vector(&trio_model);
    let offsets = param_offsets(&fused_model);
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);

    for rows in BATCHES {
        let x = input_batch(spec, rows, &mut rng);
        let (features, logits) = trio_model.forward_full(&x, true);
        fused_model.forward_full(&x, true);
        let logit_grad = Tensor::randn(logits.shape(), 0.5, &mut rng);
        let feature_grad =
            with_feature_grad.then(|| Tensor::randn(features.shape(), 0.5, &mut rng));

        let trio_dx = trio_model.backward_dual(&logit_grad, feature_grad.as_ref());
        if let Some(mu) = mu {
            let mut offset = 0;
            trio_model.visit_params_mut(&mut |p| {
                let len = p.value.len();
                add_proximal_term(p, &reference[offset..offset + len], mu);
                offset += len;
            });
        }
        trio_opt.step(&mut trio_model);
        trio_model.zero_grad();

        let fused_dx = match mu {
            None => fused_model.backward_step(&logit_grad, feature_grad.as_ref(), &mut fused_opt),
            Some(mu) => {
                let optimizer: &mut dyn Optimizer = &mut fused_opt;
                optimizer.begin_step(&fused_model);
                fused_model.backward_dual_with(
                    &logit_grad,
                    feature_grad.as_ref(),
                    &mut |slot: usize, param: &mut Param| {
                        let start = offsets[slot];
                        add_proximal_term(param, &reference[start..start + param.value.len()], mu);
                        step_and_zero(optimizer, slot, param);
                    },
                )
            }
        };

        prop_assert_eq!(bits(fused_dx.as_slice()), bits(trio_dx.as_slice()));
        // Parameters and batch-norm buffers.
        prop_assert_eq!(
            bits(&state_vector(&fused_model)),
            bits(&state_vector(&trio_model))
        );
        let grads = grad_bits(&fused_model);
        prop_assert!(grads.iter().all(|&g| g == 0), "fused step left a gradient");
        prop_assert_eq!(grads, grad_bits(&trio_model));
        prop_assert_eq!(adam_bits(&fused_opt), adam_bits(&trio_opt));
    }
    Ok(())
}

/// Runs the three steps inline and on a step worker — one worker for all
/// three, as a training call has — and holds the returned input gradient,
/// the model (every parameter back in place after `finish_step`, none left
/// a placeholder) and its gradients equal after each, and the optimizers
/// equal at the end.
fn check_worker(spec: &ModelSpec, with_feature_grad: bool, seed: u64) -> Result<(), TestCaseError> {
    let mut inline_model = spec.build(&mut Rng::seed_from_u64(seed));
    let mut worker_model = spec.build(&mut Rng::seed_from_u64(seed));
    let (mut inline_opt, mut worker_opt) = (Adam::new(0.01), Adam::new(0.01));
    let param_count = inline_model.param_count();
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);

    let worker = StepWorker::new(&mut worker_opt);
    std::thread::scope(|scope| {
        scope.spawn(|| worker.serve());
        let _close = worker.close_on_drop();
        for rows in BATCHES {
            let x = input_batch(spec, rows, &mut rng);
            let (features, logits) = inline_model.forward_full(&x, true);
            worker_model.forward_train_on(&x, &worker);
            let logit_grad = Tensor::randn(logits.shape(), 0.5, &mut rng);
            let feature_grad =
                with_feature_grad.then(|| Tensor::randn(features.shape(), 0.5, &mut rng));

            let inline_dx =
                inline_model.backward_step(&logit_grad, feature_grad.as_ref(), &mut inline_opt);
            let worker_dx =
                worker_model.backward_step_on(&logit_grad, feature_grad.as_ref(), &worker);
            worker.finish_step(&mut worker_model);

            prop_assert_eq!(bits(worker_dx.as_slice()), bits(inline_dx.as_slice()));
            prop_assert_eq!(param_vector(&worker_model).len(), param_count);
            prop_assert_eq!(
                bits(&state_vector(&worker_model)),
                bits(&state_vector(&inline_model))
            );
            let grads = grad_bits(&worker_model);
            prop_assert_eq!(grads.len(), param_count);
            prop_assert!(grads.iter().all(|&g| g == 0), "worker step left a gradient");
        }
        Ok(())
    })?;
    prop_assert_eq!(adam_bits(&worker_opt), adam_bits(&inline_opt));
    Ok(())
}

/// Six steps inline and on a step worker, each worker step opened by the
/// gated forward straight after the last backward, so parameters come back
/// layer by layer and `finish_step` runs once, at the end. A thread serves
/// from step `served_from` on (past the last step: never); a `deferred`
/// worker updates inline until then, as one on a data-free round's refine
/// thread does, where the interleaving of the first served step is left to
/// the scheduler: any mix must give the same bits. Holds the forward
/// outputs and input gradients equal at every step, and parameters, zeroed
/// gradients and Adam's `t`, `m` and `v` at the end.
fn check_gated(spec: &ModelSpec, with_feature_grad: bool, deferred: bool, served_from: usize) {
    let seed = 21;
    let mut inline_model = spec.build(&mut Rng::seed_from_u64(seed));
    let mut worker_model = spec.build(&mut Rng::seed_from_u64(seed));
    let (mut inline_opt, mut worker_opt) = (Adam::new(0.01), Adam::new(0.01));
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
    let label = format!(
        "{}, feature grad {with_feature_grad}, served from step {served_from}",
        spec.describe()
    );

    let worker = if deferred {
        StepWorker::inline_until_served(&mut worker_opt)
    } else {
        StepWorker::new(&mut worker_opt)
    };
    std::thread::scope(|scope| {
        let _close = worker.close_on_drop();
        for (step, &rows) in BATCHES.iter().chain(&BATCHES).enumerate() {
            if step == served_from {
                scope.spawn(|| worker.serve());
            }
            let x = input_batch(spec, rows, &mut rng);
            let (features, logits) = inline_model.forward_full(&x, true);
            let (worker_features, worker_logits) = worker_model.forward_train_on(&x, &worker);
            assert_eq!(
                bits(worker_features.as_slice()),
                bits(features.as_slice()),
                "{label}"
            );
            assert_eq!(
                bits(worker_logits.as_slice()),
                bits(logits.as_slice()),
                "{label}"
            );
            let logit_grad = Tensor::randn(logits.shape(), 0.5, &mut rng);
            let feature_grad =
                with_feature_grad.then(|| Tensor::randn(features.shape(), 0.5, &mut rng));

            let inline_dx =
                inline_model.backward_step(&logit_grad, feature_grad.as_ref(), &mut inline_opt);
            let worker_dx =
                worker_model.backward_step_on(&logit_grad, feature_grad.as_ref(), &worker);
            assert_eq!(
                bits(worker_dx.as_slice()),
                bits(inline_dx.as_slice()),
                "{label}"
            );
        }
        worker.finish_step(&mut worker_model);
    });
    assert_eq!(
        bits(&state_vector(&worker_model)),
        bits(&state_vector(&inline_model)),
        "{label}"
    );
    let grads = grad_bits(&worker_model);
    assert_eq!(grads.len(), inline_model.param_count(), "{label}");
    assert!(
        grads.iter().all(|&g| g == 0),
        "{label}: a gradient left over"
    );
    assert_eq!(adam_bits(&worker_opt), adam_bits(&inline_opt), "{label}");
    assert_eq!(inline_opt.step_count(), 2 * BATCHES.len() as u64);
}

#[test]
fn gated_forward_on_a_worker_equals_the_inline_fused_step_after_k_steps() {
    for spec in all_specs() {
        for with_feature_grad in [false, true] {
            check_gated(&spec, with_feature_grad, false, 0);
        }
    }
}

#[test]
fn a_worker_nobody_serves_for_the_first_j_steps_equals_the_inline_step() {
    let steps = 2 * BATCHES.len();
    for spec in all_specs() {
        for served_from in [0, steps / 2, steps] {
            check_gated(&spec, true, true, served_from);
        }
    }
}

/// Three fused steps, with and without the feature gradient, on every
/// model family: each `Linear`'s products went from scratch into Adam, so
/// no `Linear` weight or bias has a gradient allocated afterwards.
#[test]
fn a_fused_step_allocates_no_linear_gradient() {
    for spec in all_specs() {
        let linear = linear_slots(&spec);
        let mut model = spec.build(&mut Rng::seed_from_u64(31));
        let mut optimizer = Adam::new(0.01);
        let mut rng = Rng::seed_from_u64(32);
        for rows in BATCHES {
            let x = input_batch(&spec, rows, &mut rng);
            let (features, logits) = model.forward_full(&x, true);
            let feature_grad = (rows != 4).then(|| Tensor::randn(features.shape(), 0.5, &mut rng));
            let logit_grad = Tensor::randn(logits.shape(), 0.5, &mut rng);
            model.backward_step(&logit_grad, feature_grad.as_ref(), &mut optimizer);
            assert_eq!(
                allocated_linear_grads(&model, &linear),
                Vec::<usize>::new(),
                "{}",
                spec.describe()
            );
        }
    }
}

/// The same after `backward_step_on` and `finish_step`, on a served worker
/// and on one nobody serves (every update inline through it).
#[test]
fn a_worker_step_allocates_no_linear_gradient() {
    for spec in all_specs() {
        let linear = linear_slots(&spec);
        for served in [true, false] {
            let mut model = spec.build(&mut Rng::seed_from_u64(33));
            let mut optimizer = Adam::new(0.01);
            let mut rng = Rng::seed_from_u64(34);
            let worker = if served {
                StepWorker::new(&mut optimizer)
            } else {
                StepWorker::inline_until_served(&mut optimizer)
            };
            std::thread::scope(|scope| {
                if served {
                    scope.spawn(|| worker.serve());
                }
                let _close = worker.close_on_drop();
                for rows in BATCHES {
                    let x = input_batch(&spec, rows, &mut rng);
                    let (features, logits) = model.forward_train_on(&x, &worker);
                    let feature_grad = Tensor::randn(features.shape(), 0.5, &mut rng);
                    let logit_grad = Tensor::randn(logits.shape(), 0.5, &mut rng);
                    model.backward_step_on(&logit_grad, Some(&feature_grad), &worker);
                    worker.finish_step(&mut model);
                    assert_eq!(
                        allocated_linear_grads(&model, &linear),
                        Vec::<usize>::new(),
                        "{}, served {served}",
                        spec.describe()
                    );
                }
            });
        }
    }
}

/// An optimizer state sized for another model makes the worker's first
/// update panic. The backward pass that handed the job over still returns;
/// the next forward must resume the panic at the first layer it waits for,
/// not leave it for `finish_step`.
#[test]
fn a_worker_panic_resurfaces_at_the_next_forward_reclaim() {
    let spec = all_specs().remove(1);
    let mut model = spec.build(&mut Rng::seed_from_u64(11));
    let wrong = || vec![Tensor::zeros(&[1]); model.slot_count()];
    let mut optimizer = Adam::new(0.01);
    optimizer.restore_state(3, wrong(), wrong());
    let mut rng = Rng::seed_from_u64(12);
    let x = input_batch(&spec, 8, &mut rng);

    let worker = StepWorker::new(&mut optimizer);
    let panic = std::thread::scope(|scope| {
        scope.spawn(|| worker.serve());
        let _close = worker.close_on_drop();
        let (_, logits) = model.forward_train_on(&x, &worker);
        model.backward_step_on(&Tensor::full(logits.shape(), 0.1), None, &worker);
        catch_unwind(AssertUnwindSafe(|| model.forward_train_on(&x, &worker)))
            .expect_err("the worker's panic must resurface in the forward")
    });
    let message = panic.downcast_ref::<String>().expect("an assert message");
    assert!(message.contains("optimizer/model mismatch"), "{message}");
}

/// What `train_server_with_workers` returned, or the panic it raised.
type BesideOutcome<T> = std::thread::Result<(ServerDistillStats, Option<T>)>;

/// A server-distillation problem over `spec`'s input shape: 40 rows (so
/// batches of 16, 16 and 8), a soft teacher, and prototypes for every class
/// but the last.
struct DistillCase {
    features: Tensor,
    teacher: Tensor,
    pseudo: Vec<usize>,
    prototypes: Vec<Option<Tensor>>,
}

impl DistillCase {
    fn new(spec: &ModelSpec, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let classes = spec.num_classes();
        let features = input_batch(spec, 40, &mut rng);
        let teacher =
            fedpkd_tensor::ops::softmax(&Tensor::randn(&[40, classes], 1.0, &mut rng), 1.0);
        let pseudo = teacher.argmax_rows();
        let feature_dim = spec.build(&mut rng).feature_dim();
        let prototypes = (0..classes)
            .map(|c| (c + 1 < classes).then(|| Tensor::randn(&[feature_dim], 1.0, &mut rng)))
            .collect();
        Self {
            features,
            teacher,
            pseudo,
            prototypes,
        }
    }

    /// `train_server_with_workers` from a fixed start: everything the call
    /// leaves behind.
    fn run(
        &self,
        spec: &ModelSpec,
        optimizer: &mut Adam,
        epochs: usize,
        workers: usize,
    ) -> (ServerDistillStats, Vec<u32>, u64) {
        let mut model = spec.build(&mut Rng::seed_from_u64(11));
        let mut rng = Rng::seed_from_u64(12);
        let (stats, _) = train_server_with_workers(
            &mut model,
            &self.features,
            &self.teacher,
            &self.pseudo,
            &self.prototypes,
            0.6,
            2.0,
            epochs,
            16,
            optimizer,
            &mut rng,
            workers,
            None::<fn()>,
        );
        (stats, bits(&state_vector(&model)), rng.next_u64())
    }

    /// [`run`](Self::run) with `job` beside the distillation: the call's
    /// outcome (its panic caught), then the model and the stream as the
    /// call left them.
    fn run_beside<T: Send>(
        &self,
        spec: &ModelSpec,
        optimizer: &mut dyn Optimizer,
        epochs: usize,
        workers: usize,
        job: impl FnOnce() -> T + Send,
    ) -> (BesideOutcome<T>, Vec<u32>, u64) {
        let mut model = spec.build(&mut Rng::seed_from_u64(11));
        let mut rng = Rng::seed_from_u64(12);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            train_server_with_workers(
                &mut model,
                &self.features,
                &self.teacher,
                &self.pseudo,
                &self.prototypes,
                0.6,
                2.0,
                epochs,
                16,
                optimizer,
                &mut rng,
                workers,
                Some(job),
            )
        }));
        (outcome, bits(&state_vector(&model)), rng.next_u64())
    }
}

/// Where the distillation has got to, for a job beside it to wait on.
#[derive(Default)]
struct Progress {
    updates: AtomicUsize,
    job_done: AtomicBool,
}

fn wait_for(ready: impl Fn() -> bool) {
    while !ready() {
        std::thread::yield_now();
    }
}

/// Adam, reporting each update to `progress`; when `after_job`, the first
/// step does not open until the job beside the distillation is done.
struct Watched<'p> {
    adam: Adam,
    progress: &'p Progress,
    after_job: bool,
}

impl Optimizer for Watched<'_> {
    fn begin_step(&mut self, model: &dyn Layer) {
        if self.after_job {
            wait_for(|| self.progress.job_done.load(Ordering::SeqCst));
        }
        self.adam.begin_step(model);
    }

    fn update(&mut self, slot: usize, value: &mut [f32], grad: &mut [f32]) {
        self.adam.update(slot, value, grad);
        self.progress.updates.fetch_add(1, Ordering::SeqCst);
    }

    fn learning_rate(&self) -> f32 {
        self.adam.learning_rate()
    }
}

/// A job beside the distillation that finishes before its first step, or
/// only once every update is done, leaves the same bits at budgets 2 (its
/// thread then serves as the step worker, or never does) and 3 (a step
/// worker of its own) as at budget 1 (the job after the distillation).
fn check_job_beside_the_worker(job_first: bool) {
    for spec in all_specs() {
        let case = DistillCase::new(&spec, 13);
        let updates = 6 * spec.build(&mut Rng::seed_from_u64(0)).slot_count();
        let mut reference_opt = Adam::new(0.01);
        let (outcome, state, next) = case.run_beside(&spec, &mut reference_opt, 2, 1, || 7);
        let reference = (outcome.expect("no panic"), state, next);
        assert_eq!(reference.0 .1, Some(7));
        for workers in [2, 3] {
            let progress = Progress::default();
            let mut optimizer = Watched {
                adam: Adam::new(0.01),
                progress: &progress,
                after_job: job_first,
            };
            let job = || {
                if !job_first {
                    wait_for(|| progress.updates.load(Ordering::SeqCst) >= updates);
                }
                progress.job_done.store(true, Ordering::SeqCst);
                7
            };
            let (outcome, state, next) = case.run_beside(&spec, &mut optimizer, 2, workers, job);
            let label = format!("{} at budget {workers}", spec.describe());
            assert_eq!(outcome.expect("no panic"), reference.0, "{label}");
            assert_eq!((state, next), (reference.1.clone(), reference.2), "{label}");
            assert_eq!(
                adam_bits(&optimizer.adam),
                adam_bits(&reference_opt),
                "{label}"
            );
        }
    }
}

#[test]
fn a_job_finishing_first_hands_its_thread_to_the_step_worker_bit_identically() {
    check_job_beside_the_worker(true);
}

#[test]
fn a_job_finishing_last_leaves_the_step_worker_unserved_bit_identically() {
    check_job_beside_the_worker(false);
}

/// A job that panics beside the distillation: at every budget the
/// distillation completes, the same bits result, and the job's own panic
/// reaches the caller.
#[test]
fn a_job_panicking_beside_the_step_worker_resumes_on_the_caller() {
    let spec = all_specs().remove(1);
    let case = DistillCase::new(&spec, 14);
    let run = |workers: usize| {
        let mut optimizer = Adam::new(0.01);
        let (outcome, state, next) =
            case.run_beside(&spec, &mut optimizer, 2, workers, || -> u32 {
                panic!("the refine failed")
            });
        let panic = outcome.expect_err("the job's panic must reach the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"the refine failed"));
        (state, next, adam_bits(&optimizer))
    };
    let reference = run(1);
    assert_eq!(reference.2 .0, 6, "the distillation completed");
    for workers in [2, 3] {
        assert_eq!(run(workers), reference, "budget {workers} vs budget 1");
    }
}

/// An empty filtered subset, or no epochs: nothing trains and no worker
/// starts, but the job — a data-free round's refine — still runs.
#[test]
fn a_job_beside_nothing_to_train_runs_at_every_worker_budget() {
    let spec = all_specs().remove(0);
    let case = DistillCase::new(&spec, 15);
    let untouched = bits(&state_vector(&spec.build(&mut Rng::seed_from_u64(11))));
    let empty = DistillCase {
        features: case.features.select_rows(&[]).unwrap(),
        teacher: case.teacher.select_rows(&[]).unwrap(),
        pseudo: Vec::new(),
        prototypes: case.prototypes.clone(),
    };
    for workers in [1, 2, 3] {
        for (case, epochs) in [(&case, 0), (&empty, 3)] {
            let mut optimizer = Adam::new(0.01);
            let (outcome, state, _) = case.run_beside(&spec, &mut optimizer, epochs, workers, || 7);
            assert_eq!(
                outcome.expect("no panic"),
                (ServerDistillStats::default(), Some(7))
            );
            assert_eq!(state, untouched);
            assert_eq!(optimizer.step_count(), 0);
        }
    }
}

fn adam_bits(adam: &Adam) -> (u64, Vec<u32>) {
    let (m, v) = adam.moments();
    let moments = m.iter().chain(v).flat_map(|t| bits(t.as_slice())).collect();
    (adam.step_count(), moments)
}

#[test]
fn train_server_budget_1_inline_equals_budgets_2_and_8_on_a_worker() {
    for spec in all_specs() {
        let case = DistillCase::new(&spec, 7);
        let mut inline_opt = Adam::new(0.01);
        let inline = case.run(&spec, &mut inline_opt, 2, 1);
        assert_eq!(inline.0.batches, 6);
        for workers in [2, 8] {
            let mut worker_opt = Adam::new(0.01);
            let on_worker = case.run(&spec, &mut worker_opt, 2, workers);
            assert_eq!(on_worker, inline, "{} at budget {workers}", spec.describe());
            assert_eq!(adam_bits(&worker_opt), adam_bits(&inline_opt));
        }
    }
}

#[test]
fn train_server_with_nothing_to_train_is_a_noop_at_any_budget() {
    let spec = all_specs().remove(0);
    let case = DistillCase::new(&spec, 8);
    let untouched = bits(&state_vector(&spec.build(&mut Rng::seed_from_u64(11))));
    let empty = DistillCase {
        features: case.features.select_rows(&[]).unwrap(),
        teacher: case.teacher.select_rows(&[]).unwrap(),
        pseudo: Vec::new(),
        prototypes: case.prototypes.clone(),
    };
    for workers in [1, 2, 8] {
        for (case, epochs) in [(&case, 0), (&empty, 3)] {
            let mut optimizer = Adam::new(0.01);
            let (stats, state, _) = case.run(&spec, &mut optimizer, epochs, workers);
            assert_eq!(stats, ServerDistillStats::default());
            assert_eq!(state, untouched);
            assert_eq!(optimizer.step_count(), 0);
        }
    }
}

/// An optimizer state sized for another model trips the update's
/// `optimizer/model mismatch` assert — on the worker's thread at budget 2.
/// The training thread must get that panic, not wait for ever.
#[test]
#[should_panic(expected = "optimizer/model mismatch")]
fn a_panic_on_the_step_worker_resurfaces_on_the_training_thread() {
    let spec = all_specs().remove(0);
    let case = DistillCase::new(&spec, 9);
    let slots = spec.build(&mut Rng::seed_from_u64(11)).slot_count();
    let wrong = || vec![Tensor::zeros(&[1]); slots];
    let mut optimizer = Adam::new(0.01);
    optimizer.restore_state(3, wrong(), wrong());
    case.run(&spec, &mut optimizer, 1, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fused_step_equals_backward_step_zero_grad(
        spec in model_spec(),
        with_feature_grad in any::<bool>(),
        mu in prop_oneof![Just(None), Just(Some(0.1f32))],
        seed in any::<u64>(),
    ) {
        check(&spec, with_feature_grad, mu, seed)?;
    }

    #[test]
    fn step_on_a_worker_equals_the_inline_fused_step(
        spec in model_spec(),
        with_feature_grad in any::<bool>(),
        seed in any::<u64>(),
    ) {
        check_worker(&spec, with_feature_grad, seed)?;
    }
}
