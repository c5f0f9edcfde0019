//! Every trainer and evaluator against a committed fingerprint.
//!
//! Each case runs one entry point on a tiny fixed problem and folds
//! everything the call leaves behind into one FNV-1a64 value: the model's
//! `state_vector` bits (parameters and BatchNorm buffers), Adam's step
//! count and both moment buffers, the caller's RNG words and the returned
//! stats' `f64` bits. The literal is the value the code produced when the
//! case was written; a change that moves any bit of any trainer — its batch
//! order, its gather, its loss terms, its fused step — fails here, whatever
//! else still agrees with itself.
//!
//! The server step is pinned to one literal at budgets 1, 2 (with and
//! without a job beside it) and 3: where the step's second half runs must
//! not show. `scripts/check.sh` re-runs this file on one core, where budgets
//! 2 and 3 must still reproduce it.
//!
//! The data-free refine is pinned the same way, with a residual critic so
//! the input gradient runs through BatchNorm's backward.

use fedpkd_core::eval;
use fedpkd_core::fedpkd::distill::{train_server_with_workers, ServerDistillStats};
use fedpkd_core::fedpkd::generator::{refine, Generator};
use fedpkd_core::train::{
    train_distill, train_supervised, train_supervised_with_prototypes, TrainStats,
};
use fedpkd_data::Dataset;
use fedpkd_netsim::Fnv1a;
use fedpkd_rng::Rng;
use fedpkd_tensor::models::{ClassifierModel, DepthTier, ModelSpec};
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::optim::Adam;
use fedpkd_tensor::serialize::state_vector;
use fedpkd_tensor::Tensor;

const INPUT: usize = 12;
const CLASSES: usize = 5;
/// Rows of every training case: four full batches of 16 and a tail of 6.
const ROWS: usize = 70;
const BATCH: usize = 16;
const EPOCHS: usize = 2;

/// A residual MLP, so BatchNorm running statistics are part of the state.
fn model() -> ClassifierModel {
    ModelSpec::ResMlp {
        input_dim: INPUT,
        num_classes: CLASSES,
        tier: DepthTier::T11,
    }
    .build(&mut Rng::seed_from_u64(11))
}

fn dataset(rows: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let features = Tensor::randn(&[rows, INPUT], 1.0, &mut rng);
    let labels = (0..rows).map(|_| rng.range_usize(0, CLASSES)).collect();
    Dataset::new(features, labels, CLASSES).unwrap()
}

/// A soft teacher over `rows` rows.
fn teacher(rows: usize) -> Tensor {
    let mut rng = Rng::seed_from_u64(21);
    softmax(&Tensor::randn(&[rows, CLASSES], 1.5, &mut rng), 1.0)
}

/// Global prototypes for every class but the last two.
fn partial_prototypes(feature_dim: usize) -> Vec<Option<Tensor>> {
    let mut rng = Rng::seed_from_u64(31);
    (0..CLASSES)
        .map(|c| (c + 2 < CLASSES).then(|| Tensor::randn(&[feature_dim], 1.0, &mut rng)))
        .collect()
}

fn fold_f32(hash: &mut Fnv1a, values: &[f32]) {
    for v in values {
        hash.update(&v.to_bits().to_le_bytes());
    }
}

/// Everything a training call leaves behind, as one value.
fn fingerprint(model: &ClassifierModel, adam: &Adam, rng: &Rng, stats: &[f64]) -> u64 {
    let mut hash = Fnv1a::new();
    fold_f32(&mut hash, &state_vector(model));
    hash.update(&adam.step_count().to_le_bytes());
    let (m, v) = adam.moments();
    for moment in m.iter().chain(v) {
        fold_f32(&mut hash, moment.as_slice());
    }
    for word in rng.state() {
        hash.update(&word.to_le_bytes());
    }
    for s in stats {
        hash.update(&s.to_bits().to_le_bytes());
    }
    hash.finish()
}

fn train_stats(stats: TrainStats) -> [f64; 2] {
    [stats.batches as f64, stats.mean_loss]
}

#[test]
fn train_supervised_is_pinned() {
    let (mut model, mut adam, mut rng) = (model(), Adam::new(0.01), Rng::seed_from_u64(12));
    let data = dataset(ROWS, 1);
    let stats = train_supervised(&mut model, &data, EPOCHS, BATCH, &mut adam, &mut rng);
    assert_eq!(stats.batches, 10);
    assert_eq!(
        fingerprint(&model, &adam, &rng, &train_stats(stats)),
        0x679f_a30b_b218_d0f0
    );
}

#[test]
fn train_supervised_with_partial_prototypes_is_pinned() {
    let (mut model, mut adam, mut rng) = (model(), Adam::new(0.01), Rng::seed_from_u64(12));
    let data = dataset(ROWS, 2);
    let prototypes = partial_prototypes(model.feature_dim());
    let stats = train_supervised_with_prototypes(
        &mut model,
        &data,
        &prototypes,
        0.3,
        EPOCHS,
        BATCH,
        &mut adam,
        &mut rng,
    );
    assert_eq!(
        fingerprint(&model, &adam, &rng, &train_stats(stats)),
        0xbea2_2c39_0d22_d763
    );
}

#[test]
fn train_distill_is_pinned() {
    let (mut model, mut adam, mut rng) = (model(), Adam::new(0.01), Rng::seed_from_u64(12));
    let data = dataset(ROWS, 3);
    let stats = train_distill(
        &mut model,
        data.features(),
        &teacher(ROWS),
        0.4,
        2.0,
        EPOCHS,
        BATCH,
        &mut adam,
        &mut rng,
    );
    assert_eq!(
        fingerprint(&model, &adam, &rng, &train_stats(stats)),
        0xfd29_69f9_b6b4_853b
    );
}

/// The server step at `workers`, with a job beside it when `beside`.
fn server_fingerprint(workers: usize, beside: bool) -> u64 {
    let (mut model, mut adam, mut rng) = (model(), Adam::new(0.01), Rng::seed_from_u64(12));
    let data = dataset(ROWS, 4);
    let teacher = teacher(ROWS);
    let pseudo = teacher.argmax_rows();
    let prototypes = partial_prototypes(model.feature_dim());
    let (stats, job): (ServerDistillStats, _) = train_server_with_workers(
        &mut model,
        data.features(),
        &teacher,
        &pseudo,
        &prototypes,
        0.6,
        2.0,
        EPOCHS,
        BATCH,
        &mut adam,
        &mut rng,
        workers,
        beside.then_some(|| 7),
    );
    assert_eq!(job, beside.then_some(7));
    assert_eq!(stats.batches, 10);
    let stats = [
        stats.kd_loss,
        stats.proto_loss,
        stats.combined_loss,
        stats.batches as f64,
    ];
    fingerprint(&model, &adam, &rng, &stats)
}

#[test]
fn train_server_with_a_step_worker_is_pinned_at_every_budget() {
    for (workers, beside) in [(1, false), (2, false), (2, true), (3, false)] {
        assert_eq!(
            server_fingerprint(workers, beside),
            0x21d2_c09a_83b9_de43,
            "budget {workers}, job beside: {beside}"
        );
    }
}

#[test]
fn evaluation_over_several_windows_is_pinned() {
    // More rows than one evaluation window holds, so the walk crosses a
    // window boundary and ends on a short tail.
    let data = dataset(2100, 5);
    let mut model = model();
    let mut hash = Fnv1a::new();
    hash.update(&eval::accuracy(&mut model, &data).to_bits().to_le_bytes());
    let logits = eval::logits_on(&mut model, &data);
    assert_eq!(logits.shape(), &[2100, CLASSES]);
    fold_f32(&mut hash, logits.as_slice());
    let features = eval::features_on(&mut model, &data);
    assert_eq!(features.shape(), &[2100, model.feature_dim()]);
    fold_f32(&mut hash, features.as_slice());
    assert_eq!(hash.finish(), 0xbe6d_4226_94ee_bdd5);
}

#[test]
fn generator_refine_is_pinned() {
    let (mut critic, mut adam, mut rng) = (model(), Adam::new(0.01), Rng::seed_from_u64(12));
    let mut generator = Generator::new(4, CLASSES, INPUT, &mut rng);
    let (latents, labels) = generator.draw_batch(ROWS, &mut rng);
    let prototypes = partial_prototypes(critic.feature_dim());
    // Input-space class means for every class but the first.
    let moments: Vec<Option<Tensor>> = (0..CLASSES)
        .map(|c| (c > 0).then(|| Tensor::randn(&[INPUT], 1.0, &mut rng)))
        .collect();
    let stats = refine(
        &mut generator,
        &mut adam,
        &mut critic,
        &latents,
        &labels,
        Some(&teacher(ROWS)),
        &prototypes,
        &moments,
        2.0,
        3,
    );
    let stats = [
        stats.ensemble_loss,
        stats.ce_loss,
        stats.proto_loss,
        stats.moment_loss,
    ];
    let mut hash = Fnv1a::new();
    hash.update(&fingerprint(&critic, &adam, &rng, &stats).to_le_bytes());
    fold_f32(
        &mut hash,
        generator.synthesize(&latents, &labels).as_slice(),
    );
    assert_eq!(hash.finish(), 0xe1a1_0b03_dfa7_2226);
}
