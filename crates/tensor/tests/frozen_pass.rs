//! A frozen forward (`Pass::Frozen`) is a training forward whose backward
//! takes only the input gradient: the output and `dx` of `Pass::Train`, bit
//! for bit, with batch-norm running statistics left where they were and no
//! input kept for a `Linear`'s weight gradient.

use fedpkd_rng::Rng;
use fedpkd_tensor::models::{DepthTier, ModelSpec};
use fedpkd_tensor::nn::{BatchNorm1d, Layer, Linear, Param, ParamHook, Pass, PendingGrads};
use fedpkd_tensor::Tensor;

const ROWS: usize = 24;

/// Drops every `Linear`'s products and zeroes every other gradient, as a
/// critic that wants only `dx` does.
struct InputGradOnly;

impl ParamHook for InputGradOnly {
    fn param(&mut self, _: usize, param: &mut Param) {
        param.zero_grad();
    }

    fn linear(&mut self, _: usize, _: &mut Param, _: &mut Param, _: PendingGrads<'_>) {}
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn buffers(layer: &dyn Layer) -> Vec<u32> {
    let mut all = Vec::new();
    layer.visit_buffers(&mut |b| all.extend(b.iter().map(|v| v.to_bits())));
    all
}

/// Forwards `x` through two layers `make` builds alike, one under `Train`
/// and one under `Frozen`, backpropagates a gradient on the output through
/// each under [`InputGradOnly`], and asserts equal output and `dx` bits.
/// Returns both layers.
fn frozen_matches_train<L: Layer>(make: impl Fn() -> L, x: &Tensor) -> (L, L) {
    let (mut train, mut frozen) = (make(), make());
    let y = train.forward_pass(x, Pass::Train);
    assert_eq!(bits(&frozen.forward_pass(x, Pass::Frozen)), bits(&y));
    let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut Rng::seed_from_u64(5));
    let dx = train.backward_with(&g, 0, &mut InputGradOnly);
    assert_eq!(
        bits(&frozen.backward_with(&g, 0, &mut InputGradOnly)),
        bits(&dx)
    );
    (train, frozen)
}

fn input(cols: usize) -> Tensor {
    Tensor::rand_uniform(&[ROWS, cols], -2.0, 2.0, &mut Rng::seed_from_u64(3))
}

#[test]
fn a_frozen_linear_matches_a_training_one_bitwise() {
    frozen_matches_train(
        || Linear::new(12, 9, &mut Rng::seed_from_u64(1)),
        &input(12),
    );
    frozen_matches_train(
        || Linear::fused_relu(12, 9, &mut Rng::seed_from_u64(1)),
        &input(12),
    );
}

#[test]
fn a_frozen_batch_norm_matches_a_training_one_and_keeps_its_running_statistics() {
    let fresh = buffers(&BatchNorm1d::new(7));
    let (train, frozen) = frozen_matches_train(|| BatchNorm1d::new(7), &input(7));
    assert_eq!(buffers(&frozen), fresh, "a frozen pass moves nothing");
    assert_ne!(
        buffers(&train),
        fresh,
        "a training pass moves the estimates"
    );
}

#[test]
fn a_frozen_t56_model_matches_a_training_one_bitwise() {
    let spec = ModelSpec::ResMlp {
        input_dim: 16,
        num_classes: 10,
        tier: DepthTier::T56,
    };
    let make = || {
        let mut model = spec.build(&mut Rng::seed_from_u64(2));
        // Drift the running statistics off their initial values.
        model.forward(&input(16).map(|v| 3.0 * v + 1.0), true);
        model
    };
    let before = buffers(&make());
    let (train, frozen) = frozen_matches_train(make, &input(16));
    assert_eq!(buffers(&frozen), before);
    assert_ne!(buffers(&train), before);
    let (mut train, mut frozen) = (make(), make());
    let (features, logits) = train.forward_full_pass(&input(16), Pass::Train);
    let (frozen_features, frozen_logits) = frozen.forward_full_pass(&input(16), Pass::Frozen);
    assert_eq!(bits(&frozen_features), bits(&features));
    assert_eq!(bits(&frozen_logits), bits(&logits));
}

#[test]
#[should_panic(expected = "backward called before forward")]
fn a_weight_gradient_backward_after_a_frozen_forward_panics() {
    let mut layer = Linear::new(12, 9, &mut Rng::seed_from_u64(1));
    layer.forward_pass(&input(12), Pass::Train);
    layer.forward_pass(&input(12), Pass::Frozen);
    layer.backward(&Tensor::full(&[ROWS, 9], 1.0));
}

#[test]
#[should_panic(expected = "no weight gradient after a frozen forward pass")]
fn applying_the_products_of_a_frozen_forward_panics() {
    let mut layer = Linear::fused_relu(12, 9, &mut Rng::seed_from_u64(1));
    layer.forward_pass(&input(12), Pass::Frozen);
    // A closure hook takes the default `linear`, which applies the products.
    layer.backward_with(
        &Tensor::full(&[ROWS, 9], 1.0),
        0,
        &mut |_: usize, _: &mut Param| {},
    );
}
