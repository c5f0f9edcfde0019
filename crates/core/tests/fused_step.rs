//! The fused training step against the trio it replaces.
//!
//! `ClassifierModel::backward_step` (and the hook-level form the FedProx
//! loop uses) must leave a model, its gradients, its optimizer and the
//! returned input gradient bit for bit where `backward_dual` →
//! [`apply_proximal_term`] → `Optimizer::step` → `zero_grad` leaves them —
//! on every model family, under both optimizers, with and without the
//! prototype feature gradient, across consecutive steps (so optimizer state
//! carried between steps is covered) including a 4-row tail batch, in both
//! kernel tiers.

use fedpkd_core::train::{add_proximal_term, apply_proximal_term};
use fedpkd_rng::Rng;
use fedpkd_tensor::models::{ClassifierModel, DepthTier, ModelSpec};
use fedpkd_tensor::nn::Layer;
use fedpkd_tensor::optim::{step_and_zero, Adam, Optimizer, Sgd};
use fedpkd_tensor::serialize::{param_vector, state_vector};
use fedpkd_tensor::{KernelMode, Tensor};
use proptest::prelude::*;

/// Rows per step: two full batches and a tail.
const BATCHES: [usize; 3] = [32, 32, 4];

fn model_spec() -> impl Strategy<Value = ModelSpec> {
    let res_mlp = |tier| ModelSpec::ResMlp {
        input_dim: 12,
        num_classes: 5,
        tier,
    };
    prop_oneof![
        Just(ModelSpec::Mlp {
            dims: vec![12, 20, 16],
            num_classes: 5,
        }),
        Just(res_mlp(DepthTier::T11)),
        Just(res_mlp(DepthTier::T20)),
        Just(res_mlp(DepthTier::T29)),
        Just(res_mlp(DepthTier::T56)),
        Just(ModelSpec::ConvNet {
            in_channels: 2,
            image_size: 6,
            num_classes: 4,
            tier: DepthTier::T11,
        }),
    ]
}

#[derive(Debug, Clone, Copy)]
enum OptSpec {
    Adam { weight_decay: f32 },
    Sgd { momentum: f32, weight_decay: f32 },
}

fn opt_spec() -> impl Strategy<Value = OptSpec> {
    prop_oneof![
        Just(OptSpec::Adam { weight_decay: 0.0 }),
        Just(OptSpec::Adam { weight_decay: 0.01 }),
        Just(OptSpec::Sgd {
            momentum: 0.0,
            weight_decay: 0.0
        }),
        Just(OptSpec::Sgd {
            momentum: 0.9,
            weight_decay: 0.01
        }),
    ]
}

/// The optimizer under test, concrete so Adam's state can be read back.
enum Opt {
    Adam(Adam),
    Sgd(Sgd),
}

impl Opt {
    fn new(spec: OptSpec) -> Self {
        match spec {
            OptSpec::Adam { weight_decay } => {
                Self::Adam(Adam::new(0.01).with_weight_decay(weight_decay))
            }
            OptSpec::Sgd {
                momentum,
                weight_decay,
            } => Self::Sgd(
                Sgd::new(0.05)
                    .with_momentum(momentum)
                    .with_weight_decay(weight_decay),
            ),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn Optimizer {
        match self {
            Self::Adam(adam) => adam,
            Self::Sgd(sgd) => sgd,
        }
    }

    /// Adam's `t` and `m ++ v` as bits; empty for SGD, whose velocity shows
    /// in the next step's parameters.
    fn state_bits(&self) -> (u64, Vec<u32>) {
        match self {
            Self::Adam(adam) => {
                let (m, v) = adam.moments();
                let bits = m
                    .iter()
                    .chain(v)
                    .flat_map(|t| t.as_slice().iter().map(|x| x.to_bits()))
                    .collect();
                (adam.step_count(), bits)
            }
            Self::Sgd(_) => (0, Vec::new()),
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

fn grad_bits(model: &ClassifierModel) -> Vec<u32> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.extend(p.grad.as_slice().iter().map(|g| g.to_bits())));
    out
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
    opt: OptSpec,
    with_feature_grad: bool,
    mu: Option<f32>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut trio_model = spec.build(&mut Rng::seed_from_u64(seed));
    let mut fused_model = spec.build(&mut Rng::seed_from_u64(seed));
    let (mut trio_opt, mut fused_opt) = (Opt::new(opt), Opt::new(opt));
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
            apply_proximal_term(&mut trio_model, &reference, mu);
        }
        trio_opt.as_dyn().step(&mut trio_model);
        trio_model.zero_grad();

        let fused_dx = match mu {
            None => {
                fused_model.backward_step(&logit_grad, feature_grad.as_ref(), fused_opt.as_dyn())
            }
            Some(mu) => {
                let optimizer = fused_opt.as_dyn();
                optimizer.begin_step(&fused_model);
                fused_model.backward_dual_with(
                    &logit_grad,
                    feature_grad.as_ref(),
                    &mut |slot, param| {
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
        prop_assert_eq!(fused_opt.state_bits(), trio_opt.state_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fused_step_equals_backward_step_zero_grad(
        spec in model_spec(),
        opt in opt_spec(),
        with_feature_grad in any::<bool>(),
        mu in prop_oneof![Just(None), Just(Some(0.1f32))],
        seed in any::<u64>(),
    ) {
        // One test in this binary, so the process-wide tier is ours.
        for mode in [KernelMode::Fast, KernelMode::Scalar] {
            let _mode = KernelMode::scoped(mode);
            check(&spec, opt, with_feature_grad, mu, seed)?;
        }
    }
}
