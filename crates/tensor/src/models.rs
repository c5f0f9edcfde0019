//! Classifier models with an explicit feature/head split.
//!
//! FedPKD needs access to the *penultimate feature embedding* of every model
//! — prototypes are class means of those embeddings (Eq. 5), and the
//! prototype losses (Eqs. 12 and 16) backpropagate through them. A
//! [`ClassifierModel`] therefore splits every network into a `backbone`
//! (input → feature space) and a linear `head` (feature space → logits), and
//! supports joint backpropagation of a logit gradient plus an extra feature
//! gradient.
//!
//! The paper evaluates ResNet11/20/29 clients and a ResNet56 server. This
//! module provides matching capacity tiers in two families:
//! residual MLPs ([`ModelSpec::ResMlp`]) for the vector-mode synthetic data
//! used by the experiment harness, and small residual conv nets
//! ([`ModelSpec::ConvNet`]) for image-mode data.

use crate::nn::{
    AvgPool2d, BatchNorm1d, Conv2d, Flatten, GlobalAvgPool2d, Layer, Linear, Param, ParamHook,
    Pass, Relu, Residual, Sequential,
};
use crate::optim::{FusedStep, Optimizer};
use crate::step_worker::StepWorker;
use crate::Tensor;
use fedpkd_rng::Rng;

/// The shared feature-embedding width of every tiered model.
///
/// Prototypes are exchanged and aggregated *across* heterogeneous models
/// (Eq. 8 of the paper), which requires all models — every client tier and
/// the server — to embed into a common feature space, exactly as in
/// FedProto. Tiered builders therefore end their backbone with a projection
/// to this width; capacity differences live in the hidden layers.
pub const SHARED_FEATURE_DIM: usize = 64;

/// A classifier split into a feature backbone and a linear logit head.
pub struct ClassifierModel {
    backbone: Sequential,
    head: Linear,
    feature_dim: usize,
    num_classes: usize,
    /// The head's first slot in `visit_params` order: the backbone's
    /// parameter-tensor count (the backbone is fixed after construction).
    head_slot: usize,
}

impl ClassifierModel {
    /// Assembles a model from a backbone and a matching head.
    ///
    /// # Panics
    ///
    /// Panics if the head's input width differs from `feature_dim`.
    pub fn new(backbone: Sequential, head: Linear, feature_dim: usize) -> Self {
        assert_eq!(head.in_features(), feature_dim, "head width mismatch");
        let num_classes = head.out_features();
        let head_slot = backbone.slot_count();
        Self {
            backbone,
            head,
            feature_dim,
            num_classes,
            head_slot,
        }
    }

    /// Width of the feature embedding (prototype dimension).
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Runs only the backbone, returning feature embeddings `[batch, d]`.
    ///
    /// The returned tensor is moved straight out of the backbone; the
    /// activations [`backward_dual`](Self::backward_dual) needs live inside
    /// the layers themselves, so no feature copy is kept here. Eval paths
    /// that never backpropagate therefore pay zero feature copies.
    pub fn forward_features(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.backbone.forward(input, train)
    }

    /// Runs the full model, returning `(features, logits)`.
    pub fn forward_full(&mut self, input: &Tensor, train: bool) -> (Tensor, Tensor) {
        self.forward_full_pass(input, if train { Pass::Train } else { Pass::Eval })
    }

    /// [`forward_full`](Self::forward_full) under any [`Pass`].
    pub fn forward_full_pass(&mut self, input: &Tensor, pass: Pass) -> (Tensor, Tensor) {
        let features = self.backbone.forward_pass(input, pass);
        let logits = self.head.forward_pass(&features, pass);
        (features, logits)
    }

    /// The training forward of a model stepped on `worker`
    /// ([`backward_step_on`](Self::backward_step_on)): the same
    /// `(features, logits)` as `forward_full(input, true)`, with each
    /// top-level backbone layer, then the head, taking its parameters back
    /// from `worker` just before it runs, so the worker's tail overlaps the
    /// layers below.
    ///
    /// # Panics
    ///
    /// Resumes a panic raised on the worker's thread.
    pub fn forward_train_on(
        &mut self,
        input: &Tensor,
        worker: &StepWorker<'_>,
    ) -> (Tensor, Tensor) {
        let mut slot = 0;
        let mut features: Option<Tensor> = None;
        for layer in self.backbone.layers_mut() {
            worker.reclaim(slot, layer.as_mut());
            slot += layer.slot_count();
            features = Some(layer.forward(features.as_ref().unwrap_or(input), true));
        }
        let features = features.unwrap_or_else(|| input.clone());
        worker.reclaim(self.head_slot, &mut self.head);
        let logits = self.head.forward(&features, true);
        (features, logits)
    }

    /// Runs the full model, returning logits only.
    pub fn forward_logits(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_full(input, train).1
    }

    /// Backpropagates a logit gradient plus an optional extra gradient on
    /// the feature embedding (the prototype-loss path), accumulating every
    /// parameter gradient: [`backward_dual_with`](Self::backward_dual_with)
    /// under a hook that does nothing. Returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass, or if `feature_grad` has a
    /// different shape than the cached features.
    pub fn backward_dual(&mut self, logit_grad: &Tensor, feature_grad: Option<&Tensor>) -> Tensor {
        self.backward_dual_with(logit_grad, feature_grad, &mut |_: usize, _: &mut Param| {})
    }

    /// [`backward_dual`](Self::backward_dual) with a per-parameter hook:
    /// `hook(slot, param)` runs the moment each parameter's gradient is
    /// final, `slot` being its position in [`Layer::visit_params`] order
    /// (see [`Layer::backward_with`]).
    pub fn backward_dual_with(
        &mut self,
        logit_grad: &Tensor,
        feature_grad: Option<&Tensor>,
        hook: &mut dyn ParamHook,
    ) -> Tensor {
        self.backward_dual_from(0, logit_grad, feature_grad, hook)
    }

    /// [`backward_dual_with`](Self::backward_dual_with), slots numbered
    /// from `first_slot`: the head, then — with the extra feature gradient
    /// added — the backbone.
    fn backward_dual_from(
        &mut self,
        first_slot: usize,
        logit_grad: &Tensor,
        feature_grad: Option<&Tensor>,
        hook: &mut dyn ParamHook,
    ) -> Tensor {
        let mut g_features = self
            .head
            .backward_with(logit_grad, first_slot + self.head_slot, hook);
        if let Some(extra) = feature_grad {
            g_features
                .axpy(1.0, extra)
                .expect("feature gradient shape mismatch");
        }
        self.backbone.backward_with(&g_features, first_slot, hook)
    }

    /// The fused training step: [`backward_dual`](Self::backward_dual),
    /// `optimizer.step` and `zero_grad` in one pass ([`FusedStep`]) — each
    /// parameter is updated inside the backward pass, as soon as its
    /// gradient is final, while weight and optimizer state are still in
    /// cache. Bit-identical to the three separate calls (parameters,
    /// optimizer state, returned input gradient). Every `Linear`'s products
    /// go from thread scratch into the update, so its gradients stay
    /// unallocated; every other gradient is zero afterwards, as all must be
    /// before.
    pub fn backward_step(
        &mut self,
        logit_grad: &Tensor,
        feature_grad: Option<&Tensor>,
        optimizer: &mut dyn Optimizer,
    ) -> Tensor {
        optimizer.begin_step(self);
        self.backward_dual_with(logit_grad, feature_grad, &mut FusedStep(optimizer))
    }

    /// [`backward_step`](Self::backward_step) with the optimizer update —
    /// and the parameter-gradient products the layers offer unapplied —
    /// done by `worker`'s thread while this one carries on with the input
    /// gradients: same kernels, same operands, same bits. Every parameter
    /// leaves the model by value during the pass and is still out when this
    /// returns: the next [`forward_train_on`](Self::forward_train_on) takes
    /// each back as its layer runs, and [`StepWorker::finish_step`] takes
    /// back the rest after the last step. Nothing else may read the model
    /// in between.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a parameter of the previous step is still
    /// out.
    pub fn backward_step_on(
        &mut self,
        logit_grad: &Tensor,
        feature_grad: Option<&Tensor>,
        worker: &StepWorker<'_>,
    ) -> Tensor {
        worker.begin_step(self);
        let mut hook = worker;
        self.backward_dual_with(logit_grad, feature_grad, &mut hook)
    }
}

impl std::fmt::Debug for ClassifierModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassifierModel")
            .field("feature_dim", &self.feature_dim)
            .field("num_classes", &self.num_classes)
            .field("params", &self.param_count())
            .finish()
    }
}

impl Layer for ClassifierModel {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        self.forward_full_pass(input, pass).1
    }

    fn backward_with(
        &mut self,
        grad_out: &Tensor,
        first_slot: usize,
        hook: &mut dyn ParamHook,
    ) -> Tensor {
        self.backward_dual_from(first_slot, grad_out, None, hook)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.backbone.visit_params_mut(f);
        self.head.visit_params_mut(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.backbone.visit_params(f);
        self.head.visit_params(f);
    }

    fn visit_buffers(&self, f: &mut dyn FnMut(&[f32])) {
        self.backbone.visit_buffers(f);
        self.head.visit_buffers(f);
    }

    fn visit_buffers_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.backbone.visit_buffers_mut(f);
        self.head.visit_buffers_mut(f);
    }
}

/// Capacity tiers mirroring the paper's ResNet depths.
///
/// The ordering `T11 < T20 < T29 < T56` preserves the capacity relationship
/// between the paper's client models (ResNet11/20/29) and server model
/// (ResNet56).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepthTier {
    /// Analog of ResNet11 (smallest client tier).
    T11,
    /// Analog of ResNet20 (the homogeneous-setting client model).
    T20,
    /// Analog of ResNet29 (largest client tier).
    T29,
    /// Analog of ResNet56 (the server model).
    T56,
}

impl DepthTier {
    /// Number of residual blocks in this tier, `(depth − 2) / 6` rounded as
    /// in the CIFAR ResNet family.
    pub fn blocks(&self) -> usize {
        match self {
            Self::T11 => 2,
            Self::T20 => 3,
            Self::T29 => 5,
            Self::T56 => 9,
        }
    }

    /// Hidden width of this tier.
    pub fn width(&self) -> usize {
        match self {
            Self::T11 => 48,
            Self::T20 => 64,
            Self::T29 => 80,
            Self::T56 => 128,
        }
    }

    /// Human-readable name matching the paper's model names.
    pub fn name(&self) -> &'static str {
        match self {
            Self::T11 => "ResNet11",
            Self::T20 => "ResNet20",
            Self::T29 => "ResNet29",
            Self::T56 => "ResNet56",
        }
    }
}

impl std::fmt::Display for DepthTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative model architecture, buildable from a seed.
///
/// Heterogeneous federated settings hand each client a different spec; the
/// spec (not a built model) is what experiment configurations store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSpec {
    /// A plain multilayer perceptron. `dims` lists layer widths from input
    /// to the feature layer; the classification head is appended
    /// automatically.
    Mlp {
        /// Layer widths `[input, hidden…, feature]`.
        dims: Vec<usize>,
        /// Number of output classes.
        num_classes: usize,
    },
    /// A residual MLP with the given capacity tier (the vector-mode analog
    /// of the paper's CIFAR ResNets).
    ResMlp {
        /// Input feature width.
        input_dim: usize,
        /// Number of output classes.
        num_classes: usize,
        /// Capacity tier.
        tier: DepthTier,
    },
    /// A small residual convolutional network for `[n, c, h, w]` inputs.
    ConvNet {
        /// Input channels.
        in_channels: usize,
        /// Input spatial size (square).
        image_size: usize,
        /// Number of output classes.
        num_classes: usize,
        /// Capacity tier (controls channel width and block count).
        tier: DepthTier,
    },
}

impl ModelSpec {
    /// Builds the model with weights drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (e.g. an MLP with fewer than two
    /// dims or zero classes).
    pub fn build(&self, rng: &mut Rng) -> ClassifierModel {
        match self {
            Self::Mlp { dims, num_classes } => build_mlp(dims, *num_classes, rng),
            Self::ResMlp {
                input_dim,
                num_classes,
                tier,
            } => build_res_mlp(*input_dim, *num_classes, *tier, rng),
            Self::ConvNet {
                in_channels,
                image_size,
                num_classes,
                tier,
            } => build_conv_net(*in_channels, *image_size, *num_classes, *tier, rng),
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        match self {
            Self::Mlp { num_classes, .. }
            | Self::ResMlp { num_classes, .. }
            | Self::ConvNet { num_classes, .. } => *num_classes,
        }
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Self::Mlp { dims, num_classes } => format!("Mlp{dims:?}→{num_classes}"),
            Self::ResMlp { tier, .. } => format!("{}(res-mlp)", tier.name()),
            Self::ConvNet { tier, .. } => format!("{}(conv)", tier.name()),
        }
    }
}

/// Builds a plain MLP: `dims[0] → … → dims.last()` with ReLU between layers,
/// plus a linear head to `num_classes`.
///
/// # Panics
///
/// Panics if `dims` has fewer than two entries or `num_classes == 0`.
pub fn build_mlp(dims: &[usize], num_classes: usize, rng: &mut Rng) -> ClassifierModel {
    assert!(dims.len() >= 2, "MLP needs at least input and feature dims");
    assert!(num_classes > 0, "need at least one class");
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for w in dims.windows(2) {
        layers.push(Box::new(Linear::fused_relu(w[0], w[1], rng)));
    }
    let feature_dim = *dims.last().expect("validated non-empty");
    let head = Linear::new(feature_dim, num_classes, rng);
    ClassifierModel::new(Sequential::new(layers), head, feature_dim)
}

/// Builds a residual MLP of the given capacity tier: a stem projecting the
/// input to the tier width, `tier.blocks()` pre-activation residual blocks
/// with batch normalization, a projection to the crate-wide
/// [`SHARED_FEATURE_DIM`] (so prototypes are comparable across tiers), and a
/// linear head.
///
/// # Panics
///
/// Panics if `input_dim` or `num_classes` is zero.
pub fn build_res_mlp(
    input_dim: usize,
    num_classes: usize,
    tier: DepthTier,
    rng: &mut Rng,
) -> ClassifierModel {
    assert!(input_dim > 0 && num_classes > 0, "degenerate ResMlp spec");
    let width = tier.width();
    // Stem, blocks and the three tail layers, sized once: the buffers a
    // growing `Vec` would leave behind land among the model's small
    // allocations and decide whether glibc trims the heap between two builds
    // (EXPERIMENTS.md, "Performance record").
    let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(tier.blocks() + 4);
    layers.push(Box::new(Linear::fused_relu(input_dim, width, rng)));
    for _ in 0..tier.blocks() {
        let body = Sequential::new(vec![
            Box::new(BatchNorm1d::new(width)) as Box<dyn Layer>,
            Box::new(Linear::fused_relu(width, width, rng)),
            Box::new(Linear::new(width, width, rng)),
        ]);
        layers.push(Box::new(Residual::new(Box::new(body))));
    }
    layers.push(Box::new(BatchNorm1d::new(width)));
    layers.push(Box::new(Relu::new()));
    layers.push(Box::new(Linear::fused_relu(width, SHARED_FEATURE_DIM, rng)));
    let head = Linear::new(SHARED_FEATURE_DIM, num_classes, rng);
    ClassifierModel::new(Sequential::new(layers), head, SHARED_FEATURE_DIM)
}

/// Builds a small residual conv net: a 3×3 stem, `tier.blocks()/2 + 1`
/// residual conv blocks at the tier's channel width (scaled down 4× from the
/// MLP width), average + global-average pooling, and a projection to
/// [`SHARED_FEATURE_DIM`] feeding the head.
///
/// # Panics
///
/// Panics if any dimension is zero or `image_size < 4`.
pub fn build_conv_net(
    in_channels: usize,
    image_size: usize,
    num_classes: usize,
    tier: DepthTier,
    rng: &mut Rng,
) -> ClassifierModel {
    assert!(
        in_channels > 0 && num_classes > 0 && image_size >= 4,
        "degenerate ConvNet spec"
    );
    let channels = (tier.width() / 4).max(8);
    let blocks = tier.blocks() / 2 + 1;
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_channels, channels, 3, 1, 1, rng)),
        Box::new(Relu::new()),
    ];
    for _ in 0..blocks {
        let body = Sequential::new(vec![
            Box::new(Conv2d::new(channels, channels, 3, 1, 1, rng)) as Box<dyn Layer>,
            Box::new(Relu::new()),
            Box::new(Conv2d::new(channels, channels, 3, 1, 1, rng)),
        ]);
        layers.push(Box::new(Residual::new(Box::new(body))));
        layers.push(Box::new(Relu::new()));
    }
    layers.push(Box::new(AvgPool2d::new(2, 2)));
    layers.push(Box::new(GlobalAvgPool2d::new()));
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Linear::fused_relu(
        channels,
        SHARED_FEATURE_DIM,
        rng,
    )));
    let head = Linear::new(SHARED_FEATURE_DIM, num_classes, rng);
    ClassifierModel::new(Sequential::new(layers), head, SHARED_FEATURE_DIM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{CrossEntropy, Mse};
    use crate::optim::{Adam, Optimizer};

    #[test]
    fn tiers_are_capacity_ordered() {
        let mut rng = Rng::seed_from_u64(1);
        let counts: Vec<usize> = [
            DepthTier::T11,
            DepthTier::T20,
            DepthTier::T29,
            DepthTier::T56,
        ]
        .iter()
        .map(|&t| build_res_mlp(16, 10, t, &mut rng).param_count())
        .collect();
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
    }

    #[test]
    fn tier_names_match_paper() {
        assert_eq!(DepthTier::T20.name(), "ResNet20");
        assert_eq!(DepthTier::T56.to_string(), "ResNet56");
    }

    #[test]
    fn forward_full_shapes() {
        let mut rng = Rng::seed_from_u64(2);
        let mut m = build_res_mlp(8, 5, DepthTier::T11, &mut rng);
        let x = Tensor::zeros(&[3, 8]);
        let (features, logits) = m.forward_full(&x, false);
        assert_eq!(features.shape(), &[3, m.feature_dim()]);
        assert_eq!(logits.shape(), &[3, 5]);
        assert_eq!(m.num_classes(), 5);
    }

    #[test]
    fn mlp_builder_shapes() {
        let mut rng = Rng::seed_from_u64(3);
        let mut m = build_mlp(&[4, 16, 8], 3, &mut rng);
        assert_eq!(m.feature_dim(), 8);
        let y = m.forward_logits(&Tensor::zeros(&[2, 4]), false);
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn model_spec_builds_and_describes() {
        let mut rng = Rng::seed_from_u64(4);
        let specs = [
            ModelSpec::Mlp {
                dims: vec![4, 8],
                num_classes: 2,
            },
            ModelSpec::ResMlp {
                input_dim: 4,
                num_classes: 2,
                tier: DepthTier::T11,
            },
        ];
        for spec in &specs {
            let m = spec.build(&mut rng);
            assert_eq!(m.num_classes(), spec.num_classes());
            assert!(!spec.describe().is_empty());
        }
    }

    #[test]
    fn conv_net_forward_shapes() {
        let mut rng = Rng::seed_from_u64(5);
        let spec = ModelSpec::ConvNet {
            in_channels: 3,
            image_size: 8,
            num_classes: 10,
            tier: DepthTier::T11,
        };
        let mut m = spec.build(&mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let (features, logits) = m.forward_full(&x, false);
        assert_eq!(features.shape(), &[2, m.feature_dim()]);
        assert_eq!(logits.shape(), &[2, 10]);
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut rng = Rng::seed_from_u64(6);
        let mut m = build_res_mlp(2, 2, DepthTier::T11, &mut rng);
        // Two well-separated Gaussian blobs.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..32 {
            let c = i % 2;
            let offset = if c == 0 { -2.0 } else { 2.0 };
            xs.push(offset + rng.standard_normal() as f32 * 0.3);
            xs.push(offset + rng.standard_normal() as f32 * 0.3);
            ys.push(c);
        }
        let x = Tensor::from_vec(xs, &[32, 2]).unwrap();
        let ce = CrossEntropy::new();
        let mut opt = Adam::new(0.01);
        let initial = ce.loss_and_grad(&m.forward_logits(&x, false), &ys).0;
        for _ in 0..60 {
            let logits = m.forward_logits(&x, true);
            let (_, grad) = ce.loss_and_grad(&logits, &ys);
            m.backward(&grad);
            opt.step(&mut m);
            m.zero_grad();
        }
        let trained = ce.loss_and_grad(&m.forward_logits(&x, false), &ys).0;
        assert!(trained < initial * 0.5, "{initial} → {trained}");
    }

    #[test]
    fn backward_dual_moves_features_toward_target() {
        // Minimizing only the feature-MSE via backward_dual should pull the
        // embedding toward the target prototype.
        let mut rng = Rng::seed_from_u64(7);
        let mut m = build_mlp(&[2, 8], 2, &mut rng);
        let x = Tensor::full(&[1, 2], 1.0);
        let target = Tensor::full(&[1, 8], 0.5);
        let mse = Mse::new();
        let mut opt = Adam::new(0.05);
        let initial = {
            let f = m.forward_features(&x, false);
            mse.loss_and_grad(&f, &target).0
        };
        for _ in 0..100 {
            let (features, logits) = m.forward_full(&x, true);
            let (_, fgrad) = mse.loss_and_grad(&features, &target);
            let zero_logit_grad = Tensor::zeros(logits.shape());
            m.backward_dual(&zero_logit_grad, Some(&fgrad));
            opt.step(&mut m);
            m.zero_grad();
        }
        let trained = {
            let f = m.forward_features(&x, false);
            mse.loss_and_grad(&f, &target).0
        };
        // Dead ReLU units can pin a few coordinates, so require a solid but
        // not total reduction.
        assert!(trained < initial * 0.5, "{initial} → {trained}");
    }

    #[test]
    #[should_panic(expected = "head width mismatch")]
    fn mismatched_head_is_rejected() {
        let mut rng = Rng::seed_from_u64(8);
        let backbone =
            Sequential::new(vec![Box::new(Linear::new(4, 8, &mut rng)) as Box<dyn Layer>]);
        let head = Linear::new(6, 2, &mut rng);
        let _ = ClassifierModel::new(backbone, head, 8);
    }

    #[test]
    fn forward_features_is_bit_identical_to_forward_full() {
        // The copy-free feature path must return the exact bytes the
        // (features, logits) path sees, train and eval alike, and a
        // subsequent backward_dual must still work off the layer-held
        // activations.
        let mut rng = Rng::seed_from_u64(10);
        let mut m = build_res_mlp(6, 3, DepthTier::T11, &mut rng);
        let x = Tensor::rand_uniform(&[4, 6], -1.0, 1.0, &mut rng);
        for train in [false, true] {
            let via_features = m.forward_features(&x, train);
            let (via_full, logits) = m.forward_full(&x, train);
            assert_eq!(via_features.as_slice(), via_full.as_slice());
            if train {
                let grad = Tensor::full(logits.shape(), 0.1);
                m.backward_dual(&grad, None);
                m.zero_grad();
            }
        }
    }

    #[test]
    fn layer_impl_matches_forward_logits() {
        let mut rng = Rng::seed_from_u64(9);
        let mut m = build_mlp(&[3, 6], 4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng);
        let via_layer = m.forward(&x, false);
        let via_method = m.forward_logits(&x, false);
        assert_eq!(via_layer, via_method);
    }
}
