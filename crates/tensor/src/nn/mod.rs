//! Neural-network layers with explicit forward/backward passes.
//!
//! The [`Layer`] trait is the backbone of the training stack: each layer
//! caches what it needs during [`Layer::forward`] and produces input
//! gradients (while accumulating parameter gradients) in
//! [`Layer::backward`]. Containers ([`Sequential`], [`Residual`]) compose
//! layers into networks.

mod activations;
mod batchnorm;
mod conv;
mod linear;
mod pool;

pub use activations::Relu;
pub use batchnorm::BatchNorm1d;
pub use conv::Conv2d;
pub use linear::{Linear, PendingGrads};
pub use pool::{AvgPool2d, Flatten, GlobalAvgPool2d};

use crate::Tensor;

/// A trainable parameter: a value tensor plus its accumulated gradient.
///
/// The gradient is allocated on its first accumulation, not with the
/// parameter: the fused training step (see [`crate::optim`]) hands every
/// [`Linear`]'s products to the optimizer from thread scratch, so the
/// weights of a model that only ever trains through it never hold one.
/// An unallocated gradient reads as zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es), if any
    /// accumulated one.
    grad: Option<Tensor>,
}

impl Param {
    /// Wraps a value tensor; no gradient is allocated until one
    /// accumulates.
    pub fn new(value: Tensor) -> Self {
        Self { value, grad: None }
    }

    /// The accumulated gradient, or `None` where nothing has accumulated
    /// one yet (the same as all zeros).
    pub fn grad(&self) -> Option<&Tensor> {
        self.grad.as_ref()
    }

    /// The gradient to accumulate into, allocated as zeros on first use.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        self.value_and_grad_mut().1
    }

    /// The value and the gradient, both mutable, allocating the gradient
    /// as zeros on first use.
    pub fn value_and_grad_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        let grad = self
            .grad
            .get_or_insert_with(|| Tensor::zeros(self.value.shape()));
        (&mut self.value, grad)
    }

    /// Resets the gradient to zero, in place; nothing to do where none is
    /// allocated.
    pub fn zero_grad(&mut self) {
        if let Some(grad) = &mut self.grad {
            grad.fill(0.0);
        }
    }

    /// What a [`ParamHook`] that takes a parameter by value leaves in the
    /// model until it puts the parameter back: owns nothing, costs nothing.
    pub(crate) const fn placeholder() -> Self {
        Self {
            value: Tensor::placeholder(),
            grad: None,
        }
    }
}

/// The hand-over point of [`Layer::backward_with`]: what receives each
/// parameter the moment the backward pass is done with it.
///
/// Any `FnMut(usize, &mut Param)` closure is a hook (its body is
/// [`param`](ParamHook::param)); the fused training step passes
/// [`crate::optim::FusedStep`], which updates each parameter from its final
/// gradient — a [`Linear`]'s straight from thread scratch, so that it never
/// allocates one. A hook may also take a parameter out
/// of the model by value, leaving an empty one behind, provided it puts it
/// back before anything reads the model again — how
/// [`crate::step_worker::StepWorker`] moves the update to another thread.
pub trait ParamHook {
    /// Called once per parameter, the moment that parameter's gradient is
    /// final; `slot` is the parameter's position in the root model's
    /// [`Layer::visit_params`] order.
    fn param(&mut self, slot: usize, param: &mut Param);

    /// Called by every [`Linear`], plain or fused, in place of
    /// [`param`](ParamHook::param), with its parameter-gradient products
    /// *not* applied: `weight` (at `slot`) and `bias` (at `slot + 1`) still
    /// lack what `pending` holds, and nothing else in the backward pass
    /// waits for it. The default applies the products on the spot
    /// (allocating either gradient on its first accumulation) and hands
    /// both parameters to [`param`](ParamHook::param) — exactly what the
    /// layer's own [`backward`](Layer::backward) would have left; an
    /// override may carry `pending` elsewhere
    /// ([`into_owned`](PendingGrads::into_owned)) as long as it is applied
    /// before the parameter's update, or drop it when no update follows.
    fn linear(
        &mut self,
        slot: usize,
        weight: &mut Param,
        bias: &mut Param,
        pending: PendingGrads<'_>,
    ) {
        pending.apply(weight, bias);
        self.param(slot, weight);
        self.param(slot + 1, bias);
    }
}

impl<F: FnMut(usize, &mut Param)> ParamHook for F {
    fn param(&mut self, slot: usize, param: &mut Param) {
        self(slot, param);
    }
}

/// Which forward a layer runs, and so what it keeps for a backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Running statistics; nothing kept, so a backward after it panics.
    Eval,
    /// Batch statistics, which move the running ones; every cache kept.
    Train,
    /// A training pass whose backward takes only the input gradient: batch
    /// statistics, running ones left alone, and a [`Linear`] keeps no
    /// input ([`PendingGrads::apply`] panics).
    Frozen,
}

/// A differentiable network layer.
///
/// The contract: call [`forward`](Layer::forward) on a batch, then
/// [`backward`](Layer::backward) with the gradient of the loss with respect
/// to the forward output. `backward` accumulates gradients into the layer's
/// [`Param`]s (so multiple backward passes sum) and returns the gradient with
/// respect to the forward input. Call [`zero_grad`](Layer::zero_grad)
/// between optimizer steps — or use [`backward_with`](Layer::backward_with),
/// which hands every parameter to a hook as soon as its gradient is final,
/// so the optimizer update and the gradient reset happen inside the
/// backward pass instead of as two more sweeps over the model.
///
/// Layers are `Send` so simulated clients can train on worker threads.
pub trait Layer: Send {
    /// Runs the layer on `input` under `pass`, which selects batch or
    /// running statistics and what is kept for a backward.
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor;

    /// [`forward_pass`](Layer::forward_pass) under [`Pass::Train`] when
    /// `train`, else [`Pass::Eval`].
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_pass(input, if train { Pass::Train } else { Pass::Eval })
    }

    /// Backpropagates `grad_out` (gradient w.r.t. the last forward output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the last forward input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward` or with a
    /// gradient whose shape does not match the last forward output.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`backward`](Layer::backward), then `hook.param(slot, param)` for
    /// each of this layer's parameters, numbered from `first_slot` in
    /// [`visit_params`](Layer::visit_params) order. Returns the same input
    /// gradient, and leaves the same parameter gradients for the hook to
    /// read, as `backward` does — the hook may then change the parameter.
    ///
    /// The default serves every leaf layer. Containers override it to pass
    /// the hook down, so a child's parameters are handed over while the
    /// backward pass is still at that child — before the layers below it
    /// run — and a hook that updates weights must therefore only ever see a
    /// parameter whose value no later part of the pass reads. [`Linear`]
    /// overrides it to offer its not-yet-applied gradient products through
    /// [`ParamHook::linear`].
    fn backward_with(
        &mut self,
        grad_out: &Tensor,
        first_slot: usize,
        hook: &mut dyn ParamHook,
    ) -> Tensor {
        let grad_in = self.backward(grad_out);
        let mut slot = first_slot;
        self.visit_params_mut(&mut |p| {
            hook.param(slot, p);
            slot += 1;
        });
        grad_in
    }

    /// Number of parameter tensors ([`Param`]s, not scalars) this layer
    /// visits — the number of slots it occupies in
    /// [`backward_with`](Layer::backward_with) numbering.
    fn slot_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_| n += 1);
        n
    }

    /// Visits every trainable parameter mutably, in a stable order.
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every trainable parameter immutably, in the same stable order
    /// as [`visit_params_mut`](Layer::visit_params_mut).
    fn visit_params(&self, f: &mut dyn FnMut(&Param));

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Visits every non-trainable state buffer immutably, in a stable
    /// order (e.g. batch-norm running statistics). Buffers are part of a
    /// model's transferable state — parameter-averaging FL algorithms must
    /// ship and aggregate them alongside the parameters — but are not
    /// touched by optimizers.
    fn visit_buffers(&self, _f: &mut dyn FnMut(&[f32])) {}

    /// Visits every non-trainable state buffer mutably, in the same stable
    /// order as [`visit_buffers`](Layer::visit_buffers).
    fn visit_buffers_mut(&mut self, _f: &mut dyn FnMut(&mut [f32])) {}

    /// Total number of scalars in non-trainable state buffers.
    fn buffer_count(&self) -> usize {
        let mut n = 0;
        self.visit_buffers(&mut |b| n += b.len());
        n
    }

    /// Zeroes all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }
}

/// All a ReLU's backward reads of its forward: which elements were `> 0.0`
/// (NaN and ±0.0 are not), one bit each over 64-lane words and a tail word,
/// and the shape a gradient must have.
#[derive(Debug, Default)]
struct ReluMask {
    words: Vec<u64>,
    shape: Vec<usize>,
}

fn positive_bits(lanes: &[f32]) -> u64 {
    let mut word = 0;
    for (i, &x) in lanes.iter().enumerate() {
        word |= u64::from(x > 0.0) << i;
    }
    word
}

fn clear_unset_lanes(lanes: &mut [f32], word: u64) {
    for (i, x) in lanes.iter_mut().enumerate() {
        if word >> i & 1 == 0 {
            *x = 0.0;
        }
    }
}

impl ReluMask {
    /// [`keep_for_backward`] for the mask of `value`, packed in place.
    fn keep(mask: &mut Option<Self>, value: &Tensor, train: bool) {
        if !train {
            *mask = None;
            return;
        }
        let mask = mask.get_or_insert_default();
        let (words, tail) = value.as_slice().as_chunks::<64>();
        let tail = (!tail.is_empty()).then(|| positive_bits(tail));
        mask.words.clear();
        mask.words
            .extend(words.iter().map(|w| positive_bits(w)).chain(tail));
        mask.shape.clear();
        mask.shape.extend_from_slice(value.shape());
    }

    /// The bits of `grad_out.zip_with(value, |g, y| if y > 0.0 { g } else { 0.0 })`.
    fn apply(&self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.shape(), self.shape, "relu mask shape");
        let mut g = grad_out.clone();
        let (words, tail) = g.as_mut_slice().as_chunks_mut::<64>();
        for (lanes, &word) in words.iter_mut().zip(&self.words) {
            clear_unset_lanes(lanes, word);
        }
        if let Some(&word) = self.words.get(words.len()) {
            clear_unset_lanes(tail, word);
        }
        g
    }
}

/// A container that applies layers in order.
///
/// # Examples
///
/// ```
/// use fedpkd_rng::Rng;
/// use fedpkd_tensor::nn::{Layer, Linear, Relu, Sequential};
/// use fedpkd_tensor::Tensor;
///
/// let mut rng = Rng::seed_from_u64(1);
/// let mut net = Sequential::new(vec![
///     Box::new(Linear::new(4, 8, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Linear::new(8, 3, &mut rng)),
/// ]);
/// let x = Tensor::zeros(&[2, 4]);
/// let y = net.forward(&x, false);
/// assert_eq!(y.shape(), &[2, 3]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential container from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Creates an empty container (the identity function).
    pub fn empty() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The child layers, in forward order.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .field("params", &self.param_count())
            .finish()
    }
}

impl Layer for Sequential {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        let mut x = first.forward_pass(input, pass);
        for layer in rest {
            x = layer.forward_pass(&x, pass);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        chain_backward(&mut self.layers, grad_out, |layer, g| layer.backward(g))
    }

    fn backward_with(
        &mut self,
        grad_out: &Tensor,
        first_slot: usize,
        hook: &mut dyn ParamHook,
    ) -> Tensor {
        // Children run last to first, so slots are handed out from the end.
        let mut slot = first_slot + self.slot_count();
        chain_backward(&mut self.layers, grad_out, |layer, g| {
            slot -= layer.slot_count();
            layer.backward_with(g, slot, hook)
        })
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&self, f: &mut dyn FnMut(&[f32])) {
        for layer in &self.layers {
            layer.visit_buffers(f);
        }
    }

    fn visit_buffers_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_buffers_mut(f);
        }
    }
}

/// Runs `step` over `layers` last to first, feeding each the gradient the
/// one after it returned — the two backward flavours of [`Sequential`]
/// differ only in which child method `step` calls.
fn chain_backward(
    layers: &mut [Box<dyn Layer>],
    grad_out: &Tensor,
    mut step: impl FnMut(&mut dyn Layer, &Tensor) -> Tensor,
) -> Tensor {
    let Some((last, rest)) = layers.split_last_mut() else {
        return grad_out.clone();
    };
    let mut g = step(last.as_mut(), grad_out);
    for layer in rest.iter_mut().rev() {
        g = step(layer.as_mut(), &g);
    }
    g
}

/// A residual block: `output = body(x) + x`. The body must preserve the
/// input's shape.
pub struct Residual {
    body: Box<dyn Layer>,
}

impl Residual {
    /// Creates a residual block around `body`.
    pub fn new(body: Box<dyn Layer>) -> Self {
        Self { body }
    }

    /// `grad_body + grad_out`, in place: the skip path's gradient is
    /// `grad_out` itself, and `a + 1.0·b` is `a + b` bit for bit.
    fn join_grads(mut grad_body: Tensor, grad_out: &Tensor) -> Tensor {
        grad_body
            .axpy(1.0, grad_out)
            .expect("residual input gradients must agree in shape");
        grad_body
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("params", &self.param_count())
            .finish()
    }
}

impl Layer for Residual {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        // In place, as `join_grads`: `a + 1.0·b` is `a + b` bit for bit.
        let mut main = self.body.forward_pass(input, pass);
        main.axpy(1.0, input)
            .expect("residual body must preserve the input shape");
        main
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        Self::join_grads(self.body.backward(grad_out), grad_out)
    }

    fn backward_with(
        &mut self,
        grad_out: &Tensor,
        first_slot: usize,
        hook: &mut dyn ParamHook,
    ) -> Tensor {
        Self::join_grads(
            self.body.backward_with(grad_out, first_slot, hook),
            grad_out,
        )
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.body.visit_params_mut(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.body.visit_params(f);
    }

    fn visit_buffers(&self, f: &mut dyn FnMut(&[f32])) {
        self.body.visit_buffers(f);
    }

    fn visit_buffers_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.body.visit_buffers_mut(f);
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by the layer tests.

    use super::*;

    /// Checks `d loss / d input` of `layer` at `input` against central finite
    /// differences, where the loss is `sum(forward(input) * weights)` for a
    /// fixed random weighting (so the output gradient is `weights`).
    pub fn check_input_grad(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let mut rng = fedpkd_rng::Rng::seed_from_u64(0xFEED);
        let out = layer.forward(input, true);
        let weights = Tensor::rand_uniform(out.shape(), -1.0, 1.0, &mut rng);
        let analytic = layer.backward(&weights);

        let eps = 1e-2f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let f_plus: f32 = layer.forward(&plus, true).mul(&weights).unwrap().sum();
            let f_minus: f32 = layer.forward(&minus, true).mul(&weights).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let got = analytic.as_slice()[i];
            assert!(
                (numeric - got).abs() < tol * (1.0 + numeric.abs()),
                "input grad {i}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    /// Checks `d loss / d params` against central finite differences with the
    /// same weighted-sum loss.
    pub fn check_param_grad(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let mut rng = fedpkd_rng::Rng::seed_from_u64(0xBEEF);
        let out = layer.forward(input, true);
        let weights = Tensor::rand_uniform(out.shape(), -1.0, 1.0, &mut rng);
        layer.zero_grad();
        layer.forward(input, true);
        layer.backward(&weights);

        let mut analytic: Vec<f32> = Vec::new();
        layer.visit_params(&mut |p| analytic.extend_from_slice(p.grad().unwrap().as_slice()));

        let eps = 1e-2f32;
        let n_params = {
            let mut n = 0;
            layer.visit_params(&mut |p| n += p.value.len());
            n
        };
        assert_eq!(analytic.len(), n_params);
        for (global_i, &got) in analytic.iter().enumerate() {
            // Perturb parameter `global_i` by +eps / -eps via the visitor.
            let perturb = |layer: &mut dyn Layer, delta: f32| {
                let mut seen = 0usize;
                layer.visit_params_mut(&mut |p| {
                    let len = p.value.len();
                    if global_i >= seen && global_i < seen + len {
                        p.value.as_mut_slice()[global_i - seen] += delta;
                    }
                    seen += len;
                });
            };
            perturb(layer, eps);
            let f_plus: f32 = layer.forward(input, true).mul(&weights).unwrap().sum();
            perturb(layer, -2.0 * eps);
            let f_minus: f32 = layer.forward(input, true).mul(&weights).unwrap().sum();
            perturb(layer, eps);
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - got).abs() < tol * (1.0 + numeric.abs()),
                "param grad {global_i}: numeric {numeric} vs analytic {got}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_rng::Rng;

    #[test]
    fn sequential_composes_shapes() {
        let mut rng = Rng::seed_from_u64(2);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(3, 5, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(5, 2, &mut rng)),
        ]);
        let x = Tensor::zeros(&[4, 3]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[4, 2]);
        let g = net.backward(&Tensor::zeros(&[4, 2]));
        assert_eq!(g.shape(), &[4, 3]);
    }

    #[test]
    fn sequential_param_count_sums_children() {
        let mut rng = Rng::seed_from_u64(2);
        let net = Sequential::new(vec![
            Box::new(Linear::new(3, 5, &mut rng)), // 3*5 + 5 = 20
            Box::new(Linear::new(5, 2, &mut rng)), // 5*2 + 2 = 12
        ]);
        assert_eq!(net.param_count(), 32);
    }

    #[test]
    fn sequential_push_and_len() {
        let mut rng = Rng::seed_from_u64(2);
        let mut net = Sequential::empty();
        assert!(net.is_empty());
        net.push(Box::new(Linear::new(2, 2, &mut rng)));
        assert_eq!(net.len(), 1);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::empty();
        let x = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        assert_eq!(net.forward(&x, true), x);
    }

    #[test]
    fn residual_identity_adds_input() {
        // body = 0-weight linear → output should equal input via the skip.
        let mut rng = Rng::seed_from_u64(3);
        let mut lin = Linear::new(2, 2, &mut rng);
        lin.visit_params_mut(&mut |p| {
            for v in p.value.as_mut_slice() {
                *v = 0.0;
            }
        });
        let mut block = Residual::new(Box::new(lin));
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let y = block.forward(&x, true);
        assert_eq!(y, x);
    }

    #[test]
    fn residual_gradient_check() {
        let mut rng = Rng::seed_from_u64(4);
        let body = Sequential::new(vec![
            Box::new(Linear::new(3, 3, &mut rng)),
            Box::new(Relu::new()),
        ]);
        let mut block = Residual::new(Box::new(body));
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng);
        gradcheck::check_input_grad(&mut block, &x, 1e-2);
        gradcheck::check_param_grad(&mut block, &x, 1e-2);
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = Rng::seed_from_u64(6);
        let mut net =
            Sequential::new(vec![Box::new(Linear::new(2, 2, &mut rng)) as Box<dyn Layer>]);
        let x = Tensor::full(&[1, 2], 1.0);
        net.forward(&x, true);
        net.backward(&Tensor::full(&[1, 2], 1.0));
        let mut nonzero = false;
        net.visit_params(&mut |p| nonzero |= grad_of(p).iter().any(|&g| g != 0.0));
        assert!(nonzero);
        net.zero_grad();
        net.visit_params(&mut |p| assert!(grad_of(p).iter().all(|&g| g == 0.0)));
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = Rng::seed_from_u64(7);
        let mut net = Linear::new(2, 1, &mut rng);
        let x = Tensor::full(&[1, 2], 1.0);
        let g = Tensor::full(&[1, 1], 1.0);
        net.forward(&x, true);
        net.backward(&g);
        let mut first = Vec::new();
        net.visit_params(&mut |p| first.extend_from_slice(grad_of(p)));
        net.forward(&x, true);
        net.backward(&g);
        let mut second = Vec::new();
        net.visit_params(&mut |p| second.extend_from_slice(grad_of(p)));
        for (a, b) in first.iter().zip(&second) {
            assert!((2.0 * a - b).abs() < 1e-5, "grads must accumulate");
        }
    }

    /// A net with every container shape: nested `Sequential`s, a `Residual`
    /// around one and around a bare layer, batch norm and a fused-ReLU
    /// `Linear`.
    fn nested_net(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from_u64(seed);
        let body = Sequential::new(vec![
            Box::new(BatchNorm1d::new(5)) as Box<dyn Layer>,
            Box::new(Linear::fused_relu(5, 5, &mut rng)),
        ]);
        Sequential::new(vec![
            Box::new(Linear::new(4, 5, &mut rng)),
            Box::new(Residual::new(Box::new(body))),
            Box::new(Relu::new()),
            Box::new(Residual::new(Box::new(Linear::new(5, 5, &mut rng)))),
            Box::new(Linear::new(5, 3, &mut rng)),
        ])
    }

    /// An accumulated gradient.
    fn grad_of(p: &Param) -> &[f32] {
        p.grad().expect("an accumulated gradient").as_slice()
    }

    fn grad_bits(p: &Param) -> Vec<u32> {
        grad_of(p).iter().map(|g| g.to_bits()).collect()
    }

    fn grads_of(net: &dyn Layer) -> Vec<Vec<u32>> {
        let mut grads = Vec::new();
        net.visit_params(&mut |p| grads.push(grad_bits(p)));
        grads
    }

    #[test]
    fn backward_with_hands_over_every_param_once_at_its_visit_slot() {
        let mut rng = Rng::seed_from_u64(8);
        let x = Tensor::rand_uniform(&[6, 4], -1.0, 1.0, &mut rng);
        let g = Tensor::rand_uniform(&[6, 3], -1.0, 1.0, &mut rng);
        let (mut plain, mut hooked) = (nested_net(9), nested_net(9));
        plain.forward(&x, true);
        hooked.forward(&x, true);
        let dx_plain = plain.backward(&g);
        let expected = grads_of(&plain);
        assert_eq!(plain.slot_count(), expected.len());

        let mut seen: Vec<Option<Vec<u32>>> = vec![None; expected.len()];
        let dx_hooked = hooked.backward_with(&g, 0, &mut |slot: usize, p: &mut Param| {
            assert!(seen[slot].is_none(), "slot {slot} handed over twice");
            seen[slot] = Some(grad_bits(p));
            // What the fused step does: change the weight, clear the grad.
            p.value.fill(0.0);
            p.zero_grad();
        });
        assert_eq!(dx_hooked, dx_plain, "the hook must not reach the pass");
        let seen: Vec<Vec<u32>> = seen.into_iter().map(Option::unwrap).collect();
        assert_eq!(seen, expected, "final gradients, in visit order");
    }

    #[test]
    fn a_param_allocates_its_gradient_on_first_accumulation_only() {
        let param = Param::new(Tensor::full(&[2, 3], 1.0));
        assert!(param.grad().is_none(), "Param::new allocates no gradient");
        let mut net = nested_net(16);
        let mut allocated = 0;
        net.visit_params(&mut |p| allocated += usize::from(p.grad().is_some()));
        assert_eq!(allocated, 0, "a built model holds no gradient");
        net.zero_grad();
        net.visit_params(&mut |p| assert!(p.grad().is_none(), "zero_grad allocates none"));

        // Backward → zero_grad → backward: the second pass accumulates onto
        // zeroed buffers exactly what the first did onto fresh ones, and a
        // third without zeroing adds to them.
        let mut rng = Rng::seed_from_u64(17);
        let x = Tensor::rand_uniform(&[6, 4], -1.0, 1.0, &mut rng);
        let g = Tensor::rand_uniform(&[6, 3], -1.0, 1.0, &mut rng);
        net.forward(&x, true);
        net.backward(&g);
        let first = grads_of(&net);
        assert_eq!(first.len(), net.slot_count(), "every gradient allocated");
        net.zero_grad();
        net.forward(&x, true);
        net.backward(&g);
        assert_eq!(grads_of(&net), first);
        net.forward(&x, true);
        net.backward(&g);
        let doubled: Vec<Vec<u32>> = first
            .iter()
            .map(|p| {
                p.iter()
                    .map(|&b| (2.0 * f32::from_bits(b)).to_bits())
                    .collect()
            })
            .collect();
        assert_eq!(grads_of(&net), doubled, "x + x is 2x exactly");
    }

    /// Records which hook method each parameter arrives through.
    struct Recorder(Vec<(&'static str, usize)>);

    impl ParamHook for Recorder {
        fn param(&mut self, slot: usize, _: &mut Param) {
            self.0.push(("param", slot));
        }

        fn linear(
            &mut self,
            slot: usize,
            weight: &mut Param,
            bias: &mut Param,
            pending: PendingGrads<'_>,
        ) {
            self.0.push(("linear", slot));
            pending.apply(weight, bias);
        }
    }

    #[test]
    fn every_linear_offers_its_products_and_only_the_other_params_come_one_by_one() {
        let mut rng = Rng::seed_from_u64(13);
        let x = Tensor::rand_uniform(&[6, 4], -1.0, 1.0, &mut rng);
        let g = Tensor::rand_uniform(&[6, 3], -1.0, 1.0, &mut rng);
        let (mut plain, mut hooked) = (nested_net(14), nested_net(14));
        plain.forward(&x, true);
        hooked.forward(&x, true);
        let mut recorder = Recorder(Vec::new());
        let dx = hooked.backward_with(&g, 0, &mut recorder);
        // Last to first: the plain head (8), the plain residual body (6),
        // the fused layer (4), the batch norm's γ and β (2, 3), the plain
        // stem (0).
        let expected = [
            ("linear", 8),
            ("linear", 6),
            ("linear", 4),
            ("param", 2),
            ("param", 3),
            ("linear", 0),
        ];
        assert_eq!(recorder.0, expected);
        assert_eq!(dx, plain.backward(&g));
        assert_eq!(grads_of(&hooked), grads_of(&plain));
    }

    /// `shape`'s worth of values, a quarter of them NaN, ±0.0, ±∞ or the
    /// subnormal extremes and the rest any bit pattern (itself sometimes
    /// NaN, infinite or subnormal).
    fn hostile_values(shape: &[usize], rng: &mut Rng) -> Tensor {
        const SPECIAL: [f32; 8] = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
        ];
        let len = shape.iter().product();
        let values = (0..len)
            .map(|_| match rng.next_u64() {
                bits if bits % 4 == 0 => SPECIAL[(bits >> 8) as usize % SPECIAL.len()],
                bits => f32::from_bits((bits >> 32) as u32),
            })
            .collect();
        Tensor::from_vec(values, shape).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The 1-bit mask's backward is the `f32` cache's, bit for bit, at
        /// every length class: one lane, a short tail word alone, one full
        /// word, a word and a one-lane tail, and the critic's batch shapes.
        #[test]
        fn relu_mask_backward_matches_the_f32_cache_bitwise(
            which in 0..6usize,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let shapes: [&[usize]; 6] = [&[1], &[63], &[64], &[65], &[32, 128], &[600, 128]];
            let mut rng = Rng::seed_from_u64(seed);
            let cache = hostile_values(shapes[which], &mut rng);
            let grad_out = hostile_values(shapes[which], &mut rng);
            let mut mask = None;
            ReluMask::keep(&mut mask, &cache, true);
            let masked = mask.unwrap().apply(&grad_out);
            let expected = grad_out
                .zip_with(&cache, |g, y| if y > 0.0 { g } else { 0.0 })
                .unwrap();
            proptest::prop_assert_eq!(masked.shape(), expected.shape());
            let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert!(bits(&masked) == bits(&expected));
        }
    }

    #[test]
    fn a_relu_mask_is_packed_over_in_place_and_dropped_by_eval() {
        let mut rng = Rng::seed_from_u64(15);
        let mut mask = None;
        ReluMask::keep(&mut mask, &hostile_values(&[600, 128], &mut rng), true);
        let words = mask.as_ref().unwrap().words.as_ptr();
        // A smaller batch reuses the words, and its tail word is its own.
        let small = hostile_values(&[65], &mut rng);
        ReluMask::keep(&mut mask, &small, true);
        let kept = mask.as_ref().unwrap();
        assert_eq!((kept.words.as_ptr(), kept.words.len()), (words, 2));
        let expected = small.map(|y| if y > 0.0 { 1.0 } else { 0.0 });
        assert_eq!(kept.apply(&Tensor::full(&[65], 1.0)), expected);
        ReluMask::keep(&mut mask, &small, false);
        assert!(mask.is_none());
    }

    #[test]
    #[should_panic(expected = "relu mask shape")]
    fn a_relu_mask_refuses_a_gradient_of_another_shape() {
        let mut mask = None;
        ReluMask::keep(&mut mask, &Tensor::full(&[2, 3], 1.0), true);
        mask.unwrap().apply(&Tensor::full(&[7], 1.0));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn eval_forward_drops_the_training_batch_caches() {
        let mut net = nested_net(12);
        let x = Tensor::full(&[2, 4], 0.5);
        net.forward(&x, true);
        net.forward(&x, false);
        net.backward(&Tensor::full(&[2, 3], 1.0));
    }
}
