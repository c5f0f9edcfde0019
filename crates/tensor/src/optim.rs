//! First-order optimizers.
//!
//! Optimizers operate on any [`Layer`] through its stable parameter
//! visitation order, keeping their per-parameter state (Adam's moments) in
//! buffers indexed by *slot* — a parameter's position in that order.
//!
//! An update step is [`Optimizer::begin_step`] once, then
//! [`Optimizer::update`] once per parameter, in any order, each with the
//! parameter's values and its gradient as slices. Two drivers exist over
//! that one per-parameter kernel, both behind the one backward a layer
//! writes, [`Layer::backward_with`]:
//!
//! - [`Optimizer::step`] walks the model after a finished backward pass
//!   ([`Layer::backward`], which is `backward_with` under a hook that does
//!   nothing), reading each parameter's accumulated gradient
//!   ([`Optimizer::update_param`]);
//! - the fused step ([`FusedStep`] as the hook of `backward_with`,
//!   packaged as
//!   [`crate::models::ClassifierModel::backward_step`]) updates each
//!   parameter inside the backward pass, the moment its gradient is final.
//!   A [`Linear`](crate::nn::Linear)'s `dW` and `db` go from the stepping
//!   thread's scratch straight into the update
//!   ([`PendingGrads::step`]), so its gradients are never allocated; any
//!   other parameter's is updated and zeroed while still in cache
//!   ([`step_and_zero`]).
//!
//! Both produce the same bits: parameters are updated independently, from
//! the same gradient, with the same per-step scalars.

use crate::nn::{Layer, Param, ParamHook, PendingGrads};
use crate::Tensor;

/// A gradient-based parameter update rule.
///
/// `Send`, so a training step can run its updates on another thread (see
/// [`crate::step_worker`]).
pub trait Optimizer: Send {
    /// Opens an update step over `model`: advances the per-step state
    /// (Adam's bias-correction counter) and, on the first step, sizes the
    /// per-parameter state to the model.
    fn begin_step(&mut self, model: &dyn Layer);

    /// Applies the open step's update to the parameter at `slot` (its
    /// position in the model's [`Layer::visit_params`] order), whose values
    /// are `value`, using `grad` as its gradient. The update may use `grad`
    /// as its own scratch (FedProx folds its proximal term into it in
    /// place); the caller reads it no more as this step's gradient.
    ///
    /// # Panics
    ///
    /// Panics if the optimizer's state for `slot` is missing or does not
    /// have `value`'s length — it was sized by, or restored for, a
    /// different model — or if `grad` does not have `value`'s length.
    fn update(&mut self, slot: usize, value: &mut [f32], grad: &mut [f32]);

    /// [`update`](Optimizer::update) with the gradient accumulated in
    /// `param` (allocated as zeros first if none was). Does not zero the
    /// gradient.
    fn update_param(&mut self, slot: usize, param: &mut Param) {
        let (value, grad) = param.value_and_grad_mut();
        self.update(slot, value.as_mut_slice(), grad.as_mut_slice());
    }

    /// Applies one update step using the gradients currently accumulated in
    /// the model's parameters. Does not zero the gradients.
    fn step(&mut self, model: &mut dyn Layer) {
        self.begin_step(model);
        let mut slot = 0usize;
        model.visit_params_mut(&mut |p| {
            self.update_param(slot, p);
            slot += 1;
        });
    }

    /// The current learning rate.
    fn learning_rate(&self) -> f32;
}

/// The fused step's per-parameter hook body for a parameter with an
/// accumulated gradient: apply `optimizer`'s update to the parameter at
/// `slot`, then zero its gradient while it is still in cache. Call
/// [`Optimizer::begin_step`] first.
pub fn step_and_zero(optimizer: &mut dyn Optimizer, slot: usize, param: &mut Param) {
    optimizer.update_param(slot, param);
    param.zero_grad();
}

/// The fused step as a [`ParamHook`]: every `Linear`'s products go from
/// scratch into the optimizer ([`PendingGrads::step`]) and every other
/// parameter is stepped and zeroed ([`step_and_zero`]). Call
/// [`Optimizer::begin_step`] before the backward pass it hooks.
pub struct FusedStep<'a>(pub &'a mut dyn Optimizer);

impl ParamHook for FusedStep<'_> {
    fn param(&mut self, slot: usize, param: &mut Param) {
        step_and_zero(self.0, slot, param);
    }

    fn linear(
        &mut self,
        slot: usize,
        weight: &mut Param,
        bias: &mut Param,
        pending: PendingGrads<'_>,
    ) {
        pending.step(self.0, slot, weight, bias);
    }
}

/// The shape of every parameter of `model`, in slot order — what
/// [`Adam::check_state`] holds a saved optimizer state against.
pub fn param_shapes(model: &dyn Layer) -> Vec<Vec<usize>> {
    let mut shapes = Vec::new();
    model.visit_params(&mut |p| shapes.push(p.value.shape().to_vec()));
    shapes
}

/// One zeroed state tensor per model parameter, in slot order.
fn zeros_like_params(model: &dyn Layer) -> Vec<Tensor> {
    param_shapes(model)
        .iter()
        .map(|shape| Tensor::zeros(shape))
        .collect()
}

/// The Adam optimizer (Kingma & Ba), the paper's optimizer of choice
/// (Adam, η = 0.001).
///
/// # Examples
///
/// ```
/// use fedpkd_rng::Rng;
/// use fedpkd_tensor::nn::{Layer, Linear};
/// use fedpkd_tensor::optim::{Adam, Optimizer};
/// use fedpkd_tensor::Tensor;
///
/// let mut rng = Rng::seed_from_u64(0);
/// let mut layer = Linear::new(2, 2, &mut rng);
/// let mut opt = Adam::new(0.001);
/// layer.forward(&Tensor::zeros(&[1, 2]), true);
/// layer.backward(&Tensor::zeros(&[1, 2]));
/// opt.step(&mut layer);
/// assert_eq!(opt.step_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// Bias corrections `1 − βᵗ` of the open step, set by `begin_step`.
    bias1: f32,
    bias2: f32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard hyperparameters
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            bias1: 0.0,
            bias2: 0.0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of update steps taken so far (the bias-correction counter).
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// The first and second moment estimates, in parameter visitation order.
    ///
    /// Both slices are empty until the first [`step`](Optimizer::step) and
    /// afterwards hold one tensor per model parameter. Together with
    /// [`step_count`](Self::step_count) and the learning rate they are
    /// Adam's complete mutable state, so saving them and later feeding them
    /// to [`restore_state`](Self::restore_state) makes a resumed run take
    /// bit-identical update steps.
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    /// Restores the step count and moment buffers captured via
    /// [`step_count`](Self::step_count) and [`moments`](Self::moments).
    ///
    /// Hyperparameters (β₁, β₂, ε) are configuration, not
    /// state; they come from the constructor of the instance being restored
    /// into.
    ///
    /// State read from outside the program should pass
    /// [`check_state`](Self::check_state) against the model first.
    ///
    /// # Panics
    ///
    /// Panics if `m` and `v` differ in length or any pair differs in shape,
    /// or if `t` is beyond [`MAX_STEP_COUNT`](Self::MAX_STEP_COUNT).
    pub fn restore_state(&mut self, t: u64, m: Vec<Tensor>, v: Vec<Tensor>) {
        assert_eq!(m.len(), v.len(), "moment buffers must pair up");
        for (m_i, v_i) in m.iter().zip(&v) {
            assert_eq!(m_i.shape(), v_i.shape(), "moment shapes must pair up");
        }
        assert!(t <= Self::MAX_STEP_COUNT, "step count {t} out of range");
        self.t = t;
        self.m = m;
        self.v = v;
    }

    /// The largest step count a restored optimizer may carry: the bias
    /// correction raises β to the step count as an `i32` power, and one
    /// more step must still fit.
    pub const MAX_STEP_COUNT: u64 = i32::MAX as u64 - 1;

    /// Checks that a saved `(step count, first moments, second moments)`
    /// triple can drive a model whose parameters have `param_shapes` (in
    /// visitation order): the count is in range, and the moments are either
    /// absent (never stepped) or one pair per parameter with exactly the
    /// parameter's shape. Returns what is wrong otherwise.
    ///
    /// A mismatched state must be refused, not repaired: applied to the
    /// wrong model it would pair each weight with another weight's moments.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch found.
    pub fn check_state(
        t: u64,
        m: &[Tensor],
        v: &[Tensor],
        param_shapes: &[Vec<usize>],
    ) -> Result<(), String> {
        if t > Self::MAX_STEP_COUNT {
            return Err(format!("optimizer step count {t} out of range"));
        }
        if m.len() != v.len() {
            return Err(format!(
                "{} first moments but {} second moments",
                m.len(),
                v.len()
            ));
        }
        if m.is_empty() {
            return Ok(());
        }
        if m.len() != param_shapes.len() {
            return Err(format!(
                "{} moment pairs for a model with {} parameters",
                m.len(),
                param_shapes.len()
            ));
        }
        for (slot, ((m_i, v_i), shape)) in m.iter().zip(v).zip(param_shapes).enumerate() {
            if m_i.shape() != shape.as_slice() || v_i.shape() != shape.as_slice() {
                return Err(format!(
                    "moments at slot {slot} have shapes {:?}/{:?}, parameter has {shape:?}",
                    m_i.shape(),
                    v_i.shape()
                ));
            }
        }
        Ok(())
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self, model: &dyn Layer) {
        if self.m.is_empty() {
            self.m = zeros_like_params(model);
            self.v = zeros_like_params(model);
        }
        self.t += 1;
        let t = i32::try_from(self.t).expect("step count checked on restore");
        self.bias1 = 1.0 - self.beta1.powi(t);
        self.bias2 = 1.0 - self.beta2.powi(t);
    }

    fn update(&mut self, slot: usize, value: &mut [f32], grad: &mut [f32]) {
        if self.bias1 == 1.0 {
            self.update_lanes::<true>(slot, value, grad);
        } else {
            self.update_lanes::<false>(slot, value, grad);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

impl Adam {
    /// [`Optimizer::update`]'s lane loop. `M_UNBIASED` says that
    /// `bias1 = 1 − β₁ᵗ` has rounded to exactly `1.0` (from t = 165 at
    /// β₁ = 0.9), where `m / bias1` is `m` bit for bit — ±0, ±∞ and NaN
    /// included — so the division is skipped. A constant, not a per-lane
    /// test, so both variants vectorize.
    fn update_lanes<const M_UNBIASED: bool>(
        &mut self,
        slot: usize,
        value: &mut [f32],
        grad: &[f32],
    ) {
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (bias1, bias2) = (self.bias1, self.bias2);
        let m = self.m[slot].as_mut_slice();
        let v = self.v[slot].as_mut_slice();
        // The zips below stop at the shortest slice; a state built for
        // another model must fail here, not update a prefix of the weight.
        assert_eq!(value.len(), grad.len(), "parameter/gradient mismatch");
        assert_eq!(value.len(), m.len(), "optimizer/model mismatch");
        assert_eq!(value.len(), v.len(), "optimizer/model mismatch");
        // Zip-driven so the (value, grad, m, v) walk compiles without
        // per-element bounds checks; the per-lane arithmetic is
        // unchanged, so updates are bit-identical to the indexed loop.
        for (((value, &grad), m), v) in value
            .iter_mut()
            .zip(grad)
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *m = b1 * *m + (1.0 - b1) * grad;
            *v = b2 * *v + (1.0 - b2) * grad * grad;
            let m_hat = if M_UNBIASED { *m } else { *m / bias1 };
            let v_hat = *v / bias2;
            *value -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropy;
    use crate::nn::{Linear, Relu, Sequential};
    use fedpkd_rng::Rng;

    /// Trains a tiny model on a separable toy problem and returns the final
    /// loss.
    fn train_toy(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut rng = Rng::seed_from_u64(1);
        let mut model = Sequential::new(vec![
            Box::new(Linear::new(2, 16, &mut rng)) as Box<dyn crate::nn::Layer>,
            Box::new(Relu::new()),
            Box::new(Linear::new(16, 2, &mut rng)),
        ]);
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
        let y = vec![0usize, 0, 1, 1];
        let ce = CrossEntropy::new();
        let mut last = f32::INFINITY;
        for _ in 0..steps {
            let logits = model.forward(&x, true);
            let (loss, grad) = ce.loss_and_grad(&logits, &y);
            last = loss;
            model.backward(&grad);
            opt.step(&mut model);
            model.zero_grad();
        }
        last
    }

    #[test]
    fn adam_reduces_loss() {
        let mut opt = Adam::new(0.01);
        let final_loss = train_toy(&mut opt, 200);
        assert!(final_loss < 0.1, "loss {final_loss}");
    }

    #[test]
    fn learning_rate_accessors() {
        let adam = Adam::new(0.001);
        assert_eq!(adam.learning_rate(), 0.001);
    }

    #[test]
    fn adam_restore_state_resumes_bit_identically() {
        let mut rng = Rng::seed_from_u64(4);
        let mut model = Sequential::new(vec![
            Box::new(Linear::new(2, 8, &mut rng)) as Box<dyn crate::nn::Layer>,
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ]);
        let x = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]).unwrap();
        let y = vec![0usize, 1];
        let ce = CrossEntropy::new();
        let mut opt = Adam::new(0.01);
        let run_steps = |model: &mut Sequential, opt: &mut Adam, n: usize| {
            for _ in 0..n {
                let logits = model.forward(&x, true);
                let (_, grad) = ce.loss_and_grad(&logits, &y);
                model.backward(&grad);
                opt.step(model);
                model.zero_grad();
            }
        };
        run_steps(&mut model, &mut opt, 5);
        // Snapshot the optimizer and model mid-run.
        let t = opt.step_count();
        assert_eq!(t, 5);
        let (m, v) = opt.moments();
        let (m, v) = (m.to_vec(), v.to_vec());
        let saved_params = crate::serialize::state_vector(&model);
        run_steps(&mut model, &mut opt, 5);
        let expected = crate::serialize::state_vector(&model);
        // Restore into a fresh optimizer and replay.
        let mut opt2 = Adam::new(0.01);
        opt2.restore_state(t, m, v);
        crate::serialize::load_state_vector(&mut model, &saved_params).unwrap();
        run_steps(&mut model, &mut opt2, 5);
        assert_eq!(crate::serialize::state_vector(&model), expected);
    }

    #[test]
    fn adam_across_the_bias1_saturation_point_matches_always_dividing() {
        let (b1, b2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 0.01f32);
        // The first step count at which `1 − β₁ᵗ` rounds to 1.0.
        let saturated = (1..).find(|&t| 1.0 - b1.powi(t) == 1.0).unwrap();
        // Six special gradients (±0, a subnormal, ±∞, NaN), then ten
        // ordinary ones. The last eight lanes start from a zero weight,
        // where one ulp of `m̂` shows in the updated value.
        let special = [0.0, -0.0, 1e-40, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let grads: Vec<f32> = special
            .into_iter()
            .chain((0..10).map(|i| 0.37 * i as f32 - 1.3))
            .collect();
        let lanes = |v: Vec<f32>| Tensor::from_vec(v, &[4, 4]).unwrap();
        let mut m = lanes((0..16).map(|i| 0.05 * i as f32 - 0.4).collect());
        let mut v = lanes((0..16).map(|i| 0.01 * i as f32).collect());
        m.as_mut_slice()[..3].copy_from_slice(&[0.0, -0.0, 1e-41]);
        let mut param = Param::new(lanes(
            (0..16).map(|i| if i < 8 { 1.0 } else { 0.0 }).collect(),
        ));
        let mut value = param.value.clone();
        let layer = Linear::new(4, 4, &mut Rng::seed_from_u64(5));
        let mut opt = Adam::new(lr);
        let start = saturated - 3;
        opt.restore_state(
            u64::try_from(start).unwrap(),
            vec![m.clone()],
            vec![v.clone()],
        );
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut biases = Vec::new();
        for t in start + 1..=start + 6 {
            let scale = (t - start) as f32;
            let grad: Vec<f32> = grads.iter().map(|g| g * scale).collect();
            *param.grad_mut() = lanes(grad.clone());
            opt.begin_step(&layer);
            opt.update_param(0, &mut param);
            biases.push(opt.bias1);
            // The reference: Adam as written, dividing every step.
            let (bias1, bias2) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
            let lanes = value.as_mut_slice().iter_mut().zip(&grad);
            for ((w, &g), (m, v)) in lanes.zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice())) {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                *w -= lr * (*m / bias1) / ((*v / bias2).sqrt() + eps);
            }
            let (m_opt, v_opt) = opt.moments();
            assert_eq!(bits(&param.value), bits(&value), "value at t = {t}");
            assert_eq!(bits(&m_opt[0]), bits(&m), "m at t = {t}");
            assert_eq!(bits(&v_opt[0]), bits(&v), "v at t = {t}");
        }
        assert!(
            biases[0] < 1.0 && biases[5] == 1.0,
            "not across: {biases:?}"
        );
    }

    #[test]
    #[should_panic(expected = "moment buffers must pair up")]
    fn adam_restore_rejects_unpaired_moments() {
        let mut opt = Adam::new(0.01);
        opt.restore_state(1, vec![Tensor::zeros(&[2])], Vec::new());
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Adam::new(0.0);
    }
}
