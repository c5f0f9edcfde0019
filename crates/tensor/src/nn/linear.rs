//! Fully connected layer.

use super::{Layer, Param, ParamHook, Pass, ReluMask};
use crate::optim::Optimizer;
use crate::parallel::scratch;
use crate::Tensor;
use fedpkd_rng::Rng;
use std::borrow::Cow;
use std::sync::Arc;

/// A fully connected (affine) layer: `y = x W + b`.
///
/// Weights are stored `[in_features, out_features]` and initialized with
/// He-uniform scaling, which suits the ReLU family used throughout the
/// models.
///
/// # Examples
///
/// ```
/// use fedpkd_rng::Rng;
/// use fedpkd_tensor::nn::{Layer, Linear};
/// use fedpkd_tensor::Tensor;
///
/// let mut rng = Rng::seed_from_u64(0);
/// let mut fc = Linear::new(8, 4, &mut rng);
/// let y = fc.forward(&Tensor::zeros(&[2, 8]), false);
/// assert_eq!(y.shape(), &[2, 4]);
/// assert_eq!(fc.param_count(), 8 * 4 + 4);
/// ```
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    fuse_relu: bool,
    /// Whether the last forward was [`Pass::Frozen`]: it keeps no input,
    /// and `backward_with` offers products that can only be dropped.
    frozen: bool,
    /// Kept by a [`Pass::Train`] forward only. Shared, not owned outright:
    /// a [`PendingGrads`] reads it from wherever the hook carried it while
    /// the layer keeps the buffer for the next batch.
    cached_input: Option<Arc<Tensor>>,
    relu_mask: Option<ReluMask>,
}

const FROZEN: &str = "no weight gradient after a frozen forward pass: it keeps no input";

/// The parameter-gradient products of one [`Linear`] backward pass, not yet
/// applied: `dW += xᵀ·g` and `db += column sums of g`. It carries its own
/// operands — the layer's output gradient `g` (lent by a plain layer, the
/// masked copy of a fused one), the forward input `x` as a read-only share
/// of the layer's cache — so a [`ParamHook::linear`] may apply it on the
/// spot, or [`into_owned`](Self::into_owned) anywhere, on any thread: the
/// same two kernels on the same operands wherever they run.
/// After a [`Pass::Frozen`] forward it has no `x`, and only dropping it is
/// allowed.
#[derive(Debug)]
pub struct PendingGrads<'a> {
    x: Option<Arc<Tensor>>,
    g: Cow<'a, Tensor>,
}

impl PendingGrads<'_> {
    /// Applies both products to the two gradients: `dW += xᵀ · g` through
    /// the transposed kernel, straight into the weight gradient, then
    /// `db += column sums of g`.
    ///
    /// # Panics
    ///
    /// Panics if the layer's last forward was [`Pass::Frozen`].
    pub fn apply(self, weight: &mut Param, bias: &mut Param) {
        let x = self.x.expect(FROZEN);
        x.tr_matmul_acc(&self.g, weight.grad_mut())
            .expect("dW shape");
        let db = self.g.sum_rows();
        bias.grad_mut().axpy(1.0, &db).expect("db accumulate");
    }

    /// The fused step's use of the products: forms `dW` and `db` in the
    /// calling thread's pooled scratch and hands each straight to
    /// `optimizer`'s update of `weight` (at `slot`) and `bias` (at
    /// `slot + 1`), so neither parameter's gradient is allocated or read.
    /// The same two kernels as [`apply`](Self::apply) run onto zeroed
    /// scratch instead of onto the zeroed gradients the fused step requires
    /// on entry, so the update sees the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the layer's last forward was [`Pass::Frozen`].
    pub fn step(
        self,
        optimizer: &mut dyn Optimizer,
        slot: usize,
        weight: &mut Param,
        bias: &mut Param,
    ) {
        let x = self.x.expect(FROZEN);
        let weights = weight.value.len();
        scratch::with_f32s(weights + bias.value.len(), |grads| {
            grads.fill(0.0);
            let (dw, db) = grads.split_at_mut(weights);
            x.tr_matmul_acc_into(&self.g, dw).expect("dW shape");
            self.g.sum_rows_acc(db);
            optimizer.update(slot, weight.value.as_mut_slice(), dw);
            optimizer.update(slot + 1, bias.value.as_mut_slice(), db);
        });
    }

    /// The products with `g` owned, to outlive the backward call: a copy of
    /// a borrowed `g`, a move of an owned one.
    pub fn into_owned(self) -> PendingGrads<'static> {
        PendingGrads {
            x: self.x,
            g: Cow::Owned(self.g.into_owned()),
        }
    }
}

impl Linear {
    /// Creates a layer mapping `in_features` to `out_features`, with
    /// He-uniform initialized weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        assert!(in_features > 0 && out_features > 0, "zero-sized Linear");
        let bound = (6.0 / in_features as f32).sqrt();
        let weight = Tensor::rand_uniform(&[in_features, out_features], -bound, bound, rng);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            fuse_relu: false,
            frozen: false,
            cached_input: None,
            relu_mask: None,
        }
    }

    /// Like [`Linear::new`], but with a ReLU fused into the forward pass —
    /// bit-identical to a `Linear` followed by a `Relu` layer (the bias and
    /// clamp are applied per element after the full reduction), without the
    /// extra output sweep and activation tensor. Draws the same weights
    /// from `rng` as [`Linear::new`], so swapping a `Linear + Relu` pair
    /// for a fused layer changes neither initialization nor results.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn fused_relu(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        let mut layer = Self::new(in_features, out_features, rng);
        layer.fuse_relu = true;
        layer
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl std::fmt::Debug for Linear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Linear")
            .field("in", &self.in_features)
            .field("out", &self.out_features)
            .field("fused_relu", &self.fuse_relu)
            .finish()
    }
}

impl Linear {
    /// With a fused ReLU, masks the incoming gradient exactly as a
    /// standalone Relu layer would (its predicate `z > 0` on the
    /// pre-activation equals `relu(z) > 0` on the output it masks).
    fn masked(&self, grad_out: &Tensor) -> Tensor {
        self.relu_mask
            .as_ref()
            .expect("backward called before forward")
            .apply(grad_out)
    }

    /// `dx = g · Wᵀ`, through the transposed kernel.
    fn input_grad(&self, g: &Tensor) -> Tensor {
        g.matmul_transposed(&self.weight.value).expect("dx shape")
    }
}

impl Layer for Linear {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        debug_assert_eq!(input.cols(), self.in_features, "input width mismatch");
        let out = input
            .matmul_bias(&self.weight.value, &self.bias.value, self.fuse_relu)
            .expect("linear forward: shape mismatch");
        // Only `dW` reads the input. The layer is sole owner of the buffer
        // again by the time a step has finished, so a training forward
        // overwrites it in place; any other pass drops it.
        if pass != Pass::Train {
            self.cached_input = None;
        } else if let Some(cached) = self.cached_input.as_mut().and_then(Arc::get_mut) {
            cached.clone_from(input);
        } else {
            self.cached_input = Some(Arc::new(input.clone()));
        }
        self.frozen = pass == Pass::Frozen;
        // The output gives the ReLU mask: `relu(z) > 0 ⇔ z > 0`.
        ReluMask::keep(
            &mut self.relu_mask,
            &out,
            pass != Pass::Eval && self.fuse_relu,
        );
        out
    }

    /// Computes `dx`, the one result the rest of the pass waits for, and
    /// offers the products unapplied. The fused layer's masked gradient is a
    /// tensor it just made and hands over; a plain layer's `grad_out`
    /// belongs to the layer above (a residual block reads it again for its
    /// skip path), so it lends it, and only a hook that keeps the products
    /// past this call copies it. After a frozen forward the products carry
    /// no input.
    fn backward_with(
        &mut self,
        grad_out: &Tensor,
        first_slot: usize,
        hook: &mut dyn ParamHook,
    ) -> Tensor {
        let x = match &self.cached_input {
            Some(x) => Some(Arc::clone(x)),
            None if self.frozen => None,
            None => panic!("backward called before forward"),
        };
        let g = if self.fuse_relu {
            Cow::Owned(self.masked(grad_out))
        } else {
            Cow::Borrowed(grad_out)
        };
        let grad_in = self.input_grad(&g);
        hook.linear(
            first_slot,
            &mut self.weight,
            &mut self.bias,
            PendingGrads { x, g },
        );
        grad_in
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;

    #[test]
    fn forward_applies_affine_map() {
        let mut rng = Rng::seed_from_u64(1);
        let mut fc = Linear::new(2, 2, &mut rng);
        // Overwrite with a known transform: W = [[1,2],[3,4]], b = [10, 20].
        fc.visit_params_mut(&mut |p| {
            let vals: &[f32] = if p.value.len() == 4 {
                &[1., 2., 3., 4.]
            } else {
                &[10., 20.]
            };
            p.value.as_mut_slice().copy_from_slice(vals);
        });
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = fc.forward(&x, false);
        assert_eq!(y.as_slice(), &[1. + 3. + 10., 2. + 4. + 20.]);
    }

    #[test]
    fn gradient_check_input_and_params() {
        let mut rng = Rng::seed_from_u64(2);
        let mut fc = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        gradcheck::check_input_grad(&mut fc, &x, 1e-2);
        gradcheck::check_param_grad(&mut fc, &x, 1e-2);
    }

    #[test]
    fn init_scale_tracks_fan_in() {
        let mut rng = Rng::seed_from_u64(3);
        let wide = Linear::new(1000, 4, &mut rng);
        let mut max_abs = 0.0f32;
        wide.visit_params(&mut |p| {
            if p.value.len() > 4 {
                max_abs = p.value.as_slice().iter().fold(0.0, |m, v| m.max(v.abs()));
            }
        });
        assert!(max_abs <= (6.0f32 / 1000.0).sqrt() + 1e-6);
    }

    #[test]
    #[should_panic(expected = "zero-sized Linear")]
    fn zero_width_panics() {
        let mut rng = Rng::seed_from_u64(4);
        let _ = Linear::new(0, 3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = Rng::seed_from_u64(5);
        let mut fc = Linear::new(2, 2, &mut rng);
        fc.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn fused_relu_matches_linear_then_relu_bitwise() {
        use crate::nn::Relu;
        // Same seed ⇒ identical weight draws for the fused and split stacks.
        let mut rng_a = Rng::seed_from_u64(7);
        let mut rng_b = Rng::seed_from_u64(7);
        let mut fused = Linear::fused_relu(6, 5, &mut rng_a);
        let mut plain = Linear::new(6, 5, &mut rng_b);
        let mut relu = Relu::new();

        let mut rng_x = Rng::seed_from_u64(8);
        let x = Tensor::rand_uniform(&[9, 6], -2.0, 2.0, &mut rng_x);
        let y_fused = fused.forward(&x, true);
        let y_plain = relu.forward(&plain.forward(&x, true), true);
        assert_eq!(y_fused.shape(), y_plain.shape());
        for (a, b) in y_fused.as_slice().iter().zip(y_plain.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let g = Tensor::rand_uniform(&[9, 5], -1.0, 1.0, &mut rng_x);
        let dx_fused = fused.backward(&g);
        let dx_plain = plain.backward(&relu.backward(&g));
        for (a, b) in dx_fused.as_slice().iter().zip(dx_plain.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut grads_fused = Vec::new();
        fused.visit_params(&mut |p| grads_fused.extend_from_slice(p.grad().unwrap().as_slice()));
        let mut grads_plain = Vec::new();
        plain.visit_params(&mut |p| grads_plain.extend_from_slice(p.grad().unwrap().as_slice()));
        assert_eq!(grads_fused.len(), grads_plain.len());
        for (a, b) in grads_fused.iter().zip(&grads_plain) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gradient_check_fused_relu() {
        let mut rng = Rng::seed_from_u64(9);
        let mut fc = Linear::fused_relu(4, 3, &mut rng);
        // Push every pre-activation well above the ReLU kink so finite
        // differences never straddle it (the kink itself is covered by the
        // bitwise-equivalence test above).
        fc.visit_params_mut(&mut |p| {
            if p.value.len() == 3 {
                p.value.as_mut_slice().fill(5.0);
            }
        });
        let x = Tensor::rand_uniform(&[5, 4], 0.5, 1.5, &mut rng);
        gradcheck::check_input_grad(&mut fc, &x, 1e-2);
        gradcheck::check_param_grad(&mut fc, &x, 1e-2);
    }

    #[test]
    fn a_frozen_forward_keeps_the_mask_and_drops_the_training_input() {
        let mut rng = Rng::seed_from_u64(10);
        let mut fc = Linear::fused_relu(4, 3, &mut rng);
        let x = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        fc.forward_pass(&x, Pass::Train);
        assert!(fc.cached_input.is_some() && fc.relu_mask.is_some());
        fc.forward_pass(&x, Pass::Frozen);
        assert!(fc.cached_input.is_none(), "no input for a weight gradient");
        assert!(fc.relu_mask.is_some(), "the mask `dx` reads");
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn an_input_gradient_after_an_eval_forward_still_panics() {
        let mut rng = Rng::seed_from_u64(11);
        let mut fc = Linear::new(4, 3, &mut rng);
        let x = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        fc.forward_pass(&x, Pass::Frozen);
        fc.forward_pass(&x, Pass::Eval);
        fc.backward_with(&Tensor::zeros(&[5, 3]), 0, &mut DropProducts);
    }

    /// Drops the products unapplied, as a critic that wants only `dx` does.
    struct DropProducts;

    impl ParamHook for DropProducts {
        fn param(&mut self, _: usize, _: &mut Param) {}

        fn linear(&mut self, _: usize, _: &mut Param, _: &mut Param, _: PendingGrads<'_>) {}
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = Rng::seed_from_u64(6);
        let mut fc = Linear::new(2, 3, &mut rng);
        let x = Tensor::zeros(&[4, 2]);
        fc.forward(&x, true);
        let g = Tensor::full(&[4, 3], 1.0);
        fc.backward(&g);
        let mut bias_grad = Vec::new();
        fc.visit_params(&mut |p| {
            if p.value.len() == 3 {
                bias_grad = p.grad().unwrap().as_slice().to_vec();
            }
        });
        assert_eq!(bias_grad, vec![4.0, 4.0, 4.0]);
    }
}
