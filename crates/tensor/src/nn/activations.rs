//! The element-wise activation layer.

use super::{Layer, Param, ParamHook, Pass, ReluMask};
use crate::Tensor;

/// Rectified linear unit: `max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<ReluMask>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        ReluMask::keep(&mut self.mask, input, pass != Pass::Eval);
        input.map(|x| x.max(0.0))
    }

    fn backward_with(&mut self, grad_out: &Tensor, _: usize, _: &mut dyn ParamHook) -> Tensor {
        self.mask
            .as_ref()
            .expect("backward called before forward")
            .apply(grad_out)
    }

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;
    use fedpkd_rng::Rng;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]).unwrap();
        let y = relu.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[1, 2]).unwrap();
        relu.forward(&x, true);
        let g = relu.backward(&Tensor::full(&[1, 2], 5.0));
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn relu_gradcheck_away_from_kink() {
        let mut rng = Rng::seed_from_u64(1);
        // Keep inputs away from 0 where ReLU is non-differentiable.
        let x = Tensor::rand_uniform(&[3, 4], 0.5, 1.5, &mut rng);
        gradcheck::check_input_grad(&mut Relu::new(), &x, 1e-3);
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
    }
}
