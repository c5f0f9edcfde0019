//! Element-wise activation layers.

use super::{keep_for_backward, Layer, Param};
use crate::Tensor;

/// Rectified linear unit: `max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        keep_for_backward(&mut self.cached_input, input, train);
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        grad_out
            .zip_with(input, |g, x| if x > 0.0 { g } else { 0.0 })
            .expect("relu backward shape")
    }

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Leaky rectified linear unit: `x` for positive inputs, `slope · x`
/// otherwise.
#[derive(Debug)]
pub struct LeakyRelu {
    slope: f32,
    cached_input: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative-side slope.
    ///
    /// # Panics
    ///
    /// Panics if `slope` is negative or not finite.
    pub fn new(slope: f32) -> Self {
        assert!(slope.is_finite() && slope >= 0.0, "invalid slope");
        Self {
            slope,
            cached_input: None,
        }
    }
}

impl Layer for LeakyRelu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        keep_for_backward(&mut self.cached_input, input, train);
        let s = self.slope;
        input.map(|x| if x > 0.0 { x } else { s * x })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let s = self.slope;
        grad_out
            .zip_with(input, |g, x| if x > 0.0 { g } else { s * g })
            .expect("leaky relu backward shape")
    }

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Hyperbolic tangent activation.
#[derive(Debug, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = input.map(f32::tanh);
        keep_for_backward(&mut self.cached_output, &out, train);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("backward called before forward");
        grad_out
            .zip_with(out, |g, y| g * (1.0 - y * y))
            .expect("tanh backward shape")
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
    fn leaky_relu_scales_negatives() {
        let mut l = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(vec![-2.0, 4.0], &[1, 2]).unwrap();
        let y = l.forward(&x, true);
        assert!((y.as_slice()[0] + 0.2).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 4.0);
        let g = l.backward(&Tensor::full(&[1, 2], 1.0));
        assert!((g.as_slice()[0] - 0.1).abs() < 1e-6);
        assert_eq!(g.as_slice()[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid slope")]
    fn leaky_relu_rejects_negative_slope() {
        let _ = LeakyRelu::new(-0.5);
    }

    #[test]
    fn tanh_gradient_check() {
        let mut rng = Rng::seed_from_u64(2);
        let x = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        gradcheck::check_input_grad(&mut Tanh::new(), &x, 1e-2);
    }

    #[test]
    fn tanh_saturates() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![100.0, -100.0, 0.0], &[1, 3]).unwrap();
        let y = t.forward(&x, true);
        assert!((y.as_slice()[0] - 1.0).abs() < 1e-6);
        assert!((y.as_slice()[1] + 1.0).abs() < 1e-6);
        assert_eq!(y.as_slice()[2], 0.0);
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(LeakyRelu::new(0.1).param_count(), 0);
        assert_eq!(Tanh::new().param_count(), 0);
    }
}
