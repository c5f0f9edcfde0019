//! Pooling and reshaping layers for the convolutional path.

use super::{Layer, Param, Pass};
use crate::Tensor;

/// Average pooling over non-overlapping (or strided) square windows of a
/// `[n, c, h, w]` tensor.
#[derive(Debug)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    cached_in_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer with a square `kernel` and `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "AvgPool2d dimensions must be positive"
        );
        Self {
            kernel,
            stride,
            cached_in_shape: None,
        }
    }

    fn out_hw(&self, hw: usize) -> usize {
        (hw - self.kernel) / self.stride + 1
    }
}

impl Layer for AvgPool2d {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "AvgPool2d expects [n, c, h, w]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = (self.out_hw(h), self.out_hw(w));
        let k2 = (self.kernel * self.kernel) as f32;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        for s in 0..n {
            let src = input.row(s);
            let dst = out.row_mut(s);
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                acc += src[ci * h * w + iy * w + ix];
                            }
                        }
                        dst[ci * oh * ow + oy * ow + ox] = acc / k2;
                    }
                }
            }
        }
        // An eval forward keeps nothing, so a backward after it panics.
        self.cached_in_shape = (pass != Pass::Eval).then(|| shape.to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .expect("backward called before forward");
        let (n, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let (oh, ow) = (self.out_hw(h), self.out_hw(w));
        let k2 = (self.kernel * self.kernel) as f32;
        let mut dx = Tensor::zeros(in_shape);
        for s in 0..n {
            let g = grad_out.row(s);
            let d = dx.row_mut(s);
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let gv = g[ci * oh * ow + oy * ow + ox] / k2;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                d[ci * h * w + iy * w + ix] += gv;
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
///
/// The standard final spatial reduction of ResNet-style networks; its output
/// is the feature embedding from which FedPKD prototypes are computed on the
/// convolutional path.
#[derive(Debug, Default)]
pub struct GlobalAvgPool2d {
    cached_in_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool2d {
    /// Creates a global average-pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool2d {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "GlobalAvgPool2d expects [n, c, h, w]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let area = (h * w) as f32;
        let mut out = Tensor::zeros(&[n, c]);
        for s in 0..n {
            let src = input.row(s);
            let dst = out.row_mut(s);
            for (ci, d) in dst.iter_mut().enumerate() {
                *d = src[ci * h * w..(ci + 1) * h * w].iter().sum::<f32>() / area;
            }
        }
        // An eval forward keeps nothing, so a backward after it panics.
        self.cached_in_shape = (pass != Pass::Eval).then(|| shape.to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .expect("backward called before forward");
        let (n, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let area = (h * w) as f32;
        let mut dx = Tensor::zeros(in_shape);
        for s in 0..n {
            let g = grad_out.row(s);
            let d = dx.row_mut(s);
            for ci in 0..c {
                let gv = g[ci] / area;
                for v in &mut d[ci * h * w..(ci + 1) * h * w] {
                    *v = gv;
                }
            }
        }
        dx
    }

    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Flattens all trailing dimensions: `[n, d1, d2, …] → [n, d1·d2·…]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flattening layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        self.cached_in_shape = (pass != Pass::Eval).then(|| input.shape().to_vec());
        input
            .reshape(&[input.rows(), input.cols()])
            .expect("flatten preserves element count")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .expect("backward called before forward");
        grad_out
            .reshape(in_shape)
            .expect("flatten backward preserves element count")
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
    fn avg_pool_known_values() {
        let mut pool = AvgPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15., 16.,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avg_pool_gradient_check() {
        let mut rng = Rng::seed_from_u64(1);
        let mut pool = AvgPool2d::new(2, 2);
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);
        gradcheck::check_input_grad(&mut pool, &x, 1e-2);
    }

    #[test]
    fn global_avg_pool_means_channels() {
        let mut pool = GlobalAvgPool2d::new();
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 10., 10., 10., 10.], &[1, 2, 2, 2]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
    }

    #[test]
    fn global_avg_pool_gradient_check() {
        let mut rng = Rng::seed_from_u64(2);
        let mut pool = GlobalAvgPool2d::new();
        let x = Tensor::rand_uniform(&[2, 3, 3, 3], -1.0, 1.0, &mut rng);
        gradcheck::check_input_grad(&mut pool, &x, 1e-2);
    }

    #[test]
    fn flatten_round_trip() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = fl.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = fl.backward(&Tensor::zeros(&[2, 48]));
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }

    /// A training forward, an eval forward, then a backward.
    fn backward_after_eval(layer: &mut dyn Layer, in_shape: &[usize]) {
        let x = Tensor::zeros(in_shape);
        let out = layer.forward(&x, true);
        layer.forward(&x, false);
        layer.backward(&Tensor::zeros(out.shape()));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn avg_pool_eval_forward_drops_the_training_shape() {
        backward_after_eval(&mut AvgPool2d::new(2, 2), &[1, 2, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn global_avg_pool_eval_forward_drops_the_training_shape() {
        backward_after_eval(&mut GlobalAvgPool2d::new(), &[1, 2, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn flatten_eval_forward_drops_the_training_shape() {
        backward_after_eval(&mut Flatten::new(), &[1, 2, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn avg_pool_rejects_zero_kernel() {
        let _ = AvgPool2d::new(0, 1);
    }

    #[test]
    fn pools_have_no_params() {
        assert_eq!(AvgPool2d::new(2, 2).param_count(), 0);
        assert_eq!(GlobalAvgPool2d::new().param_count(), 0);
        assert_eq!(Flatten::new().param_count(), 0);
    }
}
