//! 2-D convolution via im2col.

use super::{Layer, Param, ParamHook, Pass};
use crate::Tensor;
use fedpkd_rng::Rng;

/// A 2-D convolution over `[n, c, h, w]` tensors.
///
/// Implemented with the classic im2col lowering: each input window is
/// unrolled into a column, turning the convolution into a matrix product
/// with the `[out_channels, in_channels·kh·kw]` weight matrix.
///
/// # Examples
///
/// ```
/// use fedpkd_rng::Rng;
/// use fedpkd_tensor::nn::{Conv2d, Layer};
/// use fedpkd_tensor::Tensor;
///
/// let mut rng = Rng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng); // 3×3 kernel, same-size output
/// let x = Tensor::zeros(&[2, 3, 8, 8]);
/// let y = conv.forward(&x, true);
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
pub struct Conv2d {
    weight: Param, // [oc, ic*kh*kw]
    bias: Param,   // [oc]
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_in_shape: Option<Vec<usize>>,
    cached_cols: Option<Vec<Tensor>>, // one [ic*k*k, oh*ow] matrix per sample
}

impl Conv2d {
    /// Creates a square-kernel convolution.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_channels`, `out_channels`, `kernel`, or `stride`
    /// is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "Conv2d dimensions must be positive"
        );
        let fan_in = in_channels * kernel * kernel;
        let bound = (6.0 / fan_in as f32).sqrt();
        let weight = Tensor::rand_uniform(&[out_channels, fan_in], -bound, bound, rng);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_in_shape: None,
            cached_cols: None,
        }
    }

    /// Output spatial size for an input of spatial size `hw`.
    pub fn output_size(&self, hw: usize) -> usize {
        (hw + 2 * self.padding - self.kernel) / self.stride + 1
    }

    fn im2col(&self, x: &[f32], h: usize, w: usize, oh: usize, ow: usize) -> Tensor {
        let (c, k, s, p) = (self.in_channels, self.kernel, self.stride, self.padding);
        let mut col = Tensor::zeros(&[c * k * k, oh * ow]);
        let cols = col.as_mut_slice();
        let out_w = oh * ow;
        for ci in 0..c {
            let plane = &x[ci * h * w..(ci + 1) * h * w];
            for kh in 0..k {
                for kw in 0..k {
                    let row_base = (ci * k * k + kh * k + kw) * out_w;
                    for oy in 0..oh {
                        let iy = (oy * s + kh) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * s + kw) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            cols[row_base + oy * ow + ox] = plane[iy * w + ix as usize];
                        }
                    }
                }
            }
        }
        col
    }

    fn col2im(&self, dcol: &Tensor, h: usize, w: usize, oh: usize, ow: usize) -> Vec<f32> {
        let (c, k, s, p) = (self.in_channels, self.kernel, self.stride, self.padding);
        let mut dx = vec![0.0f32; c * h * w];
        let dc = dcol.as_slice();
        let out_w = oh * ow;
        for ci in 0..c {
            for kh in 0..k {
                for kw in 0..k {
                    let row_base = (ci * k * k + kh * k + kw) * out_w;
                    for oy in 0..oh {
                        let iy = (oy * s + kh) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * s + kw) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dx[ci * h * w + iy * w + ix as usize] += dc[row_base + oy * ow + ox];
                        }
                    }
                }
            }
        }
        dx
    }
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv2d")
            .field("in", &self.in_channels)
            .field("out", &self.out_channels)
            .field("kernel", &self.kernel)
            .field("stride", &self.stride)
            .field("padding", &self.padding)
            .finish()
    }
}

impl Layer for Conv2d {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "Conv2d expects [n, c, h, w] input");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.in_channels, "channel mismatch");
        let oh = self.output_size(h);
        let ow = self.output_size(w);
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let mut cols = Vec::with_capacity(n);
        for s in 0..n {
            let col = self.im2col(input.row(s), h, w, oh, ow);
            let prod = self.weight.value.matmul(&col).expect("conv matmul");
            let bias = self.bias.value.as_slice();
            let dst = out.row_mut(s);
            for (oc, &b) in bias.iter().enumerate() {
                let src = prod.row(oc);
                let base = oc * oh * ow;
                for (i, &v) in src.iter().enumerate() {
                    dst[base + i] = v + b;
                }
            }
            cols.push(col);
        }
        // A frozen pass keeps what a training one does: the backward forms
        // `dW` and `dx` in one per-sample loop over the same columns. Of the
        // input it reads only the shape.
        self.cached_in_shape = (pass != Pass::Eval).then(|| shape.to_vec());
        self.cached_cols = (pass != Pass::Eval).then_some(cols);
        out
    }

    /// Accumulates `dW` and `db` and computes `dx` in one per-sample loop,
    /// then hands W and b to `hook`, which may change them.
    fn backward_with(
        &mut self,
        grad_out: &Tensor,
        first_slot: usize,
        hook: &mut dyn ParamHook,
    ) -> Tensor {
        let in_shape = self
            .cached_in_shape
            .as_deref()
            .expect("backward called before forward");
        let cols = self
            .cached_cols
            .as_ref()
            .expect("backward called before forward");
        let (n, _c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let oh = self.output_size(h);
        let ow = self.output_size(w);
        let ckk = self.in_channels * self.kernel * self.kernel;

        let mut dx = Tensor::zeros(in_shape);
        debug_assert_eq!(cols.len(), n);
        // The weight does not change during the pass: one transpose serves
        // every sample.
        let w_t = self.weight.value.transpose().expect("weight transpose");
        for (s, col) in cols.iter().enumerate() {
            let g = Tensor::from_vec(grad_out.row(s).to_vec(), &[self.out_channels, oh * ow])
                .expect("grad reshape");
            // dW += g · colᵀ
            let col_t = col.transpose().expect("col transpose");
            let dw = g.matmul(&col_t).expect("dW matmul");
            self.weight
                .grad_mut()
                .axpy(1.0, &dw)
                .expect("dW accumulate");
            // db += row sums of g (`b + 1.0·s` is `b + s` bit for bit).
            for (oc, db) in self.bias.grad_mut().as_mut_slice().iter_mut().enumerate() {
                *db += g.row(oc).iter().sum::<f32>();
            }
            // dcol = Wᵀ · g, then scatter back to image space.
            let dcol = w_t.matmul(&g).expect("dcol matmul");
            debug_assert_eq!(dcol.shape(), &[ckk, oh * ow]);
            let dxs = self.col2im(&dcol, h, w, oh, ow);
            dx.row_mut(s).copy_from_slice(&dxs);
        }
        hook.param(first_slot, &mut self.weight);
        hook.param(first_slot + 1, &mut self.bias);
        dx
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
    fn output_shape_same_padding() {
        let mut rng = Rng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[1, 2, 5, 5]);
        assert_eq!(conv.forward(&x, true).shape(), &[1, 4, 5, 5]);
    }

    #[test]
    fn output_shape_stride_two() {
        let mut rng = Rng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert_eq!(conv.forward(&x, true).shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = Rng::seed_from_u64(2);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.visit_params_mut(&mut |p| {
            let fill = if p.value.len() == 1 { 1.0 } else { 0.0 };
            for v in p.value.as_mut_slice() {
                *v = fill;
            }
        });
        // weight [1,1] = 1, bias [1] = 1 → fix bias back to 0.
        conv.visit_params_mut(&mut |p| {
            if p.value.shape() == [1usize] {
                p.value.as_mut_slice()[0] = 0.0;
            }
        });
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut rng = Rng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng);
        // All-ones kernel, zero bias → each output is the window sum.
        conv.visit_params_mut(&mut |p| {
            let fill = if p.value.len() == 9 { 1.0 } else { 0.0 };
            for v in p.value.as_mut_slice() {
                *v = fill;
            }
        });
        let x = Tensor::full(&[1, 1, 4, 4], 1.0);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert!(y.as_slice().iter().all(|&v| (v - 9.0).abs() < 1e-6));
    }

    #[test]
    fn gradient_check_small() {
        let mut rng = Rng::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);
        gradcheck::check_input_grad(&mut conv, &x, 2e-2);
        gradcheck::check_param_grad(&mut conv, &x, 2e-2);
    }

    #[test]
    fn gradient_check_strided() {
        let mut rng = Rng::seed_from_u64(5);
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng);
        let x = Tensor::rand_uniform(&[1, 1, 5, 5], -1.0, 1.0, &mut rng);
        gradcheck::check_input_grad(&mut conv, &x, 2e-2);
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::seed_from_u64(6);
        let conv = Conv2d::new(3, 16, 3, 1, 1, &mut rng);
        assert_eq!(conv.param_count(), 16 * 3 * 9 + 16);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn rejects_zero_kernel() {
        let mut rng = Rng::seed_from_u64(7);
        let _ = Conv2d::new(1, 1, 0, 1, 0, &mut rng);
    }
}
