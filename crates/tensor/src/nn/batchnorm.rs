//! Batch normalization for rank-2 activations.

use super::{Layer, Param, Pass};
use crate::Tensor;

/// Batch normalization over the feature dimension of `[batch, features]`
/// activations.
///
/// Training mode normalizes with batch statistics and maintains running
/// estimates; evaluation mode normalizes with the running estimates, so a
/// trained model is deterministic at inference time. A [`Pass::Frozen`]
/// forward normalizes as training does and leaves the running estimates
/// alone.
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    features: usize,
    // Caches for backward.
    cached_xhat: Option<Tensor>,
    cached_std_inv: Option<Vec<f32>>,
    cached_batch_stats: bool,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `features` channels with the standard
    /// momentum (0.1) and epsilon (1e-5).
    ///
    /// # Panics
    ///
    /// Panics if `features == 0`.
    pub fn new(features: usize) -> Self {
        assert!(features > 0, "zero-feature BatchNorm1d");
        Self {
            gamma: Param::new(Tensor::full(&[features], 1.0)),
            beta: Param::new(Tensor::zeros(&[features])),
            running_mean: vec![0.0; features],
            running_var: vec![1.0; features],
            momentum: 0.1,
            eps: 1e-5,
            features,
            cached_xhat: None,
            cached_std_inv: None,
            cached_batch_stats: false,
        }
    }

    /// Number of normalized features.
    pub fn features(&self) -> usize {
        self.features
    }
}

impl std::fmt::Debug for BatchNorm1d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchNorm1d")
            .field("features", &self.features)
            .finish()
    }
}

impl Layer for BatchNorm1d {
    fn forward_pass(&mut self, input: &Tensor, pass: Pass) -> Tensor {
        let n = input.rows();
        let d = self.features;
        debug_assert_eq!(input.cols(), d, "feature width mismatch");
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();

        let use_batch_stats = pass != Pass::Eval && n > 1;
        let (mean, var) = if use_batch_stats {
            let mut mean = vec![0.0f32; d];
            for r in 0..n {
                for (m, &v) in mean.iter_mut().zip(input.row(r)) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= n as f32;
            }
            let mut var = vec![0.0f32; d];
            for r in 0..n {
                for ((vv, &x), &m) in var.iter_mut().zip(input.row(r)).zip(&mean) {
                    *vv += (x - m) * (x - m);
                }
            }
            for v in &mut var {
                *v /= n as f32;
            }
            // Update running statistics, unless the pass is frozen.
            if pass == Pass::Train {
                for ((rm, rv), (&m, &v)) in self
                    .running_mean
                    .iter_mut()
                    .zip(self.running_var.iter_mut())
                    .zip(mean.iter().zip(&var))
                {
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * m;
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * v;
                }
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let std_inv: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut out = Tensor::zeros(&[n, d]);
        // Zip-driven row sweeps (no per-element bounds checks); the
        // per-element arithmetic is unchanged, so outputs are bit-identical
        // to the indexed loops.
        if pass == Pass::Eval {
            // Eval keeps nothing for a backward: `xhat` lives only in a
            // register, and the caches of an earlier training batch go.
            for (xr, or) in input
                .as_slice()
                .chunks_exact(d)
                .zip(out.as_mut_slice().chunks_exact_mut(d))
            {
                for (((((o, &x), &m), &si), &g), &b) in or
                    .iter_mut()
                    .zip(xr)
                    .zip(&mean)
                    .zip(&std_inv)
                    .zip(gamma)
                    .zip(beta)
                {
                    let h = (x - m) * si;
                    *o = g * h + b;
                }
            }
            self.cached_xhat = None;
            self.cached_std_inv = None;
            return out;
        }
        let mut xhat = Tensor::zeros(&[n, d]);
        for (xr, hr) in input
            .as_slice()
            .chunks_exact(d)
            .zip(xhat.as_mut_slice().chunks_exact_mut(d))
        {
            for (((h, &x), &m), &si) in hr.iter_mut().zip(xr).zip(&mean).zip(&std_inv) {
                *h = (x - m) * si;
            }
        }
        for (hr, or) in xhat
            .as_slice()
            .chunks_exact(d)
            .zip(out.as_mut_slice().chunks_exact_mut(d))
        {
            for (((o, &h), &g), &b) in or.iter_mut().zip(hr).zip(gamma).zip(beta) {
                *o = g * h + b;
            }
        }
        self.cached_xhat = Some(xhat);
        self.cached_std_inv = Some(std_inv);
        self.cached_batch_stats = use_batch_stats;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self
            .cached_xhat
            .as_ref()
            .expect("backward called before forward(train=true)");
        let std_inv = self
            .cached_std_inv
            .as_ref()
            .expect("backward called before forward(train=true)");
        let n = grad_out.rows();
        let d = self.features;

        let mut dgamma = Tensor::zeros(&[d]);
        let mut dbeta = Tensor::zeros(&[d]);
        for (g, h) in grad_out
            .as_slice()
            .chunks_exact(d)
            .zip(xhat.as_slice().chunks_exact(d))
        {
            for ((dg, db), (&g, &h)) in dgamma
                .as_mut_slice()
                .iter_mut()
                .zip(dbeta.as_mut_slice())
                .zip(g.iter().zip(h))
            {
                *dg += g * h;
                *db += g;
            }
        }
        self.gamma
            .grad_mut()
            .axpy(1.0, &dgamma)
            .expect("accumulate dgamma");
        self.beta
            .grad_mut()
            .axpy(1.0, &dbeta)
            .expect("accumulate dbeta");
        let gamma = self.gamma.value.as_slice();

        // When the forward pass normalized with running statistics (a
        // single-row training batch), mean/var do not depend on the input
        // and the chain rule reduces to dx = dxhat · std_inv.
        if !self.cached_batch_stats {
            let mut dx = Tensor::zeros(&[n, d]);
            for (g, o) in grad_out
                .as_slice()
                .chunks_exact(d)
                .zip(dx.as_mut_slice().chunks_exact_mut(d))
            {
                for (((o, &g), &ga), &si) in o.iter_mut().zip(g).zip(gamma).zip(std_inv) {
                    *o = g * ga * si;
                }
            }
            return dx;
        }

        // Input gradient:
        // dx = gamma·std_inv/N · (N·dxhat − Σdxhat − xhat·Σ(dxhat·xhat))
        // where dxhat = grad_out · gamma.
        let mut sum_dxhat = vec![0.0f32; d];
        let mut sum_dxhat_xhat = vec![0.0f32; d];
        for (g, h) in grad_out
            .as_slice()
            .chunks_exact(d)
            .zip(xhat.as_slice().chunks_exact(d))
        {
            for (((sd, sdh), (&g, &h)), &ga) in sum_dxhat
                .iter_mut()
                .zip(sum_dxhat_xhat.iter_mut())
                .zip(g.iter().zip(h))
                .zip(gamma)
            {
                let dxh = g * ga;
                *sd += dxh;
                *sdh += dxh * h;
            }
        }
        let mut dx = Tensor::zeros(&[n, d]);
        for ((g, h), o) in grad_out
            .as_slice()
            .chunks_exact(d)
            .zip(xhat.as_slice().chunks_exact(d))
            .zip(dx.as_mut_slice().chunks_exact_mut(d))
        {
            for ((((o, (&g, &h)), &ga), &si), (&sd, &sdh)) in o
                .iter_mut()
                .zip(g.iter().zip(h))
                .zip(gamma)
                .zip(std_inv)
                .zip(sum_dxhat.iter().zip(&sum_dxhat_xhat))
            {
                let dxh = g * ga;
                *o = si / n as f32 * (n as f32 * dxh - sd - h * sdh);
            }
        }
        dx
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn visit_buffers(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.running_mean);
        f(&self.running_var);
    }

    fn visit_buffers_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::gradcheck;
    use fedpkd_rng::Rng;

    #[test]
    fn normalizes_batch_statistics() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 20.0, 5.0, 30.0], &[3, 2]).unwrap();
        let y = bn.forward(&x, true);
        // Each output column should have ~zero mean and ~unit variance.
        for j in 0..2 {
            let col: Vec<f32> = (0..3).map(|r| y.row(r)[j]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 3.0;
            let var: f32 = col.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let mut rng = Rng::seed_from_u64(1);
        // Feed many batches with mean 4, var 1 to converge the running stats.
        for _ in 0..200 {
            let x = Tensor::randn(&[32, 1], 1.0, &mut rng).map(|v| v + 4.0);
            bn.forward(&x, true);
        }
        // In eval mode, an input equal to the running mean maps near beta=0.
        let y = bn.forward(&Tensor::full(&[1, 1], 4.0), false);
        assert!(y.as_slice()[0].abs() < 0.2, "got {}", y.as_slice()[0]);
    }

    #[test]
    fn eval_is_deterministic() {
        let mut bn = BatchNorm1d::new(3);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y1 = bn.forward(&x, false);
        let y2 = bn.forward(&x, false);
        assert_eq!(y1, y2);
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng::seed_from_u64(2);
        let mut bn = BatchNorm1d::new(3);
        let x = Tensor::rand_uniform(&[6, 3], -2.0, 2.0, &mut rng);
        gradcheck::check_input_grad(&mut bn, &x, 2e-2);
        gradcheck::check_param_grad(&mut bn, &x, 2e-2);
    }

    #[test]
    fn param_count_is_two_per_feature() {
        assert_eq!(BatchNorm1d::new(8).param_count(), 16);
    }

    #[test]
    #[should_panic(expected = "zero-feature")]
    fn rejects_zero_features() {
        let _ = BatchNorm1d::new(0);
    }

    #[test]
    fn single_row_training_batch_falls_back_to_running_stats() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        // Must not divide by zero / produce NaN.
        let y = bn.forward(&x, true);
        assert!(y.all_finite());
    }
}
