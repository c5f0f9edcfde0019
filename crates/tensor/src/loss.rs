//! Loss functions and their gradients.
//!
//! Every loss returns `(scalar_loss, gradient_w.r.t._its_input)` so the
//! training loops can feed the gradient straight into
//! [`Layer::backward`](crate::nn::Layer::backward). All losses average over
//! the batch dimension.
//!
//! The softmax-family losses ([`CrossEntropy`], [`DistillKl`],
//! [`distill_kl_ce`]) run the fused epilogue row kernels from
//! [`crate::kernels`] — one pass per row, no intermediate tensors. Their
//! specification is the composition of [`crate::ops::softmax`] /
//! [`crate::ops::log_softmax`] as separate whole-tensor passes, spelled out
//! beside `loss_tiers_are_bit_identical` in `tests/properties.rs`, which
//! holds each entry point to it bit for bit by the epilogue fusion contract
//! documented in [`crate::kernels`].

use crate::kernels::{softmax_kl_row, softmax_kl_xent_row, softmax_xent_row};
use crate::ops::{log_softmax, softmax};
use crate::Tensor;

/// Cross-entropy between logits and integer class labels
/// (softmax + negative log-likelihood).
///
/// Used for supervised local training on private data (Eq. 4 of the paper).
///
/// # Examples
///
/// ```
/// use fedpkd_tensor::loss::CrossEntropy;
/// use fedpkd_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0], &[1, 3])?;
/// let (loss, grad) = CrossEntropy::new().loss_and_grad(&logits, &[0]);
/// assert!(loss > 0.0);
/// assert_eq!(grad.shape(), &[1, 3]);
/// # Ok::<(), fedpkd_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropy;

impl CrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        Self
    }

    /// Computes the mean cross-entropy over the batch and its gradient with
    /// respect to the logits.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size or any label is
    /// out of range.
    pub fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let n = logits.rows();
        let k = logits.cols();
        assert_eq!(labels.len(), n, "one label per row required");
        // One pass per row produces both the softmax gradient seed and
        // the log-likelihood.
        let mut grad = Tensor::zeros(logits.shape());
        let mut loss = 0.0f32;
        for (r, &y) in labels.iter().enumerate() {
            assert!(y < k, "label {y} out of range for {k} classes");
            loss -= softmax_xent_row(logits.row(r), 1.0, y, grad.row_mut(r));
            grad.row_mut(r)[y] -= 1.0;
        }
        let inv_n = 1.0 / n.max(1) as f32;
        grad.scale_in_place(inv_n);
        (loss * inv_n, grad)
    }
}

/// Cross-entropy between logits and *soft* target distributions.
///
/// The target of each row is a probability vector rather than a hard label;
/// this is the `L_CE` of Eq. 11/15 when the pseudo-label comes from
/// aggregated soft knowledge.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftCrossEntropy;

impl SoftCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        Self
    }

    /// Computes the mean soft cross-entropy `−Σ t · log softmax(z)` and its
    /// gradient with respect to the logits.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn loss_and_grad(&self, logits: &Tensor, targets: &Tensor) -> (f32, Tensor) {
        assert_eq!(logits.shape(), targets.shape(), "shape mismatch");
        let n = logits.rows().max(1) as f32;
        let log_p = log_softmax(logits, 1.0);
        let loss = -log_p.mul(targets).expect("shapes checked above").sum() / n;
        let mut grad = softmax(logits, 1.0)
            .sub(targets)
            .expect("shapes checked above");
        grad.scale_in_place(1.0 / n);
        (loss, grad)
    }
}

/// Temperature-scaled KL-divergence distillation loss,
/// `T² · KL(teacher ‖ student)`.
///
/// `teacher` is a matrix of teacher *probabilities* (already softened if
/// desired); the student is given as raw logits. The classic `T²` factor
/// (Hinton et al.) keeps gradient magnitudes comparable across temperatures.
/// This is `L_KL` in Eqs. 11 and 15.
#[derive(Debug, Clone, Copy)]
pub struct DistillKl {
    temperature: f32,
}

impl DistillKl {
    /// Creates the loss with the given softmax temperature.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0`.
    pub fn new(temperature: f32) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        Self { temperature }
    }

    /// The configured temperature.
    pub fn temperature(&self) -> f32 {
        self.temperature
    }

    /// Computes the mean distillation loss over the batch and its gradient
    /// with respect to the student logits.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn loss_and_grad(&self, student_logits: &Tensor, teacher_probs: &Tensor) -> (f32, Tensor) {
        assert_eq!(
            student_logits.shape(),
            teacher_probs.shape(),
            "shape mismatch"
        );
        let t = self.temperature;
        let n = student_logits.rows().max(1) as f32;
        // One pass per row produces the student probabilities and the
        // row's KL contribution (terms with p = 0 contribute 0); per-row
        // sub-sums are folded in row order.
        let mut grad = Tensor::zeros(student_logits.shape());
        let mut loss = 0.0f32;
        for r in 0..teacher_probs.rows() {
            loss += softmax_kl_row(
                student_logits.row(r),
                teacher_probs.row(r),
                t,
                grad.row_mut(r),
            );
        }
        loss = loss * t * t / n;
        // d/dz [T²·KL] = T · (q − p), averaged over the batch.
        for (g, &p) in grad.as_mut_slice().iter_mut().zip(teacher_probs.as_slice()) {
            *g -= p;
        }
        grad.scale_in_place(t / n);
        (loss, grad)
    }
}

/// Computes the temperature-`T` KL distillation term and the temperature-1
/// hard-label cross-entropy term **on the same logits** in one call — the
/// shape of Eqs. 11 and 15, where a student batch feeds both losses.
///
/// Returns `((kl_loss, kl_grad), (ce_loss, ce_grad))`, each exactly what
/// [`DistillKl::loss_and_grad`] and [`CrossEntropy::loss_and_grad`] return
/// for the same inputs — bit for bit. The two softmax families are fused
/// through [`crate::kernels::softmax_kl_xent_row`], sharing the row-max
/// reduction and skipping all four intermediate softmax/log-softmax
/// tensors.
///
/// # Panics
///
/// Panics if shapes disagree, `labels.len()` differs from the batch size,
/// or any label is out of range.
pub fn distill_kl_ce(
    kl: &DistillKl,
    logits: &Tensor,
    teacher_probs: &Tensor,
    labels: &[usize],
) -> ((f32, Tensor), (f32, Tensor)) {
    assert_eq!(logits.shape(), teacher_probs.shape(), "shape mismatch");
    let n = logits.rows();
    let k = logits.cols();
    assert_eq!(labels.len(), n, "one label per row required");
    let t = kl.temperature();
    let n_f = n.max(1) as f32;
    let mut kl_grad = Tensor::zeros(logits.shape());
    let mut ce_grad = Tensor::zeros(logits.shape());
    let mut kl_loss = 0.0f32;
    let mut ce_loss = 0.0f32;
    for (r, &y) in labels.iter().enumerate() {
        assert!(y < k, "label {y} out of range for {k} classes");
        let (row_kl, log_p_label) = softmax_kl_xent_row(
            logits.row(r),
            teacher_probs.row(r),
            t,
            y,
            kl_grad.row_mut(r),
            ce_grad.row_mut(r),
        );
        kl_loss += row_kl;
        ce_loss -= log_p_label;
        ce_grad.row_mut(r)[y] -= 1.0;
    }
    kl_loss = kl_loss * t * t / n_f;
    for (g, &p) in kl_grad
        .as_mut_slice()
        .iter_mut()
        .zip(teacher_probs.as_slice())
    {
        *g -= p;
    }
    kl_grad.scale_in_place(t / n_f);
    let inv_n = 1.0 / n.max(1) as f32;
    ce_grad.scale_in_place(inv_n);
    ((kl_loss, kl_grad), (ce_loss * inv_n, ce_grad))
}

/// Mean-squared error, averaged over every element.
///
/// This is the prototype-regularization loss `L_MSE` of Eqs. 12 and 16: it
/// pulls each sample's feature embedding toward the global prototype of its
/// (pseudo-)label.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mse;

impl Mse {
    /// Creates the loss.
    pub fn new() -> Self {
        Self
    }

    /// Computes the mean squared error and its gradient with respect to
    /// `prediction`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn loss_and_grad(&self, prediction: &Tensor, target: &Tensor) -> (f32, Tensor) {
        assert_eq!(prediction.shape(), target.shape(), "shape mismatch");
        let n = prediction.len().max(1) as f32;
        let diff = prediction.sub(target).expect("shapes checked above");
        let loss = diff.as_slice().iter().map(|d| d * d).sum::<f32>() / n;
        let grad = diff.scale(2.0 / n);
        (loss, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    /// Finite-difference check of a loss gradient.
    fn check_grad(loss_fn: impl Fn(&Tensor) -> (f32, Tensor), logits: &Tensor, tol: f32) {
        let (_, analytic) = loss_fn(logits);
        let eps = 1e-2f32;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = logits.clone();
            minus.as_mut_slice()[i] -= eps;
            let numeric = (loss_fn(&plus).0 - loss_fn(&minus).0) / (2.0 * eps);
            let got = analytic.as_slice()[i];
            assert!(
                (numeric - got).abs() < tol * (1.0 + numeric.abs()),
                "grad {i}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_has_low_loss() {
        let good = t(&[10.0, -10.0], &[1, 2]);
        let bad = t(&[-10.0, 10.0], &[1, 2]);
        let ce = CrossEntropy::new();
        assert!(ce.loss_and_grad(&good, &[0]).0 < 1e-3);
        assert!(ce.loss_and_grad(&bad, &[0]).0 > 5.0);
    }

    #[test]
    fn cross_entropy_uniform_logits_is_ln_k() {
        let ce = CrossEntropy::new();
        let logits = Tensor::zeros(&[4, 10]);
        let loss = ce.loss_and_grad(&logits, &[0, 3, 5, 9]).0;
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_check() {
        let logits = t(&[0.5, -1.0, 2.0, 1.0, 0.0, -0.5], &[2, 3]);
        let labels = vec![2usize, 0];
        check_grad(
            |z| CrossEntropy::new().loss_and_grad(z, &labels),
            &logits,
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let logits = t(&[0.5, -1.0, 2.0], &[1, 3]);
        let (_, g) = CrossEntropy::new().loss_and_grad(&logits, &[1]);
        assert!(g.row(0).iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "label 3 out of range")]
    fn cross_entropy_rejects_bad_label() {
        let logits = Tensor::zeros(&[1, 3]);
        CrossEntropy::new().loss_and_grad(&logits, &[3]);
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn cross_entropy_rejects_label_count_mismatch() {
        let logits = Tensor::zeros(&[2, 3]);
        CrossEntropy::new().loss_and_grad(&logits, &[0]);
    }

    #[test]
    fn soft_cross_entropy_matches_hard_on_onehot() {
        let logits = t(&[0.5, -1.0, 2.0], &[1, 3]);
        let (hard, hard_g) = CrossEntropy::new().loss_and_grad(&logits, &[2]);
        let onehot = t(&[0.0, 0.0, 1.0], &[1, 3]);
        let (soft, soft_g) = SoftCrossEntropy::new().loss_and_grad(&logits, &onehot);
        assert!((hard - soft).abs() < 1e-6);
        for (a, b) in hard_g.as_slice().iter().zip(soft_g.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn soft_cross_entropy_gradient_check() {
        let logits = t(&[0.5, -1.0, 2.0, 0.0, 0.3, -0.7], &[2, 3]);
        let targets = t(&[0.2, 0.5, 0.3, 0.6, 0.1, 0.3], &[2, 3]);
        check_grad(
            |z| SoftCrossEntropy::new().loss_and_grad(z, &targets),
            &logits,
            1e-2,
        );
    }

    #[test]
    fn distill_kl_is_zero_when_student_matches_teacher() {
        let logits = t(&[1.0, 2.0, 3.0], &[1, 3]);
        let teacher = softmax(&logits, 2.0);
        let (loss, grad) = DistillKl::new(2.0).loss_and_grad(&logits, &teacher);
        assert!(loss.abs() < 1e-6, "loss {loss}");
        assert!(grad.as_slice().iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn distill_kl_is_nonnegative() {
        let student = t(&[3.0, 0.0, -1.0], &[1, 3]);
        let teacher = t(&[0.1, 0.8, 0.1], &[1, 3]);
        let (loss, _) = DistillKl::new(1.0).loss_and_grad(&student, &teacher);
        assert!(loss > 0.0);
    }

    #[test]
    fn distill_kl_gradient_check() {
        let student = t(&[0.5, -1.0, 2.0, 0.1, 0.2, 0.3], &[2, 3]);
        let teacher = t(&[0.7, 0.2, 0.1, 0.3, 0.3, 0.4], &[2, 3]);
        for temp in [1.0, 3.0] {
            check_grad(
                |z| DistillKl::new(temp).loss_and_grad(z, &teacher),
                &student,
                1e-2,
            );
        }
    }

    #[test]
    fn distill_kl_handles_zero_teacher_probabilities() {
        let student = t(&[1.0, 0.0], &[1, 2]);
        let teacher = t(&[1.0, 0.0], &[1, 2]);
        let (loss, grad) = DistillKl::new(1.0).loss_and_grad(&student, &teacher);
        assert!(loss.is_finite());
        assert!(grad.all_finite());
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn distill_kl_rejects_zero_temperature() {
        let _ = DistillKl::new(0.0);
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let pred = t(&[1.0, 2.0], &[1, 2]);
        let target = t(&[0.0, 0.0], &[1, 2]);
        let (loss, grad) = Mse::new().loss_and_grad(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert_eq!(grad.as_slice(), &[1.0, 2.0]); // 2·diff / 2
    }

    #[test]
    fn mse_gradient_check() {
        let pred = t(&[0.5, -1.0, 2.0, 0.3], &[2, 2]);
        let target = t(&[0.0, 1.0, -1.0, 0.3], &[2, 2]);
        check_grad(|p| Mse::new().loss_and_grad(p, &target), &pred, 1e-2);
    }

    #[test]
    fn mse_zero_when_equal() {
        let x = t(&[1.0, 2.0, 3.0], &[3]);
        let (loss, grad) = Mse::new().loss_and_grad(&x, &x);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }
}
