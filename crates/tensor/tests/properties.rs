//! Property-based tests for tensor algebra, softmax, losses, the fused
//! loss epilogues, the execution-plan scheduler, and the parameter-vector
//! codec.

use fedpkd_rng::Rng;
use fedpkd_tensor::kernels::{softmax_kl_row, softmax_kl_xent_row, softmax_xent_row};
use fedpkd_tensor::loss::{distill_kl_ce, CrossEntropy, DistillKl, Mse};
use fedpkd_tensor::models::{DepthTier, ModelSpec};
use fedpkd_tensor::ops::{log_softmax, row_entropy, sharpen, softmax};
use fedpkd_tensor::parallel::{dispatch_stealing, dispatch_stealing_scheduled};
use fedpkd_tensor::plan::grouped_schedule;
use fedpkd_tensor::serialize::{load_param_vector, param_vector};
use fedpkd_tensor::Tensor;
use proptest::prelude::*;

/// Strategy: an arbitrary small classifier architecture.
fn model_spec() -> impl Strategy<Value = ModelSpec> {
    (0usize..2, 1usize..=8, 2usize..=6).prop_map(|(tier, input_dim, num_classes)| {
        ModelSpec::ResMlp {
            input_dim,
            num_classes,
            tier: [DepthTier::T11, DepthTier::T20][tier],
        }
    })
}

/// Strategy: a small rank-2 tensor with finite values.
fn matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]).unwrap())
    })
}

/// Reference for [`CrossEntropy::loss_and_grad`]: `softmax` and
/// `log_softmax` composed as separate whole-tensor passes.
fn composed_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let log_p = log_softmax(logits, 1.0);
    let mut loss = 0.0f32;
    let mut grad = softmax(logits, 1.0);
    for (r, &y) in labels.iter().enumerate() {
        loss -= log_p.row(r)[y];
        grad.row_mut(r)[y] -= 1.0;
    }
    let inv_n = 1.0 / logits.rows().max(1) as f32;
    grad.scale_in_place(inv_n);
    (loss * inv_n, grad)
}

/// Reference for [`DistillKl::loss_and_grad`] at temperature `t`, composed
/// from whole-tensor `softmax` / `log_softmax` passes.
fn composed_distill_kl(t: f32, student_logits: &Tensor, teacher_probs: &Tensor) -> (f32, Tensor) {
    let n = student_logits.rows().max(1) as f32;
    let log_q = log_softmax(student_logits, t);
    let q = softmax(student_logits, t);

    // KL(p ‖ q) = Σ p (ln p − ln q); terms with p = 0 contribute 0.
    // Accumulated as per-row sub-sums folded in row order — the same
    // association the fused kernel uses, so the two match bit for bit.
    let mut loss = 0.0f32;
    for r in 0..teacher_probs.rows() {
        let p_row = teacher_probs.row(r);
        let lq_row = log_q.row(r);
        let mut row_loss = 0.0f32;
        for (j, &p) in p_row.iter().enumerate() {
            if p > 0.0 {
                row_loss += p * (p.ln() - lq_row[j]);
            }
        }
        loss += row_loss;
    }
    loss = loss * t * t / n;

    // d/dz [T²·KL] = T · (q − p), averaged over the batch.
    let mut grad = q.sub(teacher_probs).expect("same shape");
    grad.scale_in_place(t / n);
    (loss, grad)
}

/// Strategy: a kernel-stressing dimension — 1, small, and the register-tile
/// boundaries (4 rows × 16 columns) ± 1.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(3),
        Just(4),
        Just(5),
        Just(15),
        Just(16),
        Just(17),
        Just(31),
        Just(33),
        Just(63),
        Just(65),
    ]
}

/// Strategy: an `[r, c]` tensor where roughly half the entries are exact
/// zeros (exercising the kernels' zero-skip path).
fn sparse(r: usize, c: usize) -> impl Strategy<Value = Tensor> {
    (
        prop::collection::vec(-4.0f32..4.0, r * c),
        prop::collection::vec(any::<bool>(), r * c),
    )
        .prop_map(move |(data, mask)| {
            let vals: Vec<f32> = data
                .iter()
                .zip(&mask)
                .map(|(&v, &z)| if z { 0.0 } else { v })
                .collect();
            Tensor::from_vec(vals, &[r, c]).unwrap()
        })
}

/// Strategy: a compatible `(A[m,k], B[k,n])` pair for `A · B`.
fn matmul_case() -> impl Strategy<Value = (Tensor, Tensor)> {
    (dim(), dim(), dim()).prop_flat_map(|(m, k, n)| (sparse(m, k), sparse(k, n)))
}

/// Strategy: a compatible `(A[m,k], Bᵀ[n,k])` pair for `A · Bᵀ`.
fn transposed_case() -> impl Strategy<Value = (Tensor, Tensor)> {
    (dim(), dim(), dim()).prop_flat_map(|(m, k, n)| (sparse(m, k), sparse(n, k)))
}

/// Strategy: a compatible `(A[r,m], B[r,n])` pair for `Aᵀ · B`.
fn tr_case() -> impl Strategy<Value = (Tensor, Tensor)> {
    (dim(), dim(), dim()).prop_flat_map(|(r, m, n)| (sparse(r, m), sparse(r, n)))
}

proptest! {
    /// Addition is commutative and subtraction is its inverse.
    #[test]
    fn add_commutes_and_sub_inverts(t in matrix(6, 6)) {
        let u = t.map(|x| x * 0.5 + 1.0);
        let ab = t.add(&u).unwrap();
        let ba = u.add(&t).unwrap();
        prop_assert_eq!(ab.clone(), ba);
        let back = ab.sub(&u).unwrap();
        for (x, y) in back.as_slice().iter().zip(t.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Transposing twice is the identity.
    #[test]
    fn transpose_is_involution(t in matrix(8, 8)) {
        prop_assert_eq!(t.transpose().unwrap().transpose().unwrap(), t);
    }

    /// (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn matmul_transpose_identity(a in matrix(5, 4), b_data in prop::collection::vec(-5.0f32..5.0, 4 * 3)) {
        let a = a.reshape(&[a.rows(), a.cols()]).unwrap();
        prop_assume!(a.cols() == 4);
        let b = Tensor::from_vec(b_data, &[4, 3]).unwrap();
        let left = a.matmul(&b).unwrap().transpose().unwrap();
        let right = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Softmax rows are probability distributions and preserve the argmax.
    #[test]
    fn softmax_is_a_distribution(t in matrix(6, 8), temp in 0.2f32..5.0) {
        let p = softmax(&t, temp);
        prop_assert!(p.all_finite());
        for r in 0..p.rows() {
            let total: f32 = p.row(r).iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
        prop_assert_eq!(p.argmax_rows(), t.argmax_rows());
    }

    /// log-softmax equals the log of softmax.
    #[test]
    fn log_softmax_consistency(t in matrix(4, 6), temp in 0.5f32..3.0) {
        let a = log_softmax(&t, temp);
        let b = softmax(&t, temp);
        for (lx, x) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((lx.exp() - x).abs() < 1e-4);
        }
    }

    /// Entropy is non-negative and bounded by ln(k) for probability rows.
    #[test]
    fn entropy_bounds(t in matrix(5, 7)) {
        let p = softmax(&t, 1.0);
        let k = p.cols() as f32;
        for h in row_entropy(&p) {
            prop_assert!(h >= -1e-6);
            prop_assert!(h <= k.ln() + 1e-4);
        }
    }

    /// Sharpening with T < 1 never increases a row's entropy.
    #[test]
    fn sharpening_reduces_entropy(t in matrix(5, 6), temp in 0.1f32..1.0) {
        let p = softmax(&t, 1.0);
        let s = sharpen(&p, temp);
        let before = row_entropy(&p);
        let after = row_entropy(&s);
        for (&b, &a) in before.iter().zip(&after) {
            prop_assert!(a <= b + 1e-5, "entropy rose: {b} → {a}");
        }
    }

    /// Cross-entropy is non-negative and at least the log-loss bound.
    #[test]
    fn cross_entropy_nonnegative(t in matrix(5, 6), label_seed in any::<u64>()) {
        let labels: Vec<usize> = (0..t.rows())
            .map(|r| ((label_seed as usize).wrapping_add(r * 7)) % t.cols())
            .collect();
        let (loss, grad) = CrossEntropy::new().loss_and_grad(&t, &labels);
        prop_assert!(loss >= 0.0);
        prop_assert!(grad.all_finite());
        // Gradient rows sum to ~0 (softmax minus one-hot).
        for r in 0..grad.rows() {
            prop_assert!(grad.row(r).iter().sum::<f32>().abs() < 1e-4);
        }
    }

    /// KL distillation is non-negative and zero iff student matches teacher.
    #[test]
    fn kl_nonnegative(student in matrix(4, 5), temp in 0.5f32..4.0) {
        let teacher = softmax(&student.map(|x| x + 0.5), temp);
        let (loss, _) = DistillKl::new(temp).loss_and_grad(&student, &teacher);
        prop_assert!(loss >= -1e-5, "KL must be non-negative, got {loss}");
        let self_teacher = softmax(&student, temp);
        let (self_loss, _) = DistillKl::new(temp).loss_and_grad(&student, &self_teacher);
        prop_assert!(self_loss.abs() < 1e-4);
    }

    /// MSE is symmetric, non-negative, and zero only at equality.
    #[test]
    fn mse_axioms(a in matrix(4, 4)) {
        let b = a.map(|x| x + 0.25);
        let (ab, _) = Mse::new().loss_and_grad(&a, &b);
        let (ba, _) = Mse::new().loss_and_grad(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-5);
        prop_assert!(ab > 0.0);
        let (self_loss, _) = Mse::new().loss_and_grad(&a, &a);
        prop_assert_eq!(self_loss, 0.0);
    }

    /// Saving a model's parameters and loading them into a fresh model of
    /// the same architecture reproduces them bit-for-bit.
    #[test]
    fn param_vector_round_trips(spec in model_spec(), seed in any::<u64>(), reseed in any::<u64>()) {
        let m = spec.build(&mut Rng::seed_from_u64(seed));
        let saved = param_vector(&m);
        // A differently initialized model with the same architecture.
        let mut other = spec.build(&mut Rng::seed_from_u64(reseed));
        load_param_vector(&mut other, &saved).unwrap();
        prop_assert_eq!(param_vector(&other), saved);
    }

    /// A length-mismatched load fails and leaves the model untouched.
    #[test]
    fn bad_param_vector_leaves_model_untouched(
        spec in model_spec(),
        seed in any::<u64>(),
        delta in (0usize..3).prop_map(|i| [-1i64, 1, 17][i]),
    ) {
        let mut m = spec.build(&mut Rng::seed_from_u64(seed));
        let before = param_vector(&m);
        let bad_len = (before.len() as i64 + delta).max(0) as usize;
        let bad = vec![0.125f32; bad_len];
        prop_assert!(load_param_vector(&mut m, &bad).is_err());
        prop_assert_eq!(param_vector(&m), before);
    }

    /// The tiled/packed fast matmul is bit-identical to the scalar
    /// reference across awkward shapes (1, tile boundaries ±1) and sparse
    /// inputs that exercise the zero-skip path.
    #[test]
    fn fast_matmul_is_bit_identical_to_scalar((a, b) in matmul_case()) {
        let fast = a.matmul(&b).unwrap();
        let scalar = a.matmul_scalar(&b).unwrap();
        prop_assert_eq!(fast.shape(), scalar.shape());
        for (x, y) in fast.as_slice().iter().zip(scalar.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `A · Bᵀ` via the packed transposed kernel equals materializing the
    /// transpose and running the scalar reference — bit for bit.
    #[test]
    fn matmul_transposed_is_bit_identical_to_scalar((a, bt) in transposed_case()) {
        let fast = a.matmul_transposed(&bt).unwrap();
        let scalar = a.matmul_scalar(&bt.transpose().unwrap()).unwrap();
        prop_assert_eq!(fast.shape(), scalar.shape());
        for (x, y) in fast.as_slice().iter().zip(scalar.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `Aᵀ · B` via the transposed-reduction kernel equals materializing
    /// the transpose and running the scalar reference — bit for bit.
    #[test]
    fn tr_matmul_is_bit_identical_to_scalar((a, b) in tr_case()) {
        let fast = a.tr_matmul(&b).unwrap();
        let scalar = a.transpose().unwrap().matmul_scalar(&b).unwrap();
        prop_assert_eq!(fast.shape(), scalar.shape());
        for (x, y) in fast.as_slice().iter().zip(scalar.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The fused bias(+ReLU) epilogue equals the unfused
    /// matmul → bias sweep → ReLU sweep composition — bit for bit.
    #[test]
    fn fused_bias_relu_is_bit_identical_to_composition(
        (a, b) in matmul_case(),
        relu in any::<bool>(),
    ) {
        let bias_vals: Vec<f32> = (0..b.cols()).map(|j| (j as f32) * 0.35 - 1.0).collect();
        let bias = Tensor::from_vec(bias_vals.clone(), &[b.cols()]).unwrap();
        let fused = a.matmul_bias(&b, &bias, relu).unwrap();
        let mut expect = a.matmul_scalar(&b).unwrap();
        for r in 0..expect.rows() {
            for (o, &bv) in expect.row_mut(r).iter_mut().zip(&bias_vals) {
                *o += bv;
                if relu {
                    *o = o.max(0.0);
                }
            }
        }
        for (x, y) in fused.as_slice().iter().zip(expect.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// select_rows picks exactly the requested rows.
    #[test]
    fn select_rows_semantics(t in matrix(8, 4), pick_seed in any::<u64>()) {
        let indices: Vec<usize> = (0..t.rows())
            .filter(|i| (pick_seed >> (i % 64)) & 1 == 1)
            .collect();
        let sub = t.select_rows(&indices).unwrap();
        prop_assert_eq!(sub.rows(), indices.len());
        for (out_row, &src) in indices.iter().enumerate() {
            prop_assert_eq!(sub.row(out_row), t.row(src));
        }
    }
}

/// Strategy: one row of logits salted with adversarial values — NaN, ±∞,
/// signed zeros, and repeated constants (duplicates) — the inputs where a
/// fused kernel could legally diverge from the composition if it reordered
/// a single operation.
fn adversarial_row(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    let cell = prop_oneof![
        -20.0f32..20.0,
        -20.0f32..20.0,
        -20.0f32..20.0,
        -20.0f32..20.0,
        Just(f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(0.0f32),
        Just(-0.0f32),
        Just(7.5f32),
    ];
    prop::collection::vec(cell, 1..=max_len)
}

/// Bit equality, except that two NaNs always match. When a row contains
/// non-finite logits both the fused kernel and the composed reference
/// poison the same lanes with NaN, but the *sign/payload* of a freshly
/// generated NaN (e.g. `∞ − ∞`) is codegen-dependent — inlining the
/// composed ops can flip it — so NaN bits are outside the fusion contract.
fn bits_match(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

proptest! {
    /// The fused softmax+cross-entropy row kernel reproduces the composed
    /// `ops::softmax` / `ops::log_softmax` reference bit for bit — probs
    /// and loss — including on NaN/±∞/duplicate inputs (where both sides
    /// must propagate the same bits through the same operation order).
    #[test]
    fn fused_softmax_xent_matches_composition(
        z in adversarial_row(12),
        temp in 0.25f32..4.0,
        label_seed in any::<usize>(),
    ) {
        let label = label_seed % z.len();
        let t = Tensor::from_vec(z.clone(), &[1, z.len()]).unwrap();
        let probs_ref = softmax(&t, temp);
        let logp_ref = log_softmax(&t, temp);
        let mut probs = vec![0.0f32; z.len()];
        let loss = softmax_xent_row(&z, temp, label, &mut probs);
        prop_assert!(bits_match(loss, logp_ref.row(0)[label]));
        for (x, y) in probs.iter().zip(probs_ref.row(0)) {
            prop_assert!(bits_match(*x, *y));
        }
    }

    /// The fused softmax+KL row kernel reproduces the composed
    /// softmax/log-softmax + per-row KL fold — bit for bit, with raw
    /// adversarial teacher entries (non-positive and NaN teacher mass is
    /// skipped by the same `p > 0` guard on both sides).
    #[test]
    fn fused_softmax_kl_matches_composition(
        z in adversarial_row(10),
        teacher_raw in adversarial_row(10),
        temp in 0.25f32..4.0,
    ) {
        let n = z.len().min(teacher_raw.len());
        let z = &z[..n];
        let teacher = &teacher_raw[..n];
        let t = Tensor::from_vec(z.to_vec(), &[1, n]).unwrap();
        let probs_ref = softmax(&t, temp);
        let logq_ref = log_softmax(&t, temp);
        let mut row_loss_ref = 0.0f32;
        for (j, &p) in teacher.iter().enumerate() {
            if p > 0.0 {
                row_loss_ref += p * (p.ln() - logq_ref.row(0)[j]);
            }
        }
        let mut probs = vec![0.0f32; n];
        let loss = softmax_kl_row(z, teacher, temp, &mut probs);
        prop_assert!(bits_match(loss, row_loss_ref));
        for (x, y) in probs.iter().zip(probs_ref.row(0)) {
            prop_assert!(bits_match(*x, *y));
        }
    }

    /// The combined KL+CE kernel (one shared max fold) equals running the
    /// two single-loss kernels — bit for bit on losses and both prob
    /// buffers.
    #[test]
    fn fused_kl_xent_matches_single_kernels(
        z in adversarial_row(10),
        teacher_raw in adversarial_row(10),
        temp in 0.25f32..4.0,
        label_seed in any::<usize>(),
    ) {
        let n = z.len().min(teacher_raw.len());
        let z = &z[..n];
        let teacher = &teacher_raw[..n];
        let label = label_seed % n;
        let mut kl_probs = vec![0.0f32; n];
        let mut ce_probs = vec![0.0f32; n];
        let (kl, logp) = softmax_kl_xent_row(z, teacher, temp, label, &mut kl_probs, &mut ce_probs);
        let mut kl_ref = vec![0.0f32; n];
        let kl_loss_ref = softmax_kl_row(z, teacher, temp, &mut kl_ref);
        let mut ce_ref = vec![0.0f32; n];
        let logp_ref = softmax_xent_row(z, 1.0, label, &mut ce_ref);
        prop_assert!(bits_match(kl, kl_loss_ref));
        prop_assert!(bits_match(logp, logp_ref));
        for (x, y) in kl_probs.iter().zip(&kl_ref) {
            prop_assert!(bits_match(*x, *y));
        }
        for (x, y) in ce_probs.iter().zip(&ce_ref) {
            prop_assert!(bits_match(*x, *y));
        }
    }

    /// The loss layer's fused entry points agree bit for bit with the
    /// composed references above — CrossEntropy, DistillKl, and the
    /// combined `distill_kl_ce` entry all produce the composition's losses
    /// and gradients, and the combined entry equals the two separate
    /// losses.
    #[test]
    fn loss_tiers_are_bit_identical(
        student in matrix(6, 8),
        label_seed in any::<u64>(),
        temp in 0.5f32..4.0,
    ) {
        let teacher = softmax(&student.map(|x| x * 0.7 + 0.3), temp);
        let labels: Vec<usize> = (0..student.rows())
            .map(|r| (label_seed as usize).wrapping_add(r * 13) % student.cols())
            .collect();
        let kl = DistillKl::new(temp);
        let ce_ref = composed_cross_entropy(&student, &labels);
        let kl_ref = composed_distill_kl(temp, &student, &teacher);
        let bits = |a: &(f32, Tensor), b: &(f32, Tensor)| -> Result<(), TestCaseError> {
            prop_assert_eq!(a.0.to_bits(), b.0.to_bits());
            prop_assert_eq!(a.1.shape(), b.1.shape());
            for (x, y) in a.1.as_slice().iter().zip(b.1.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            Ok(())
        };
        // Each entry point against its composed reference.
        bits(&CrossEntropy::new().loss_and_grad(&student, &labels), &ce_ref)?;
        bits(&kl.loss_and_grad(&student, &teacher), &kl_ref)?;
        // The combined entry is the two separate losses.
        let (combined_kl, combined_ce) = distill_kl_ce(&kl, &student, &teacher, &labels);
        bits(&combined_ce, &ce_ref)?;
        bits(&combined_kl, &kl_ref)?;
    }

    /// Scheduled dispatch — worker queues seeded in grouped order — commits
    /// the same `(index, result)` sequence as the identity-seeded dispatch,
    /// in strictly ascending item order, for every worker count.
    #[test]
    fn scheduled_dispatch_is_order_invariant(
        keys in prop::collection::vec(0u64..4, 1..40),
        workers in 1usize..8,
    ) {
        let items: Vec<usize> = (0..keys.len()).collect();
        let schedule = grouped_schedule(&keys);
        let task = |_w: usize, i: usize| i * 3 + 1;
        let mut plain = Vec::new();
        dispatch_stealing(items.clone(), workers, task, |i, out| plain.push((i, out)));
        let mut grouped = Vec::new();
        dispatch_stealing_scheduled(items, &schedule, workers, task, |i, out| {
            grouped.push((i, out));
        });
        prop_assert!(grouped.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert_eq!(plain, grouped);
    }
}

/// Zero-row operands are legal in every kernel and produce empty outputs.
#[test]
fn empty_operands_are_supported() {
    let a = Tensor::zeros(&[0, 7]);
    let b = Tensor::zeros(&[7, 3]);
    assert_eq!(a.matmul(&b).unwrap().shape(), &[0, 3]);
    assert_eq!(a.matmul_scalar(&b).unwrap().shape(), &[0, 3]);
    let bt = Tensor::zeros(&[3, 7]);
    assert_eq!(a.matmul_transposed(&bt).unwrap().shape(), &[0, 3]);
    let ta = Tensor::zeros(&[0, 4]);
    let tb = Tensor::zeros(&[0, 5]);
    assert_eq!(ta.tr_matmul(&tb).unwrap().shape(), &[4, 5]);
}
