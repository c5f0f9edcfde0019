//! Matrix-multiply kernels and the scalar reference they are held to.
//!
//! Every FedPKD phase — private training, public-set logit uploads, the
//! Eq. 10 filter's embedding pass, and server ensemble distillation —
//! funnels through a handful of matrix products. This module provides
//! them once, plus the specification they are tested against:
//!
//! - **The reference** — [`crate::Tensor::matmul_scalar`], the i-k-j
//!   triple loop. Slow but obviously correct. No production path calls it;
//!   the equivalence tests (`crates/tensor/tests/properties.rs`,
//!   `tests/kernels.rs`) compose it with `transpose`, a bias/ReLU sweep and
//!   `axpy` to spell out what each kernel must equal, bit for bit.
//! - **The kernels** — register-tiled micro-kernels (`MI × NJ` = 4×64
//!   accumulator tiles held in registers across the whole reduction, with
//!   32- and 16-wide mop-up tiles), an `A·Bᵀ` path that repacks the
//!   transposed operand once and reuses the tiled kernel, a
//!   transposed-self kernel for `Aᵀ·B` that accumulates into its output in
//!   the store epilogue, and fused bias+ReLU epilogues. Every kernel runs
//!   on the calling thread: the only extra threads are the ones the worker
//!   budget hands out (`DriverBuilder::workers`), never one a kernel spawns.
//!
//! # Why the kernels match the reference bit for bit
//!
//! For every output element, every kernel accumulates the products
//! `a[i][k]·b[k][j]` in the *same* order — reduction index strictly
//! increasing, starting from `+0.0` (or from the bias epilogue applied
//! *after* the full sum, matching an unfused bias pass). Tiling only
//! reorders work *across* output elements, never within one, and IEEE 754
//! addition is deterministic, so the bits match.
//!
//! The reference's zero-skip (skip a whole `b` row when `a[i][k] == 0`)
//! is exact by the same coin, read both ways: the accumulator starts at
//! `+0.0` and IEEE addition only produces `-0.0` from two negative zeros,
//! so the accumulator is never `-0.0` — which means adding a `±0.0`
//! product is a bit-exact no-op, and *skipping* it changes nothing. That
//! argument requires the skipped products to *be* `±0.0` — `0·NaN` and
//! `0·∞` are NaN — so the reference gates the skip on the right-hand
//! operand being entirely finite, checked once per call. A NaN planted in
//! `b` therefore propagates to the output instead of being silently
//! masked.
//!
//! The tiled kernels run the same theorem in the other direction: they
//! never skip anything. Computing every product unconditionally adds only
//! `±0.0` terms the reference would have skipped (the skip only fires
//! for `a == 0` against finite `b`), so the bits still match — and the
//! kernels become branch-free straight-line vector code, which is where
//! the speedup comes from. Post-ReLU activations are roughly half zeros
//! with an unpredictable pattern; a per-element skip test mispredicts
//! constantly, while the branchless tile pays a separate multiply and add
//! per vector and never stalls. (rustc never contracts `x += a * b` into a
//! fused multiply-add, so each product is rounded before it is added; a
//! `mul_add` kernel is a by-design bit move, ROADMAP item 6(a).) Skipping
//! nothing also needs no per-call finiteness scan, and `0·NaN = NaN`
//! propagates naturally.
//!
//! Whole-run equality follows from per-kernel equality: a kernel is a pure
//! function of its operands, so a run whose every product equals the
//! reference's is the run the reference would have produced.

/// The one kernel tier there is, as `benchmark/src/provenance.rs` prints it.
/// That file is the only caller of the function below; ROADMAP item 3
/// step 0 deletes its line and then this enum and the function.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Register-tiled kernels with fused epilogues.
    Fast,
}

/// Always [`KernelMode::Fast`]; see [`KernelMode`].
#[doc(hidden)]
pub fn kernel_mode() -> KernelMode {
    KernelMode::Fast
}

/// Rows of the output computed per register tile.
const MI: usize = 4;
/// Columns of the output computed per register tile (four 16-lane or eight
/// 8-lane vectors). `MI × NJ` accumulator lanes give sixteen independent
/// 16-lane add chains — enough to hide the 4-cycle FP-add latency that a
/// narrower tile leaves exposed.
const NJ: usize = 64;
/// Middle tile width: a 32-column output or tail (width-32 inputs, the
/// 48-wide tier, 100 classes) gets one 32-wide tile instead of two 16-wide
/// ones, whose four add chains cannot hide the FP-add latency.
const NJ_MID: usize = 32;
/// Mop-up tile width for column counts the wider tiles cannot cover. The
/// capacity-tier hidden widths 48 and 80 leave 48- and 16-column tails
/// after the 64-wide pass; without this tile those tails fell through to
/// the scalar remainder strip, which is why client training lagged the
/// server phases.
const NJ_NARROW: usize = 16;

fn all_finite(xs: &[f32]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

/// Applies the fused epilogue to one finished value at output column `j`.
#[inline]
fn finish(v: f32, j: usize, bias: Option<&[f32]>, relu: bool) -> f32 {
    let mut v = match bias {
        Some(b) => v + b[j],
        None => v,
    };
    if relu {
        v = v.max(0.0);
    }
    v
}

/// Reference kernel: `out += A·B` in i-k-j order with the finite-gated
/// zero-skip. `out` must be zeroed. No epilogue — a reference for a fused
/// product applies bias and ReLU as separate passes.
pub(crate) fn matmul_scalar_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // The skip is only exact when `0·b` is `±0.0`; a non-finite `b` value
    // must poison the output, so disable the skip entirely in that case.
    let skip = all_finite(b);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if skip && av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `out = epilogue(A·B)`, register-tiled. `out` must be zeroed.
///
/// Full `MI×NJ` tiles keep their accumulators in registers for the whole
/// reduction — the scalar loop's per-`k` reload/store of the output row is
/// the hot path's dominant memory traffic, and this removes it. The tile
/// body is branch-free (see the module docs for why skipping nothing is
/// still bit-identical to the skipping scalar loop). Remainder strips fall
/// back to a branchless scalar loop with the same per-element order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_fast_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    relu: bool,
) {
    let mut i0 = 0;
    while i0 + MI <= m {
        let mut j0 = 0;
        while j0 + NJ <= n {
            matmul_tile::<NJ>(a, b, out, i0, j0, k, n, bias, relu);
            j0 += NJ;
        }
        if j0 + NJ_MID <= n {
            matmul_tile::<NJ_MID>(a, b, out, i0, j0, k, n, bias, relu);
            j0 += NJ_MID;
        }
        while j0 + NJ_NARROW <= n {
            matmul_tile::<NJ_NARROW>(a, b, out, i0, j0, k, n, bias, relu);
            j0 += NJ_NARROW;
        }
        if j0 < n {
            matmul_strip(a, b, out, i0, MI, j0, k, n, bias, relu);
        }
        i0 += MI;
    }
    if i0 < m {
        matmul_strip(a, b, out, i0, m - i0, 0, k, n, bias, relu);
    }
}

/// One `MI × W` register tile of `A·B` at output rows `[i0, i0+MI)` and
/// columns `[j0, j0+W)`, accumulators pinned in registers for the whole
/// reduction. Per output element the reduction index is strictly
/// increasing from `+0.0`, so every tile width produces the same bits.
#[allow(clippy::too_many_arguments)]
#[inline]
fn matmul_tile<const W: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    relu: bool,
) {
    let (a0, a1, a2, a3) = (
        &a[i0 * k..(i0 + 1) * k],
        &a[(i0 + 1) * k..(i0 + 2) * k],
        &a[(i0 + 2) * k..(i0 + 3) * k],
        &a[(i0 + 3) * k..(i0 + 4) * k],
    );
    let mut acc = [[0.0f32; W]; MI];
    // Zip-driven iteration: no index arithmetic or bounds checks
    // survive in the loop body, so it compiles to straight-line vector
    // code — a separate multiply and add per vector, never contracted
    // (ROADMAP item 6(a)) — with the accumulators pinned in registers for
    // the entire reduction.
    let rows_iter = a0.iter().zip(a1).zip(a2).zip(a3);
    for ((((&av0, &av1), &av2), &av3), brow) in rows_iter.zip(b.chunks_exact(n)) {
        let bseg: &[f32; W] = brow[j0..j0 + W].try_into().expect("tile width");
        let avs = [av0, av1, av2, av3];
        for (acc_row, av) in acc.iter_mut().zip(avs) {
            for (x, &bv) in acc_row.iter_mut().zip(bseg) {
                *x += av * bv;
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate() {
        let dst = &mut out[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + W];
        for (jj, (o, &v)) in dst.iter_mut().zip(acc_row).enumerate() {
            *o = finish(v, j0 + jj, bias, relu);
        }
    }
}

/// Branchless scalar strip of `A·B` covering rows `[i0, i0+rows)` and
/// columns `[j0, n)`, with the epilogue applied in place after each row's
/// full reduction.
#[allow(clippy::too_many_arguments)]
fn matmul_strip(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    rows: usize,
    j0: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
    relu: bool,
) {
    for i in i0..i0 + rows {
        let a_row = &a[i * k..(i + 1) * k];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n + j0..(kk + 1) * n];
            let out_row = &mut out[i * n + j0..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        let out_row = &mut out[i * n + j0..(i + 1) * n];
        for (jj, o) in out_row.iter_mut().enumerate() {
            *o = finish(*o, j0 + jj, bias, relu);
        }
    }
}

/// Side of the square blocks [`transpose_into`] moves: a 16×16 `f32` block
/// reads and writes whole 64-byte cache lines on both sides.
const TRANSPOSE_BLOCK: usize = 16;

/// Writes the transpose of row-major `src: [rows, cols]` into
/// `dst: [cols, rows]`, block by block so neither side is walked at a
/// cache-hostile stride. Every element of `dst` is written.
pub(crate) fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    for r0 in (0..rows).step_by(TRANSPOSE_BLOCK) {
        let r1 = (r0 + TRANSPOSE_BLOCK).min(rows);
        for c0 in (0..cols).step_by(TRANSPOSE_BLOCK) {
            let c1 = (c0 + TRANSPOSE_BLOCK).min(cols);
            if r1 - r0 == TRANSPOSE_BLOCK && c1 - c0 == TRANSPOSE_BLOCK {
                transpose_block(src, dst, rows, cols, r0, c0);
                continue;
            }
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// Moves one whole `TRANSPOSE_BLOCK`-square block of [`transpose_into`]
/// through a fixed-size local copy: with every index a constant the
/// compiler transposes it with vector shuffles instead of strided element
/// moves (4 096 elements: 2.9 → 0.9 µs).
#[inline]
fn transpose_block(src: &[f32], dst: &mut [f32], rows: usize, cols: usize, r0: usize, c0: usize) {
    const B: usize = TRANSPOSE_BLOCK;
    let mut block = [[0.0f32; B]; B];
    for (r, row) in block.iter_mut().enumerate() {
        let at = (r0 + r) * cols + c0;
        row.copy_from_slice(&src[at..at + B]);
    }
    // Indexed on purpose: this form is the one the compiler turns into
    // shuffles (building the transposed array first runs 1.8x slower).
    #[allow(clippy::needless_range_loop)]
    for c in 0..B {
        let column: [f32; B] = std::array::from_fn(|r| block[r][c]);
        let at = (c0 + c) * rows + r0;
        dst[at..at + B].copy_from_slice(&column);
    }
}

/// `out = A·Bᵀ` with `b` given in transposed layout `[n, k]`
/// (the Dense backward's `dx = g·Wᵀ` shape). `out` must be zeroed.
///
/// A direct dot-product kernel over the packed rows cannot vectorize: each
/// output element is one k-sequential FP-add chain, and reassociating it
/// into vector lanes would change the bits. Instead the operand is repacked
/// into row-major `[k, n]` — an O(k·n) blocked transpose against the
/// product's O(m·k·n) work — and the product runs through the vectorized
/// tiled kernel. Per output element the reduction index is still strictly
/// increasing, so the result is bit-identical to the sequential dot while
/// the flops run wide.
pub(crate) fn matmul_transposed_fast_into(
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if k == 0 {
        return;
    }
    // Pooled scratch: the repack writes every element before the product
    // reads it, so the buffer's stale contents never leak into the result.
    crate::parallel::scratch::with_f32s(k * n, |b_packed| {
        transpose_into(bt, b_packed, n, k);
        matmul_fast_into(a, b_packed, out, m, k, n, None, false);
    });
}

/// `out += Aᵀ·B` with `a: [r, m]` and `b: [r, n]` — the Dense
/// backward's `dW = xᵀ·g` shape, reduction over the shared row index `r`,
/// accumulated straight into the weight gradient.
///
/// The `MI` values of `Aᵀ` a register tile needs at reduction step `rr` are
/// `a[rr·m + i0 ..][..MI]` — contiguous in the row-major operand — so when
/// whole tiles cover the output (`m % MI == 0`, `n % NJ_NARROW == 0`: every
/// capacity-tier layer shape), the tiles read `a` in place and add their
/// finished sums to `out` in the store epilogue. Any other shape repacks
/// `a` into row-major `[m, r]` (O(r·m) against the product's O(r·m·n)),
/// reuses [`matmul_fast_into`] with its remainder strips into scratch, and
/// adds that to `out`.
///
/// Either way the reduction runs over `r` strictly increasing from `+0.0`
/// per output element and the finished sum `s` lands as `out + s` — the
/// arithmetic of the reference's materialize-then-multiply path followed
/// by `out.axpy(1.0, s)` (`1.0·s` is `s` exactly). `s` is never `-0.0`
/// (see the module docs), so onto a zeroed `out` this is `s` itself, and
/// onto `-0.0` it is `+0.0` or `s`, as the `axpy` gives.
pub(crate) fn tr_matmul_fast_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    r: usize,
    m: usize,
    n: usize,
) {
    if r == 0 {
        return;
    }
    if m.is_multiple_of(MI) && n.is_multiple_of(NJ_NARROW) {
        for i0 in (0..m).step_by(MI) {
            let mut j0 = 0;
            while j0 + NJ <= n {
                tr_matmul_tile::<NJ>(a, b, out, i0, j0, m, n);
                j0 += NJ;
            }
            while j0 < n {
                tr_matmul_tile::<NJ_NARROW>(a, b, out, i0, j0, m, n);
                j0 += NJ_NARROW;
            }
        }
        return;
    }
    crate::parallel::scratch::with_f32s(m * r + m * n, |scratch| {
        let (a_packed, prod) = scratch.split_at_mut(m * r);
        transpose_into(a, a_packed, r, m);
        prod.fill(0.0);
        matmul_fast_into(a_packed, b, prod, m, r, n, None, false);
        for (o, &s) in out.iter_mut().zip(prod.iter()) {
            *o += s;
        }
    });
}

/// One `MI × W` register tile of `Aᵀ·B` at output rows `[i0, i0+MI)` and
/// columns `[j0, j0+W)`, reading `a: [r, m]` in place: the twin of
/// [`matmul_tile`] with the left operand's tile values taken from one row
/// of `a` per reduction step instead of one column of four rows, and a
/// store epilogue that adds the finished sums to `out`.
#[inline]
fn tr_matmul_tile<const W: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    m: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; W]; MI];
    for (arow, brow) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        // Copied out, not borrowed: through a reference into `a` the narrow
        // tile reloads the four values per lane and runs ~10x slower.
        let avs: [f32; MI] = arow[i0..i0 + MI].try_into().expect("tile height");
        let bseg: &[f32; W] = brow[j0..j0 + W].try_into().expect("tile width");
        for (acc_row, av) in acc.iter_mut().zip(avs) {
            for (x, &bv) in acc_row.iter_mut().zip(bseg) {
                *x += av * bv;
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate() {
        let dst = &mut out[(i0 + ii) * n + j0..(i0 + ii) * n + j0 + W];
        for (o, &s) in dst.iter_mut().zip(acc_row) {
            *o += s;
        }
    }
}

// ---------------------------------------------------------------------------
// Fused loss epilogues
// ---------------------------------------------------------------------------
//
// The distillation losses are softmax-dominated once the matmuls run tiled:
// the composed reference computes `softmax` and `log_softmax` as separate
// whole-tensor passes (two row-max folds, two exp sweeps, two extra tensor
// allocations per batch). The fused row kernels below produce the same
// probabilities, log-probabilities, and per-row loss contributions in one
// pass over the logit row.
//
// # Epilogue fusion contract (bit-identity)
//
// Each kernel reproduces the composed `ops::softmax` / `ops::log_softmax`
// arithmetic *operation for operation*:
//
// - the row maximum is the same left-to-right `f32::max` fold;
// - the exponential sweep computes `((z[j] - max) / temperature).exp()` in
//   index order and accumulates the total as the same sequential `+` chain
//   starting from `+0.0` — which is also exactly how `log_softmax` builds
//   its `log_sum` input, so `total` carries the same bits in both roles;
// - probabilities divide each stored exponential by that total, and
//   log-probabilities are `(z[j] - max) / temperature - total.ln()`,
//   matching the composed passes exactly.
//
// Per-row loss contributions are returned to the caller, which accumulates
// them over rows in the same sequential order as the composed loss loop.
// IEEE 754 arithmetic is deterministic, so equality of operation sequences
// is equality of bits; the proptest suite in `tests/properties.rs` checks
// this against the composed reference on adversarial inputs (NaN, ±∞,
// duplicated logits).
//
// One carve-out: when a row contains non-finite logits (a `+∞` entry makes
// `∞ − ∞` appear in the exponent sweep), both sides poison the same lanes
// with NaN, but the *sign/payload* of a freshly generated NaN is not pinned
// by IEEE 754 — LLVM is free to materialise the platform default QNaN or a
// propagated operand NaN depending on how the surrounding code inlines. The
// contract is therefore "identical bits, except NaNs match any NaN". Real
// logits are finite, so this carve-out never applies on the training path.

/// Fused softmax + cross-entropy epilogue over one logit row: writes
/// `softmax(z / temperature)` into `probs` and returns the row's
/// log-likelihood `log p[label]` — bit-identical to composing
/// [`crate::ops::softmax`] and [`crate::ops::log_softmax`] and reading
/// them separately (see the fusion contract above).
///
/// # Panics
///
/// Panics if `temperature <= 0`, `label` is out of range, or the slices
/// disagree in length.
pub fn softmax_xent_row(z: &[f32], temperature: f32, label: usize, probs: &mut [f32]) -> f32 {
    assert!(temperature > 0.0, "temperature must be positive");
    assert_eq!(z.len(), probs.len(), "row width mismatch");
    assert!(label < z.len(), "label {label} out of range");
    let max = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut total = 0.0f32;
    for (p, &v) in probs.iter_mut().zip(z) {
        *p = ((v - max) / temperature).exp();
        total += *p;
    }
    let log_sum = total.ln();
    for p in probs.iter_mut() {
        *p /= total;
    }
    (z[label] - max) / temperature - log_sum
}

/// Fused softmax + KL epilogue over one logit row: writes the student
/// probabilities `softmax(z / temperature)` into `probs` and returns the
/// row's KL contribution `Σ_j p_j · (ln p_j − log q_j)` over teacher
/// entries with `p_j > 0` — bit-identical to the composed
/// `softmax`/`log_softmax` reference (see the fusion contract above).
///
/// # Panics
///
/// Panics if `temperature <= 0` or the slices disagree in length.
pub fn softmax_kl_row(z: &[f32], teacher: &[f32], temperature: f32, probs: &mut [f32]) -> f32 {
    assert!(temperature > 0.0, "temperature must be positive");
    assert_eq!(z.len(), probs.len(), "row width mismatch");
    assert_eq!(z.len(), teacher.len(), "teacher width mismatch");
    let max = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut total = 0.0f32;
    for (p, &v) in probs.iter_mut().zip(z) {
        *p = ((v - max) / temperature).exp();
        total += *p;
    }
    let log_sum = total.ln();
    let mut row_loss = 0.0f32;
    for (j, &p) in teacher.iter().enumerate() {
        if p > 0.0 {
            let log_q = (z[j] - max) / temperature - log_sum;
            row_loss += p * (p.ln() - log_q);
        }
    }
    for p in probs.iter_mut() {
        *p /= total;
    }
    row_loss
}

/// Combined KL + hard-label cross-entropy epilogue over one logit row —
/// the Eq. 11/15 shape, where the same logits feed a temperature-`T` KL
/// term and a temperature-1 CE term. Shares the row-max fold between the
/// two softmax families; each half is bit-identical to its standalone
/// fused kernel (and hence to the composed reference).
///
/// Writes `softmax(z / temperature)` into `kl_probs` and `softmax(z)` into
/// `ce_probs`; returns `(kl_row_loss, log p[label])`.
///
/// # Panics
///
/// Panics if `temperature <= 0`, `label` is out of range, or any slice
/// disagrees in length.
pub fn softmax_kl_xent_row(
    z: &[f32],
    teacher: &[f32],
    temperature: f32,
    label: usize,
    kl_probs: &mut [f32],
    ce_probs: &mut [f32],
) -> (f32, f32) {
    assert!(temperature > 0.0, "temperature must be positive");
    assert_eq!(z.len(), kl_probs.len(), "row width mismatch");
    assert_eq!(z.len(), ce_probs.len(), "row width mismatch");
    assert_eq!(z.len(), teacher.len(), "teacher width mismatch");
    assert!(label < z.len(), "label {label} out of range");
    let max = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);

    let mut kl_total = 0.0f32;
    for (p, &v) in kl_probs.iter_mut().zip(z) {
        *p = ((v - max) / temperature).exp();
        kl_total += *p;
    }
    let kl_log_sum = kl_total.ln();
    let mut kl_loss = 0.0f32;
    for (j, &p) in teacher.iter().enumerate() {
        if p > 0.0 {
            let log_q = (z[j] - max) / temperature - kl_log_sum;
            kl_loss += p * (p.ln() - log_q);
        }
    }
    for p in kl_probs.iter_mut() {
        *p /= kl_total;
    }

    let mut ce_total = 0.0f32;
    for (p, &v) in ce_probs.iter_mut().zip(z) {
        *p = ((v - max) / 1.0).exp();
        ce_total += *p;
    }
    let log_p_label = (z[label] - max) / 1.0 - ce_total.ln();
    for p in ce_probs.iter_mut() {
        *p /= ce_total;
    }

    (kl_loss, log_p_label)
}
