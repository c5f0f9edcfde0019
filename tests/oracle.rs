//! An independent oracle for the paper's per-batch training objectives and
//! for the server's aggregation and filter.
//!
//! Each production objective — Eqs. 11–13 (`server_objective`), Eq. 15
//! (`distill_objective`) and Eq. 16 (`supervised_objective`) — is diffed
//! against a naive `f64` reference written straight from the equations:
//! one loop per term, no kernels, no fused softmax families, no shared
//! code with the product. The gradient of Eq. 13 is also checked by
//! central finite differences of the reference objective, so the reference
//! gradient is not merely a second copy of the same algebra. The same goes
//! for the server side: Eqs. 6–7 (`LogitAccumulator`), Eq. 8
//! (`PrototypeAccumulator`) and Algorithm 1's θ filter (Eqs. 9–10,
//! `filter_public`); each of those rows states its own tolerance.
//!
//! The problem is tiny and dense: 6 rows, 4 classes, 3 feature dimensions,
//! a soft teacher with one row holding exact zeros (the `p = 0` terms of
//! the KL), and global prototypes for classes 0 and 2 only, so Eqs. 12 and
//! 16 see partial coverage.
//!
//! Tolerances. The production path works in `f32`, whose unit roundoff is
//! `u = 2⁻²⁴ ≈ 6e-8`. Every compared quantity is a sum of at most
//! `B·K = 24` (or `B·D = 18`) terms, each carrying a few roundings from an
//! `exp`/`ln`/division, so a forward-error bound is about
//! `(24 + 8)·u ≈ 2e-6` relative to the sum of term magnitudes. [`TOL`]
//! allows 1e-5 — five times that bound, and still hundreds of times
//! smaller than any sign, factor or normalisation mistake, which moves
//! the result by O(1) relative.

use fedpkd::core::fedpkd::distill::server_objective;
use fedpkd::core::fedpkd::filter::filter_public;
use fedpkd::core::fedpkd::logits::MIN_TOTAL_VARIANCE;
use fedpkd::core::fedpkd::prototypes::Prototype;
use fedpkd::core::streaming::{LogitAccumulator, PrototypeAccumulator};
use fedpkd::core::train::{distill_objective, supervised_objective};
use fedpkd::rng::Rng;
use fedpkd::tensor::ops::softmax;
use fedpkd::tensor::Tensor;

const B: usize = 6;
const K: usize = 4;
const D: usize = 3;
const TEMPERATURE: f32 = 2.0;

/// Relative tolerance of every `f32`-vs-`f64` comparison (see the module
/// docs for the bound it covers).
const TOL: f64 = 1e-5;

/// Central-difference step for the finite-difference check. Its truncation
/// error is `O(h²) ≈ 1e-10` and its cancellation error about
/// `2⁻⁵³ · |F| / h ≈ 1e-11`, both far below [`TOL`], so the comparison
/// against the `f32` gradient is still bounded by the `f32` rounding.
const FD_STEP: f64 = 1e-5;

/// The batch every objective is evaluated on.
struct Problem {
    features: Tensor,
    logits: Tensor,
    teacher: Tensor,
    labels: Vec<usize>,
    prototypes: Vec<Option<Tensor>>,
}

fn problem() -> Problem {
    let mut rng = Rng::seed_from_u64(2024);
    let features = Tensor::randn(&[B, D], 1.0, &mut rng);
    let logits = Tensor::randn(&[B, K], 1.5, &mut rng);
    let mut teacher = softmax(&Tensor::randn(&[B, K], 1.0, &mut rng), 1.0);
    // A hard teacher row: the KL's `p = 0` terms contribute nothing.
    teacher.row_mut(2).copy_from_slice(&[0.0, 1.0, 0.0, 0.0]);
    // Classes 0 and 2 have prototypes; rows labelled 1 or 3 are uncovered.
    let labels = vec![0, 1, 2, 3, 2, 0];
    let prototypes = (0..K)
        .map(|c| (c % 2 == 0).then(|| Tensor::randn(&[D], 1.0, &mut rng)))
        .collect();
    Problem {
        features,
        logits,
        teacher,
        labels,
        prototypes,
    }
}

fn f64s(t: &Tensor) -> Vec<f64> {
    t.as_slice().iter().map(|&v| f64::from(v)).collect()
}

/// The reference's view of the problem, all in `f64`.
struct Reference {
    features: Vec<f64>,
    logits: Vec<f64>,
    teacher: Vec<f64>,
    labels: Vec<usize>,
    prototypes: Vec<Option<Vec<f64>>>,
}

impl Reference {
    fn of(p: &Problem) -> Self {
        Self {
            features: f64s(&p.features),
            logits: f64s(&p.logits),
            teacher: f64s(&p.teacher),
            labels: p.labels.clone(),
            prototypes: p.prototypes.iter().map(|p| p.as_ref().map(f64s)).collect(),
        }
    }

    /// Row `r` of `softmax(logits / t)`.
    fn softmax_row(&self, logits: &[f64], r: usize, t: f64) -> Vec<f64> {
        let row = &logits[r * K..(r + 1) * K];
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = row.iter().map(|z| ((z - max) / t).exp()).collect();
        let total: f64 = exps.iter().sum();
        exps.iter().map(|e| e / total).collect()
    }

    /// `T² · mean_r KL(teacher_r ‖ softmax(logits_r / T))`.
    fn kl(&self, logits: &[f64]) -> f64 {
        let t = f64::from(TEMPERATURE);
        let mut total = 0.0;
        for r in 0..B {
            let q = self.softmax_row(logits, r, t);
            for (&p, q) in self.teacher[r * K..(r + 1) * K].iter().zip(q) {
                if p > 0.0 {
                    total += p * (p.ln() - q.ln());
                }
            }
        }
        t * t * total / B as f64
    }

    /// Its gradient: `T · (softmax(logits / T) − teacher) / B`.
    fn kl_grad(&self) -> Vec<f64> {
        let t = f64::from(TEMPERATURE);
        let mut grad = vec![0.0; B * K];
        for r in 0..B {
            let q = self.softmax_row(&self.logits, r, t);
            for k in 0..K {
                grad[r * K + k] = t * (q[k] - self.teacher[r * K + k]) / B as f64;
            }
        }
        grad
    }

    /// `mean_r −ln softmax(logits_r)[y_r]`.
    fn ce(&self, logits: &[f64]) -> f64 {
        let total: f64 = (0..B)
            .map(|r| -self.softmax_row(logits, r, 1.0)[self.labels[r]].ln())
            .sum();
        total / B as f64
    }

    /// Its gradient: `(softmax(logits) − onehot(y)) / B`.
    fn ce_grad(&self) -> Vec<f64> {
        let mut grad = vec![0.0; B * K];
        for r in 0..B {
            let s = self.softmax_row(&self.logits, r, 1.0);
            for k in 0..K {
                let onehot = if k == self.labels[r] { 1.0 } else { 0.0 };
                grad[r * K + k] = (s[k] - onehot) / B as f64;
            }
        }
        grad
    }

    /// `Σ` over covered rows of `‖features_r − P^{y_r}‖²`, and the number of
    /// covered rows.
    fn squared_pull(&self, features: &[f64]) -> (f64, usize) {
        let (mut total, mut covered) = (0.0, 0);
        for r in 0..B {
            if let Some(proto) = &self.prototypes[self.labels[r]] {
                covered += 1;
                for d in 0..D {
                    total += (features[r * D + d] - proto[d]).powi(2);
                }
            }
        }
        (total, covered)
    }

    /// `2 · (features_r − P^{y_r})` on covered rows, 0 elsewhere, divided
    /// by `denominator`.
    fn pull_grad(&self, denominator: f64) -> Vec<f64> {
        let mut grad = vec![0.0; B * D];
        for r in 0..B {
            if let Some(proto) = &self.prototypes[self.labels[r]] {
                for d in 0..D {
                    grad[r * D + d] = 2.0 * (self.features[r * D + d] - proto[d]) / denominator;
                }
            }
        }
        grad
    }

    /// Eq. 12: the MSE over covered rows only (`C · D` elements).
    fn l_p(&self, features: &[f64]) -> f64 {
        let (total, covered) = self.squared_pull(features);
        total / (covered * D) as f64
    }

    /// Eq. 13: `F = δ·(T²·KL + CE) + (1−δ)·L_p`.
    fn eq13(&self, logits: &[f64], features: &[f64], delta: f64) -> f64 {
        delta * (self.kl(logits) + self.ce(logits)) + (1.0 - delta) * self.l_p(features)
    }
}

fn close(got: f64, want: f64, scale: f64, what: &str) {
    assert!(
        (got - want).abs() <= TOL * scale.max(want.abs()),
        "{what}: production {got} vs reference {want}"
    );
}

/// Elementwise, each element held to [`TOL`] of the tensor's largest
/// reference magnitude: every element is a short sum of terms bounded by
/// that magnitude.
fn close_all(got: &Tensor, want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (i, (&g, &w)) in got.as_slice().iter().zip(want).enumerate() {
        close(f64::from(g), w, scale, &format!("{what}[{i}]"));
    }
}

#[test]
fn eq13_server_objective_matches_the_reference() {
    let p = problem();
    let r = Reference::of(&p);
    for delta in [0.0f32, 0.3, 0.7] {
        let ((kd, proto), logit_grad, feature_grad) = server_objective(
            &p.features,
            &p.logits,
            &p.teacher,
            &p.labels,
            &p.prototypes,
            delta,
            TEMPERATURE,
        );
        let d = f64::from(delta);
        let l_kd = r.kl(&r.logits) + r.ce(&r.logits);
        let l_p = r.l_p(&r.features);
        let proto = proto.expect("classes 0 and 2 are covered");
        close(kd, l_kd, 0.0, "L_kd");
        close(proto, l_p, 0.0, "L_p");
        close(
            d * kd + (1.0 - d) * proto,
            r.eq13(&r.logits, &r.features, d),
            0.0,
            "F",
        );

        let want_logits: Vec<f64> = r
            .kl_grad()
            .iter()
            .zip(r.ce_grad())
            .map(|(kl, ce)| d * (kl + ce))
            .collect();
        close_all(&logit_grad, &want_logits, "dF/dlogits");
        let (_, covered) = r.squared_pull(&r.features);
        let want_features: Vec<f64> = r
            .pull_grad((covered * D) as f64)
            .iter()
            .map(|g| (1.0 - d) * g)
            .collect();
        close_all(
            &feature_grad.expect("the pull is on"),
            &want_features,
            "dF/dfeatures",
        );
    }
}

#[test]
fn eq13_gradient_matches_central_finite_differences() {
    let p = problem();
    let r = Reference::of(&p);
    let delta = 0.6f32;
    let d = f64::from(delta);
    let (_, logit_grad, feature_grad) = server_objective(
        &p.features,
        &p.logits,
        &p.teacher,
        &p.labels,
        &p.prototypes,
        delta,
        TEMPERATURE,
    );
    let feature_grad = feature_grad.expect("the pull is on");
    let fd = |i: usize, on_logits: bool| {
        let (mut logits, mut features) = (r.logits.clone(), r.features.clone());
        let x = if on_logits {
            &mut logits
        } else {
            &mut features
        };
        x[i] += FD_STEP;
        let plus = r.eq13(&logits, &features, d);
        let (mut logits, mut features) = (r.logits.clone(), r.features.clone());
        let x = if on_logits {
            &mut logits
        } else {
            &mut features
        };
        x[i] -= FD_STEP;
        let minus = r.eq13(&logits, &features, d);
        (plus - minus) / (2.0 * FD_STEP)
    };
    let numeric_logits: Vec<f64> = (0..B * K).map(|i| fd(i, true)).collect();
    let numeric_features: Vec<f64> = (0..B * D).map(|i| fd(i, false)).collect();
    close_all(&logit_grad, &numeric_logits, "FD dF/dlogits");
    close_all(&feature_grad, &numeric_features, "FD dF/dfeatures");
    // Rows labelled 1 or 3 have no prototype: no pull at all.
    for row in [1, 3] {
        assert!(feature_grad.row(row).iter().all(|&g| g == 0.0));
    }
}

#[test]
fn eq13_drops_the_pull_at_delta_one_or_without_coverage() {
    let p = problem();
    let args = |prototypes: &[Option<Tensor>], delta| {
        server_objective(
            &p.features,
            &p.logits,
            &p.teacher,
            &p.labels,
            prototypes,
            delta,
            TEMPERATURE,
        )
    };
    let ((_, proto), _, grad) = args(&p.prototypes, 1.0);
    assert!(proto.is_none() && grad.is_none());
    let ((_, proto), _, grad) = args(&vec![None; K], 0.5);
    assert!(proto.is_none() && grad.is_none());
}

#[test]
fn eq15_distill_objective_matches_the_reference() {
    let p = problem();
    let r = Reference::of(&p);
    for gamma in [0.0f32, 0.4, 1.0] {
        let ((kl, ce), grad) =
            distill_objective(&p.logits, &p.teacher, &p.labels, gamma, TEMPERATURE);
        let g = f64::from(gamma);
        close(kl, r.kl(&r.logits), 0.0, "T²·KL");
        close(ce, r.ce(&r.logits), 0.0, "CE");
        let want: Vec<f64> = r
            .kl_grad()
            .iter()
            .zip(r.ce_grad())
            .map(|(kl, ce)| g * kl + (1.0 - g) * ce)
            .collect();
        close_all(&grad, &want, "dL/dlogits");
    }
}

/// Eq. 16 as the code runs it today: the MSE averages over all `B · D`
/// elements, so an uncovered row counts with a zero contribution (unlike
/// Eq. 12's covered-row mean; ROADMAP item 6(d)).
#[test]
fn eq16_supervised_objective_matches_the_reference() {
    let p = problem();
    let r = Reference::of(&p);
    let epsilon = 0.3f32;
    let ((ce, mse), logit_grad, feature_grad) =
        supervised_objective(&p.features, &p.logits, &p.labels, &p.prototypes, epsilon);
    let (pull, _) = r.squared_pull(&r.features);
    close(ce, r.ce(&r.logits), 0.0, "CE");
    close(
        mse.expect("the pull is on"),
        pull / (B * D) as f64,
        0.0,
        "MSE",
    );
    close_all(&logit_grad, &r.ce_grad(), "dL/dlogits");
    let want: Vec<f64> = r
        .pull_grad((B * D) as f64)
        .iter()
        .map(|g| f64::from(epsilon) * g)
        .collect();
    close_all(
        &feature_grad.expect("the pull is on"),
        &want,
        "dL/dfeatures",
    );

    // Eq. 4: no pull at ε = 0 or with no prototype at all.
    for (prototypes, epsilon) in [(p.prototypes.clone(), 0.0), (vec![None; K], 0.3)] {
        let ((_, mse), _, grad) =
            supervised_objective(&p.features, &p.logits, &p.labels, &prototypes, epsilon);
        assert!(mse.is_none() && grad.is_none());
    }
}

// ---- The server side: Eqs. 6–7, 8 and 9–10. ----------------------------

/// Clients folded into each aggregate.
const CLIENTS: usize = 3;

/// The logit row every client predicts flat (all logits equal).
const FLAT_ROW: usize = 4;

/// `softmax(row)` in `f64`.
fn softmax64(row: &[f64]) -> Vec<f64> {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = row.iter().map(|z| (z - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.iter().map(|e| e / total).collect()
}

/// Each client's public-set logits, `B × K`. Every client is flat on
/// [`FLAT_ROW`], so that row's probabilities are exactly `1/K` and its
/// total variance exactly 0: Eq. 7 must fall back to the plain mean there.
fn client_logits() -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(77);
    (0..CLIENTS)
        .map(|c| {
            let mut logits = Tensor::randn(&[B, K], 2.0, &mut rng);
            logits.row_mut(FLAT_ROW).fill(0.5 * c as f32);
            logits
        })
        .collect()
}

/// Eqs. 6–7 written out: per row `r`, each client's probabilities
/// `p_c = softmax(z_c[r])` and their variance `v_c = mean_k (p_ck − 1/K)²`
/// (the probabilities' mean is `1/K`); the teacher row is `Σ_c β_c·p_c`
/// with `β_c = v_c / Σ_c' v_c'`, or `mean_c p_c` when `Σ v` is below
/// `MIN_TOTAL_VARIANCE`. Returns the teacher and, per row, the smallest
/// per-client variance and `Σ v`.
fn eq7_reference(logits: &[Tensor]) -> (Vec<f64>, Vec<(f64, f64)>) {
    let mut teacher = vec![0.0; B * K];
    let mut variances = Vec::new();
    for r in 0..B {
        let probs: Vec<Vec<f64>> = logits
            .iter()
            .map(|z| softmax64(&f64s(z)[r * K..(r + 1) * K]))
            .collect();
        let v: Vec<f64> = probs
            .iter()
            .map(|p| p.iter().map(|x| (x - 1.0 / K as f64).powi(2)).sum::<f64>() / K as f64)
            .collect();
        let total: f64 = v.iter().sum();
        let weighted = total > f64::from(MIN_TOTAL_VARIANCE);
        for (c, p) in probs.iter().enumerate() {
            let beta = if weighted {
                v[c] / total
            } else {
                1.0 / CLIENTS as f64
            };
            for k in 0..K {
                teacher[r * K + k] += beta * p[k];
            }
        }
        variances.push((v.iter().cloned().fold(f64::INFINITY, f64::min), total));
    }
    (teacher, variances)
}

/// Eqs. 6–7. Tolerance: the accumulator works in `f32`. Each teacher entry
/// is a `CLIENTS`-term sum of `v·p` over a `CLIENTS`-term `Σ v`, and each
/// `v` a `K`-term sum of squared deviations, so the plain rounding error
/// is a few tens of `u` relative — inside [`TOL`]. The deviations
/// `p − mean` cancel, though: an absolute error `δ ≈ 3u` in each costs `v`
/// a relative `2δ/√v`. The fixture asserts every client's variance on
/// every weighted row is at least `1e-2`, which bounds that term by
/// `4e-6` — still inside [`TOL`], and thousands of times below the gap
/// between the weighted teacher and the plain mean, which it also asserts.
#[test]
fn eq7_variance_weighted_logits_match_the_reference() {
    let logits = client_logits();
    let (want, variances) = eq7_reference(&logits);
    for (r, &(smallest, total)) in variances.iter().enumerate() {
        if r == FLAT_ROW {
            assert_eq!(total, 0.0, "row {r} is flat for every client");
        } else {
            assert!(smallest >= 1e-2, "row {r}: a client's variance {smallest}");
        }
    }
    let mut plain = LogitAccumulator::new(false);
    let mut weighted = LogitAccumulator::new(true);
    for z in &logits {
        let p = softmax(z, 1.0);
        plain.fold_probs(&p).unwrap();
        weighted.fold_probs(&p).unwrap();
    }
    let (plain, weighted) = (plain.finish().unwrap(), weighted.finish().unwrap());
    close_all(&weighted, &want, "Eq. 7 teacher");
    // The fallback row is the plain mean, and every other row is not.
    let gap = |r: usize| -> f64 {
        (0..K)
            .map(|k| f64::from((weighted.row(r)[k] - plain.row(r)[k]).abs()))
            .fold(0.0, f64::max)
    };
    for r in 0..B {
        if r == FLAT_ROW {
            assert_eq!(gap(r), 0.0, "row {r} falls back to the mean");
        } else {
            assert!(gap(r) > 1e3 * TOL, "row {r} is weighted: gap {}", gap(r));
        }
    }
}

/// Eq. 8: per class, `Σ_c n_c·P_c / Σ_c n_c` over the clients that hold
/// it; a class nobody holds stays absent. Tolerance: the accumulator sums
/// in `f64` and rounds once to `f32`. Every `n·P` is exact in `f64` (a
/// 24-bit mantissa times a small count), the sum of three such terms and
/// the division add a few `2⁻⁵³`, so the result is within half an `f32`
/// ulp of the reference — asserted as `2⁻²³·|want|` per coordinate.
#[test]
fn eq8_size_weighted_prototypes_match_the_reference() {
    let mut rng = Rng::seed_from_u64(88);
    // Class 0 on every client, class 1 on client 2 only, class 2 on
    // clients 0 and 1, class 3 on none.
    let holds = |c: usize, class: usize| match class {
        0 => true,
        1 => c == 2,
        2 => c < 2,
        _ => false,
    };
    let counts = [[5, 0, 17, 0], [1, 0, 40, 0], [9, 3, 0, 0]];
    let uploads: Vec<Vec<Option<Prototype>>> = (0..CLIENTS)
        .map(|c| {
            (0..K)
                .map(|class| {
                    holds(c, class).then(|| Prototype {
                        count: counts[c][class],
                        vector: Tensor::randn(&[D], 1.0, &mut rng),
                    })
                })
                .collect()
        })
        .collect();
    let mut acc = PrototypeAccumulator::new();
    for upload in &uploads {
        acc.fold(upload).unwrap();
    }
    let got = acc.finish().unwrap();
    for class in 0..K {
        let holders: Vec<&Prototype> = uploads.iter().filter_map(|u| u[class].as_ref()).collect();
        if holders.is_empty() {
            assert!(got[class].is_none(), "class {class} is held by nobody");
            continue;
        }
        let total: f64 = holders.iter().map(|p| p.count as f64).sum();
        let got = got[class].as_ref().expect("a held class has a prototype");
        for d in 0..D {
            let weighted: f64 = holders
                .iter()
                .map(|p| p.count as f64 * f64::from(p.vector.as_slice()[d]))
                .sum();
            let want = weighted / total;
            let got = f64::from(got.as_slice()[d]);
            assert!(
                (got - want).abs() <= f64::from(f32::EPSILON) * want.abs(),
                "class {class}[{d}]: production {got} vs reference {want}"
            );
        }
    }
}

/// Algorithm 1 (Eqs. 9–10): per pseudo-class `n`, keep the `⌈θ·|D_n|⌉`
/// rows nearest the class's global prototype in L2; a class without a
/// prototype keeps its first `⌈θ·|D_n|⌉` rows in index order. Tolerance:
/// none — the output is a set of row indices, compared exactly. It is
/// well defined because the fixture asserts that at every cut the last
/// kept and the first dropped reference distance differ by more than
/// `1e-4` relative, while an `f32` distance over `D` coordinates is off
/// by at most `(D + 2)·u ≈ 3e-7` relative: the `f32` ranking cannot
/// cross the cut. θ is `0.5` or `0.75`, exact in `f32`, so `⌈θ·n⌉` is the
/// same in both.
#[test]
fn eq10_filter_keeps_the_nearest_rows_per_pseudo_class() {
    const ROWS: usize = 24;
    let mut rng = Rng::seed_from_u64(99);
    let features = Tensor::randn(&[ROWS, D], 1.0, &mut rng);
    // Pseudo-labels (Eq. 9's argmax, given): classes of 9, 6, 6 and 3
    // rows, interleaved; class 3 has no prototype.
    let labels: Vec<usize> = (0..ROWS)
        .map(|i| match i % 8 {
            0 | 3 | 6 => 0,
            1 | 4 => 1,
            2 | 7 => 2,
            _ => 3,
        })
        .collect();
    let prototypes: Vec<Option<Tensor>> = (0..K)
        .map(|class| (class < 3).then(|| Tensor::randn(&[D], 1.0, &mut rng)))
        .collect();
    let x = f64s(&features);
    for theta in [0.5f32, 0.75] {
        let mut want = Vec::new();
        for (class, proto) in prototypes.iter().enumerate() {
            let members: Vec<usize> = (0..ROWS).filter(|&i| labels[i] == class).collect();
            let keep = (f64::from(theta) * members.len() as f64).ceil() as usize;
            let Some(proto) = proto else {
                want.extend(&members[..keep]);
                continue;
            };
            let proto = f64s(proto);
            let mut scored: Vec<(f64, usize)> = members
                .iter()
                .map(|&i| {
                    let d2: f64 = (0..D).map(|d| (x[i * D + d] - proto[d]).powi(2)).sum();
                    (d2.sqrt(), i)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            if keep < scored.len() {
                let (last, next) = (scored[keep - 1].0, scored[keep].0);
                assert!(
                    next - last > 1e-4 * next,
                    "class {class}: a near tie at the cut"
                );
            }
            want.extend(scored[..keep].iter().map(|&(_, i)| i));
        }
        want.sort_unstable();
        assert_eq!(
            filter_public(&features, &labels, &prototypes, theta),
            want,
            "θ = {theta}"
        );
    }
}
