//! An independent oracle for the paper's per-batch training objectives.
//!
//! Each production objective — Eqs. 11–13 (`server_objective`), Eq. 15
//! (`distill_objective`) and Eq. 16 (`supervised_objective`) — is diffed
//! against a naive `f64` reference written straight from the equations:
//! one loop per term, no kernels, no fused softmax families, no shared
//! code with the product. The gradient of Eq. 13 is also checked by
//! central finite differences of the reference objective, so the reference
//! gradient is not merely a second copy of the same algebra.
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
