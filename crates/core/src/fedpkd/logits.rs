//! Variance-weighted logit aggregation (Eqs. 6–7) and its Byzantine-robust
//! trimmed variant.

use crate::robust::{trim_count, trimmed_mean, AggregationError};
use fedpkd_tensor::ops::{row_variance, softmax};
use fedpkd_tensor::Tensor;

/// Total-variance floor below which Eq. 7 weighting falls back to the plain
/// mean: variances this small are dominated by float rounding (and a
/// non-finite total means a non-finite payload slipped in), so dividing by
/// them would amplify noise rather than confidence.
pub const MIN_TOTAL_VARIANCE: f32 = 1e-12;

fn check_alignment(probs: &[Tensor]) -> Result<&Tensor, AggregationError> {
    let first = probs.first().ok_or(AggregationError::Empty)?;
    if probs.iter().any(|p| p.shape() != first.shape()) {
        return Err(AggregationError::ShapeMismatch);
    }
    Ok(first)
}

/// Softmax (temperature 1) of every client's logits — the shared
/// probability pass. Aggregation, trimming, and telemetry all consume
/// these, so buffering callers compute them once here and hand the same
/// tensors to each consumer instead of re-running softmax per consumer.
pub fn client_probs(client_logits: &[Tensor]) -> Vec<Tensor> {
    client_logits.iter().map(|l| softmax(l, 1.0)).collect()
}

/// Aggregates per-client public-set probabilities ([`client_probs`]) into
/// a global teacher distribution.
///
/// For each sample, every client's contribution is weighted by the variance
/// of its output vector (Eq. 7) — the paper's confidence proxy: a confident
/// prediction has one dominant entry and hence high variance. Both the
/// variance and the weighted combination (Eq. 6) are computed over the
/// clients' **softmax probabilities** rather than their raw logits:
/// independently trained, architecturally heterogeneous models emit logits
/// at arbitrary scales, so raw-logit variances and sums let
/// large-magnitude (often confidently wrong, specialized) clients dominate
/// regardless of relative confidence. On the simplex, variances are
/// bounded and cross-client comparable, and each output row is a
/// probability distribution.
///
/// When every client is (near-)flat on a sample — total variance below
/// [`MIN_TOTAL_VARIANCE`], or non-finite — or when `variance_weighting` is
/// disabled, the plain mean of the probabilities is used.
///
/// This is the *buffered* entry point over the canonical streaming fold:
/// it folds the clients through a
/// [`LogitAccumulator`](crate::streaming::LogitAccumulator) in slice
/// order, so a server that streams uploads through the same accumulator in
/// the same (canonical client) order produces bit-identical output by
/// construction. The same probabilities can feed
/// [`aggregation_stats_from_probs`] and the trimmed variant.
///
/// # Errors
///
/// [`AggregationError::Empty`] with no clients,
/// [`AggregationError::ShapeMismatch`] when the matrices disagree in shape.
pub fn aggregate_logits_from_probs(
    probs: &[Tensor],
    variance_weighting: bool,
) -> Result<Tensor, AggregationError> {
    check_alignment(probs)?;
    let mut acc = crate::streaming::LogitAccumulator::new(variance_weighting);
    for p in probs {
        acc.fold_probs(p)?;
    }
    acc.finish()
}

/// Byzantine-robust variant of Eqs. 6–7: a coordinate-wise trimmed mean of
/// the clients' softmax probabilities ([`client_probs`]), renormalized so
/// each row is again a distribution.
///
/// Trimming replaces the variance weighting — Eq. 7 rewards exactly what a
/// confident adversary fakes (a peaked output), so under attack the
/// confidence proxy becomes the attack surface. The trimmed mean instead
/// bounds any minority's influence: per (sample, class) entry, the
/// `trim_count(clients, trim_fraction)` largest and smallest probabilities
/// are dropped before averaging, so fewer than `trim_fraction` of clients
/// cannot move an entry past the honest value range.
///
/// One sequential sweep over the samples: per class, the clients'
/// probabilities for the sample are gathered into one column and
/// trim-averaged; trimming each coordinate independently breaks the
/// sum-to-one invariant, so the row is then renormalized to keep
/// downstream KD losses on a distribution (an all-zero row falls back to
/// uniform).
///
/// # Errors
///
/// [`AggregationError::Empty`] with no clients,
/// [`AggregationError::ShapeMismatch`] when the matrices disagree in shape.
pub fn aggregate_logits_trimmed_from_probs(
    probs: &[Tensor],
    trim_fraction: f32,
) -> Result<Tensor, AggregationError> {
    let first = check_alignment(probs)?;
    let (n, k) = (first.rows(), first.cols());
    let mut out = Tensor::zeros(&[n, k]);
    let mut column = vec![0.0f32; probs.len()];
    for i in 0..n {
        let row = out.row_mut(i);
        for (j, o) in row.iter_mut().enumerate() {
            for (slot, p) in column.iter_mut().zip(probs) {
                *slot = p.row(i)[j];
            }
            *o = trimmed_mean(&mut column, trim_fraction);
        }
        let sum: f32 = row.iter().sum();
        if sum > 0.0 {
            for o in row.iter_mut() {
                *o /= sum;
            }
        } else {
            for o in row.iter_mut() {
                *o = 1.0 / k as f32;
            }
        }
    }
    Ok(out)
}

/// Fraction of values a trimmed aggregation over `clients` payloads actually
/// drops from each end — `trim_count / clients`, for telemetry.
pub fn effective_trim(clients: usize, trim_fraction: f32) -> f64 {
    if clients == 0 {
        return 0.0;
    }
    trim_count(clients, trim_fraction) as f64 / clients as f64
}

/// Pseudo-labels from the aggregated teacher distribution (Eq. 9): the
/// per-row argmax.
pub fn pseudo_labels(aggregated: &Tensor) -> Vec<usize> {
    aggregated.argmax_rows()
}

/// Diagnostic summary of one logit-aggregation step, for telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregationStats {
    /// Per-client mean of the Eq. 7 sample weights `β` (each sample's
    /// weights sum to 1 across clients, so a uniform ensemble reports
    /// `1 / clients` everywhere).
    pub mean_client_weight: Vec<f64>,
    /// Fraction of samples on which at least two clients disagree about the
    /// argmax class — a direct measure of ensemble conflict.
    pub disagreement: f64,
}

/// Computes [`AggregationStats`] over the clients' probabilities
/// ([`client_probs`]), mirroring the weighting
/// [`aggregate_logits_from_probs`] applies. Inputs it would reject (empty
/// or misaligned) yield the default (empty) stats rather than an error —
/// diagnostics never gate the round.
pub fn aggregation_stats_from_probs(
    probs: &[Tensor],
    variance_weighting: bool,
) -> AggregationStats {
    let Ok(first) = check_alignment(probs) else {
        return AggregationStats::default();
    };
    let n = first.rows();
    let clients = probs.len();
    let argmaxes: Vec<Vec<usize>> = probs.iter().map(Tensor::argmax_rows).collect();
    let disagreement = if n == 0 {
        0.0
    } else {
        (0..n)
            .filter(|&i| argmaxes.iter().any(|a| a[i] != argmaxes[0][i]))
            .count() as f64
            / n as f64
    };

    let mut weight_totals = vec![0.0f64; clients];
    if variance_weighting {
        let variances: Vec<Vec<f32>> = probs.iter().map(row_variance).collect();
        for i in 0..n {
            let total: f32 = variances.iter().map(|v| v[i]).sum();
            for (c, v) in variances.iter().enumerate() {
                let beta = if total.is_finite() && total > MIN_TOTAL_VARIANCE {
                    f64::from(v[i] / total)
                } else {
                    1.0 / clients as f64
                };
                weight_totals[c] += beta;
            }
        }
    } else {
        for w in &mut weight_totals {
            *w = n as f64 / clients as f64;
        }
    }
    let mean_client_weight = weight_totals
        .into_iter()
        .map(|w| if n == 0 { 0.0 } else { w / n as f64 })
        .collect();
    AggregationStats {
        mean_client_weight,
        disagreement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn output_rows_are_distributions() {
        let a = t(&[8.0, 0.0, 0.0, 1.0, 2.0, 3.0], &[2, 3]);
        let b = t(&[0.0, 0.4, 0.2, -1.0, 0.0, 1.0], &[2, 3]);
        for weighting in [true, false] {
            let agg =
                aggregate_logits_from_probs(&client_probs(&[a.clone(), b.clone()]), weighting)
                    .unwrap();
            for r in 0..agg.rows() {
                let sum: f32 = agg.row(r).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5, "row sums to {sum}");
                assert!(agg.row(r).iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn confident_client_dominates() {
        // Client A is confident on sample 0 (high logit variance), client B
        // is flat; A's prediction must dominate the aggregate.
        let a = t(&[8.0, 0.0, 0.0], &[1, 3]);
        let b = t(&[0.0, 0.4, 0.2], &[1, 3]);
        let agg = aggregate_logits_from_probs(&client_probs(&[a, b]), true).unwrap();
        assert_eq!(pseudo_labels(&agg), vec![0]);
        assert!(agg.row(0)[0] > 0.9, "aggregate {:?}", agg.row(0));
    }

    #[test]
    fn logit_scale_does_not_hijack_the_mixture() {
        // Client A emits huge-magnitude logits but its *relative* confidence
        // equals client B's; the mixture must stay a bounded distribution
        // rather than being dragged to A's scale.
        let a = t(&[100.0, 0.0], &[1, 2]);
        let b = t(&[0.0, 1.0], &[1, 2]);
        let agg = aggregate_logits_from_probs(&client_probs(&[a, b]), true).unwrap();
        assert!(agg.row(0).iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((agg.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn uniform_fallback_when_all_variances_zero() {
        let a = t(&[2.0, 2.0], &[1, 2]);
        let b = t(&[4.0, 4.0], &[1, 2]);
        let agg = aggregate_logits_from_probs(&client_probs(&[a, b]), true).unwrap();
        // Both clients are flat → mixture of two uniform distributions.
        assert!((agg.row(0)[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn non_finite_total_variance_falls_back_to_uniform() {
        // A NaN logit poisons softmax and variance for client A; the
        // weighting path must not divide by a NaN total.
        let a = t(&[f32::NAN, 1.0], &[1, 2]);
        let b = t(&[1.0, 1.0], &[1, 2]);
        let agg = aggregate_logits_from_probs(&client_probs(&[a, b]), true).unwrap();
        // Fallback averages A's (NaN) and B's (uniform) rows; B's half is
        // intact. (Admission control upstream rejects such payloads before
        // they reach aggregation — this guards the primitive itself.)
        assert!(agg
            .row(0)
            .iter()
            .all(|v| v.is_nan() || (*v - 0.25).abs() < 1e-5));
    }

    #[test]
    fn uniform_mode_is_plain_probability_mean() {
        let a = t(&[1.0, 3.0], &[1, 2]);
        let b = t(&[3.0, 5.0], &[1, 2]);
        let agg =
            aggregate_logits_from_probs(&client_probs(&[a.clone(), b.clone()]), false).unwrap();
        let pa = softmax(&a, 1.0);
        let pb = softmax(&b, 1.0);
        let expected = pa.add(&pb).unwrap().scale(0.5);
        for (x, y) in agg.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn single_client_aggregation_is_its_softmax() {
        let a = t(&[1.0, -2.0, 0.5, 0.0, 1.0, 2.0], &[2, 3]);
        let agg =
            aggregate_logits_from_probs(&client_probs(std::slice::from_ref(&a)), true).unwrap();
        let expected = softmax(&a, 1.0);
        for (x, y) in agg.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn weights_are_per_sample_not_per_client() {
        // Client A confident on sample 0, client B confident on sample 1:
        // each should win its own sample.
        let a = t(&[9.0, 0.0, 0.1, 0.2], &[2, 2]);
        let b = t(&[0.1, 0.2, 0.0, 9.0], &[2, 2]);
        let agg = aggregate_logits_from_probs(&client_probs(&[a, b]), true).unwrap();
        assert_eq!(pseudo_labels(&agg), vec![0, 1]);
        assert!(agg.row(0)[0] > 0.9);
        assert!(agg.row(1)[1] > 0.9);
    }

    #[test]
    fn trimmed_aggregation_survives_a_flipping_minority() {
        // Four honest clients vote class 0; one adversary votes class 1
        // with maximal confidence. Variance weighting would reward the
        // adversary's peaked output; the trimmed mean discards it.
        let honest = t(&[4.0, 0.0], &[1, 2]);
        let adversary = t(&[-50.0, 50.0], &[1, 2]);
        let clients = vec![
            honest.clone(),
            honest.clone(),
            honest.clone(),
            honest,
            adversary,
        ];
        let agg = aggregate_logits_trimmed_from_probs(&client_probs(&clients), 0.2).unwrap();
        assert_eq!(pseudo_labels(&agg), vec![0]);
        assert!(agg.row(0)[0] > 0.9, "aggregate {:?}", agg.row(0));
        let sum: f32 = agg.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn trimmed_with_zero_fraction_is_plain_mean() {
        let a = t(&[1.0, 3.0], &[1, 2]);
        let b = t(&[3.0, 5.0], &[1, 2]);
        let trimmed =
            aggregate_logits_trimmed_from_probs(&client_probs(&[a.clone(), b.clone()]), 0.0)
                .unwrap();
        let uniform = aggregate_logits_from_probs(&client_probs(&[a, b]), false).unwrap();
        for (x, y) in trimmed.as_slice().iter().zip(uniform.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn effective_trim_reports_dropped_fraction() {
        assert_eq!(effective_trim(0, 0.2), 0.0);
        assert_eq!(effective_trim(5, 0.2), 0.2);
        assert_eq!(effective_trim(4, 0.2), 0.0); // floor(0.8) = 0 dropped
    }

    #[test]
    fn stats_weights_sum_to_one_and_flag_disagreement() {
        // Sample 0: clients agree (class 0); sample 1: they disagree.
        let a = t(&[9.0, 0.0, 9.0, 0.0], &[2, 2]);
        let b = t(&[5.0, 0.0, 0.0, 5.0], &[2, 2]);
        let stats = aggregation_stats_from_probs(&client_probs(&[a, b]), true);
        assert_eq!(stats.mean_client_weight.len(), 2);
        let sum: f64 = stats.mean_client_weight.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        assert!((stats.disagreement - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_uniform_mode_reports_equal_weights() {
        let a = t(&[9.0, 0.0], &[1, 2]);
        let b = t(&[0.0, 9.0], &[1, 2]);
        let stats = aggregation_stats_from_probs(&client_probs(&[a, b]), false);
        assert_eq!(stats.mean_client_weight, vec![0.5, 0.5]);
        assert_eq!(stats.disagreement, 1.0);
    }

    #[test]
    fn degenerate_inputs_are_errors_not_panics() {
        assert_eq!(
            aggregate_logits_from_probs(&[], true),
            Err(AggregationError::Empty)
        );
        assert_eq!(
            aggregate_logits_trimmed_from_probs(&[], 0.2),
            Err(AggregationError::Empty)
        );
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[1.0, 2.0, 3.0], &[1, 3]);
        assert_eq!(
            aggregate_logits_from_probs(&client_probs(&[a.clone(), b.clone()]), true),
            Err(AggregationError::ShapeMismatch)
        );
        assert_eq!(
            aggregate_logits_trimmed_from_probs(&client_probs(&[a.clone(), b.clone()]), 0.2),
            Err(AggregationError::ShapeMismatch)
        );
        // Stats never gate the round: degenerate input → default stats.
        assert_eq!(
            aggregation_stats_from_probs(&[], true),
            AggregationStats::default()
        );
        assert_eq!(
            aggregation_stats_from_probs(&client_probs(&[a, b]), true),
            AggregationStats::default()
        );
    }
}
