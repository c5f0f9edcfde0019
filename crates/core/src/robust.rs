//! Robust aggregation primitives: trimmed means and medians.
//!
//! Admission control ([`crate::admission`]) rejects payloads that are
//! *malformed*; the helpers here defang payloads that are well-formed but
//! *wrong* — a Byzantine client's label-flipped logits or noised
//! prototypes pass every shape and finiteness check. The statistical
//! defenses follow the classic robust-aggregation literature:
//! coordinate-wise trimmed means (breakdown point = the trim fraction) and
//! distance-to-median outlier rejection.
//!
//! All functions are deterministic and allocation-light; ties broken by
//! `f32::total_cmp` keep results bit-identical across platforms.
//!
//! One implementation per order statistic: sort by `total_cmp`, read the
//! kept ranks. A trimmed mean sums its kept ranks ascending in `f64`, so
//! the accumulation chain — and with it every output bit — is a function
//! of the input multiset alone; `tests::outputs_are_pinned` holds the
//! bits.
//!
//! One carve-out: when ±∞ mixes into a kept range, the sum runs through
//! `∞ − ∞` or `NaN + NaN`, and IEEE 754 pins neither the sign nor the
//! payload of the resulting NaN — LLVM may commute the addend order
//! between otherwise-identical compilations, flipping which source NaN
//! propagates. The contract is therefore "identical bits, except any NaN
//! matches any NaN". Admission control rejects non-finite uploads, so the
//! carve-out never applies on the training path.

use std::fmt;

/// Aggregation failed in a way the caller must handle (never a panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AggregationError {
    /// No payloads to aggregate.
    Empty,
    /// Payload shapes disagree (across clients, or with the reference).
    ShapeMismatch,
}

impl fmt::Display for AggregationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "nothing to aggregate"),
            Self::ShapeMismatch => write!(f, "payload shapes disagree"),
        }
    }
}

impl std::error::Error for AggregationError {}

/// Which knowledge-aggregation rule the server applies to admitted uploads.
///
/// `Off` is the paper-faithful path — variance-weighted Eqs. 6–7 and the
/// size-weighted Eq. 8 mean. `Trimmed` swaps in the robust variants:
/// coordinate-wise trimmed-mean logit ensembling and distance-to-median
/// prototype outlier rejection, both parameterized by the same trim
/// fraction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum RobustAggregation {
    /// Paper-faithful aggregation (Eqs. 6–8 as printed).
    #[default]
    Off,
    /// Trimmed aggregation dropping up to `trim_fraction` of payloads per
    /// coordinate (logits) or per class (prototypes).
    Trimmed {
        /// Fraction of payloads to trim, in `[0, 0.5)`.
        trim_fraction: f32,
    },
}

impl RobustAggregation {
    /// The configured trim fraction, or `None` when robust aggregation is
    /// off.
    pub fn trim_fraction(&self) -> Option<f32> {
        match self {
            Self::Off => None,
            Self::Trimmed { trim_fraction } => Some(*trim_fraction),
        }
    }
}

/// How many elements a trimmed mean over `n` values drops from *each* end:
/// `floor(trim · n)`, capped so at least one value always survives.
pub fn trim_count(n: usize, trim_fraction: f32) -> usize {
    if n == 0 {
        return 0;
    }
    let k = (trim_fraction.clamp(0.0, 0.5) * n as f32).floor() as usize;
    k.min((n - 1) / 2)
}

/// Coordinate-wise trimmed mean over `values` (which are sorted in
/// place): drops [`trim_count`] elements from each end and averages the
/// rest, summing them ascending in `f64`. With `trim_fraction == 0` this
/// is the plain mean.
///
/// Returns 0.0 for an empty slice.
pub fn trimmed_mean(values: &mut [f32], trim_fraction: f32) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let k = trim_count(values.len(), trim_fraction);
    values.sort_unstable_by(f32::total_cmp);
    let kept = &values[k..values.len() - k];
    let sum: f64 = kept.iter().map(|&v| f64::from(v)).sum();
    (sum / kept.len() as f64) as f32
}

/// Median of `values` (which are sorted in place): midpoint of the two
/// central elements for even lengths. Returns 0.0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Coordinate-wise median vector of equal-length rows.
///
/// # Errors
///
/// [`AggregationError::Empty`] with no rows, [`AggregationError::ShapeMismatch`]
/// when row lengths disagree.
pub fn coordinate_median(rows: &[&[f32]]) -> Result<Vec<f32>, AggregationError> {
    let first = rows.first().ok_or(AggregationError::Empty)?;
    let dim = first.len();
    if rows.iter().any(|r| r.len() != dim) {
        return Err(AggregationError::ShapeMismatch);
    }
    let mut column = vec![0.0f64; rows.len()];
    Ok((0..dim)
        .map(|j| {
            for (slot, row) in column.iter_mut().zip(rows) {
                *slot = f64::from(row[j]);
            }
            median(&mut column) as f32
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedpkd::logits::{aggregate_logits_trimmed_from_probs, client_probs};
    use fedpkd_netsim::Fnv1a;
    use fedpkd_rng::Rng;
    use fedpkd_tensor::Tensor;

    #[test]
    fn trim_count_respects_bounds() {
        assert_eq!(trim_count(0, 0.2), 0);
        assert_eq!(trim_count(5, 0.0), 0);
        assert_eq!(trim_count(5, 0.2), 1);
        assert_eq!(trim_count(10, 0.2), 2);
        // Never trims everything: 3 values at trim 0.5 keeps the median.
        assert_eq!(trim_count(3, 0.5), 1);
        assert_eq!(trim_count(1, 0.5), 0);
        // Out-of-range fractions are clamped.
        assert_eq!(trim_count(10, 2.0), 4);
        assert_eq!(trim_count(10, -1.0), 0);
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let mut vals = [100.0, 1.0, 2.0, 3.0, -100.0];
        // trim 0.2 of 5 → drop one from each end → mean(1, 2, 3).
        assert!((trimmed_mean(&mut vals, 0.2) - 2.0).abs() < 1e-6);
        let mut vals = [1.0, 2.0, 3.0];
        assert!((trimmed_mean(&mut vals, 0.0) - 2.0).abs() < 1e-6);
        assert_eq!(trimmed_mean(&mut [], 0.2), 0.0);
    }

    #[test]
    fn trimmed_mean_below_breakdown_ignores_adversary() {
        // 5 honest values near 1.0 plus one outlier at 1e6; trim 0.2 of 6
        // drops one from each end, so the outlier cannot move the mean far.
        let mut vals = [1.0, 1.1, 0.9, 1.0, 1.05, 1e6];
        let m = trimmed_mean(&mut vals, 0.2);
        assert!((0.9..=1.1).contains(&m), "trimmed mean {m}");
    }

    #[test]
    fn trimmed_mean_above_breakdown_is_overwhelmed() {
        // 2 honest vs 3 adversarial values: a 0.2 trim (drops 1 per end of
        // 5) cannot save the mean — documents the breakdown point.
        let mut vals = [1.0, 1.0, 1e6, 1e6, 1e6];
        let m = trimmed_mean(&mut vals, 0.2);
        assert!(m > 1e5, "mean {m} should be dragged by the majority");
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn coordinate_median_is_per_column() {
        let rows: Vec<&[f32]> = vec![&[1.0, 10.0], &[2.0, 20.0], &[300.0, 0.0]];
        let m = coordinate_median(&rows).unwrap();
        assert_eq!(m, vec![2.0, 10.0]);
        assert_eq!(coordinate_median(&[]), Err(AggregationError::Empty));
        let ragged: Vec<&[f32]> = vec![&[1.0], &[1.0, 2.0]];
        assert_eq!(
            coordinate_median(&ragged),
            Err(AggregationError::ShapeMismatch)
        );
    }

    /// One cell of a pinned input: uniform values salted with signed
    /// zeros and a duplicated constant, plus — unless `finite` — NaN and
    /// ±∞, in the proportions the deleted cross-tier proptests drew.
    fn cell(rng: &mut Rng, finite: bool) -> f64 {
        match rng.range_usize(if finite { 3 } else { 0 }, 9) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5 => 3.25,
            _ => -50.0 + rng.next_f64() * 100.0,
        }
    }

    fn cells32(rng: &mut Rng, len: usize, finite: bool) -> Vec<f32> {
        (0..len).map(|_| cell(rng, finite) as f32).collect()
    }

    /// Folds one output into `hash`. Every NaN folds as the same bits: a
    /// sum through `∞ − ∞` or `NaN + NaN` has no pinned sign or payload
    /// (module docs), so those are outside the contract.
    fn fold(hash: &mut Fnv1a, v: f64) {
        let v = if v.is_nan() { f64::NAN } else { v };
        hash.update(&v.to_bits().to_le_bytes());
    }

    /// The output bits of every order statistic here, and of the trimmed
    /// logit aggregation built on them, on seeded adversarial inputs.
    /// The literals were taken at PR 18's commit, the last that carried
    /// four faster implementations next to this one, under the default
    /// tier — what a run produced then is what it produces now. The
    /// lengths straddle the sizes at which that commit switched between
    /// them (16, 64).
    #[test]
    fn outputs_are_pinned() {
        const LENS: [usize; 9] = [1, 2, 15, 16, 17, 63, 64, 65, 200];
        const TRIMS: [f32; 3] = [0.0, 0.2, 0.49];
        let mut rng = Rng::seed_from_u64(0x0b17_5eed);
        let mut hashes = [Fnv1a::new(); 4];
        let [trimmed, med, coord, logits] = &mut hashes;
        for (len, finite) in LENS.into_iter().flat_map(|l| [(l, false), (l, true)]) {
            for _ in 0..8 {
                for trim in TRIMS {
                    let mean = trimmed_mean(&mut cells32(&mut rng, len, finite), trim);
                    fold(trimmed, f64::from(mean));
                }
                let mut values: Vec<f64> = (0..len).map(|_| cell(&mut rng, finite)).collect();
                fold(med, median(&mut values));

                let rows: Vec<Vec<f32>> = (0..len).map(|_| cells32(&mut rng, 3, finite)).collect();
                let views: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
                for v in coordinate_median(&views).unwrap() {
                    fold(coord, f64::from(v));
                }

                // The draws of a deleted clipped average's weights and
                // reference, kept so the inputs below stay the pinned ones.
                for _ in 0..len {
                    rng.next_f64();
                }
                cells32(&mut rng, 3, true);
            }
            // That commit swept 3 rows sequentially and fanned 130 out
            // across workers, eight coordinates at a time.
            for (n, k) in [(3, 10), (130, 10)] {
                let clients: Vec<Tensor> = (0..len)
                    .map(|_| {
                        let logits = cells32(&mut rng, n * k, finite);
                        let logits = logits.into_iter().map(|v| v * 0.125).collect();
                        Tensor::from_vec(logits, &[n, k]).unwrap()
                    })
                    .collect();
                for trim in TRIMS {
                    let out =
                        aggregate_logits_trimmed_from_probs(&client_probs(&clients), trim).unwrap();
                    for &v in out.as_slice() {
                        fold(logits, f64::from(v));
                    }
                }
            }
        }
        assert_eq!(
            hashes.map(Fnv1a::finish),
            [
                0x82fd_f820_d6b4_ac54,
                0x8179_74d2_8e60_0db6,
                0x223f_e0b3_ad5b_3bfc,
                0x321e_51f0_3432_7659,
            ],
            "trimmed_mean, median, coordinate_median, aggregate_logits_trimmed_from_probs"
        );
    }
}
