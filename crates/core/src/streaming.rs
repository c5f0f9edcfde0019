//! Streaming aggregation accumulators: O(classes·dims) server state.
//!
//! The paper's server only ever needs per-sample logit aggregates
//! (Eqs. 6–7) and per-class prototype means (Eq. 8) — sufficient
//! statistics whose size is independent of how many clients contributed.
//! These accumulators hold exactly those statistics, so the event-driven
//! driver can *fold uploads in as they arrive* instead of buffering
//! O(clients) payloads and aggregating at a barrier.
//!
//! # Determinism: one canonical fold
//!
//! Each accumulator is THE definition of its aggregation: the buffered
//! entry points ([`crate::fedpkd::logits::aggregate_logits_from_probs`],
//! [`crate::fedpkd::prototypes::aggregate_prototypes`]) are loops over
//! `fold_probs` / `fold` followed by `finish`. A streaming caller that
//! folds uploads in canonical client order (ascending client id, which the
//! work-stealing scheduler's ordered commit guarantees) therefore produces
//! bit-identical results to the buffered path *by construction* — there is
//! no second implementation to drift. Floating-point addition is not
//! associative, so this ordering discipline, not thread count, is what
//! makes same-seed replays bit-identical.
//!
//! The robust (trimmed) aggregation variants need order statistics over
//! the whole cohort and therefore cannot stream; callers that enable them
//! buffer the cohort's payloads (O(cohort), still never O(fleet)) and use
//! the functions in [`crate::fedpkd::logits`] /
//! [`crate::fedpkd::prototypes`] directly.

use crate::fedpkd::logits::MIN_TOTAL_VARIANCE;
use crate::fedpkd::prototypes::Prototype;
use crate::robust::AggregationError;
use fedpkd_tensor::ops::row_variance;
use fedpkd_tensor::Tensor;

/// Streaming form of the Eq. 6–7 variance-weighted logit aggregation.
///
/// Folds one client's public-set softmax probabilities at a time, keeping
/// only the sufficient statistics (`Σ p`, `Σ v·p`, `Σ v` over the softmax
/// probabilities `p` and their per-sample variances `v`) — memory is
/// O(samples·classes) regardless of client count.
#[derive(Debug, Clone)]
pub struct LogitAccumulator {
    variance_weighting: bool,
    clients: usize,
    rows: usize,
    cols: usize,
    /// `Σ_c p_c`, row-major `rows × cols`.
    psum: Vec<f32>,
    /// `Σ_c v_c[i] · p_c[i][j]`, row-major; empty without weighting.
    wsum: Vec<f32>,
    /// `Σ_c v_c[i]` per sample; empty without weighting.
    vtot: Vec<f32>,
}

impl LogitAccumulator {
    /// An empty accumulator; `variance_weighting` selects Eq. 7 confidence
    /// weighting over the plain probability mean.
    pub fn new(variance_weighting: bool) -> Self {
        Self {
            variance_weighting,
            clients: 0,
            rows: 0,
            cols: 0,
            psum: Vec::new(),
            wsum: Vec::new(),
            vtot: Vec::new(),
        }
    }

    /// Clients folded so far.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Folds one client's softmax probabilities (temperature 1) into the
    /// aggregate; the first client fixes the expected shape. The caller
    /// runs the softmax pass once per client and can hand the same tensor
    /// to telemetry
    /// ([`crate::fedpkd::logits::aggregation_stats_from_probs`]).
    ///
    /// # Errors
    ///
    /// [`AggregationError::ShapeMismatch`] when `probs` disagrees with the
    /// first client's shape (the upload is not folded).
    pub fn fold_probs(&mut self, probs: &Tensor) -> Result<(), AggregationError> {
        let (n, k) = (probs.rows(), probs.cols());
        if self.clients == 0 {
            self.rows = n;
            self.cols = k;
            self.psum = vec![0.0; n * k];
            if self.variance_weighting {
                self.wsum = vec![0.0; n * k];
                self.vtot = vec![0.0; n];
            }
        } else if (n, k) != (self.rows, self.cols) {
            return Err(AggregationError::ShapeMismatch);
        }
        let p = probs.as_slice();
        if self.variance_weighting {
            let variances = row_variance(probs);
            for (i, &v) in variances.iter().enumerate() {
                self.vtot[i] += v;
                for j in 0..k {
                    self.wsum[i * k + j] += v * p[i * k + j];
                }
            }
        }
        for (s, &x) in self.psum.iter_mut().zip(p) {
            *s += x;
        }
        self.clients += 1;
        Ok(())
    }

    /// Finalizes the aggregate teacher distribution: per sample, the
    /// variance-weighted combination `Σ v·p / Σ v` when the total variance
    /// is finite and above [`MIN_TOTAL_VARIANCE`], otherwise (and always
    /// without weighting) the plain mean `Σ p / clients`.
    ///
    /// # Errors
    ///
    /// [`AggregationError::Empty`] when no client was folded.
    pub fn finish(self) -> Result<Tensor, AggregationError> {
        if self.clients == 0 {
            return Err(AggregationError::Empty);
        }
        let (n, k) = (self.rows, self.cols);
        let mean_w = 1.0 / self.clients as f32;
        let mut out = vec![0.0f32; n * k];
        for i in 0..n {
            let weighted = self.variance_weighting && {
                let total = self.vtot[i];
                total.is_finite() && total > MIN_TOTAL_VARIANCE
            };
            let row = &mut out[i * k..(i + 1) * k];
            if weighted {
                let inv = 1.0 / self.vtot[i];
                for (o, &w) in row.iter_mut().zip(&self.wsum[i * k..(i + 1) * k]) {
                    *o = w * inv;
                }
            } else {
                for (o, &s) in row.iter_mut().zip(&self.psum[i * k..(i + 1) * k]) {
                    *o = s * mean_w;
                }
            }
        }
        Ok(Tensor::from_vec(out, &[n, k]).expect("accumulator shape is consistent"))
    }
}

/// Streaming form of the Eq. 8 size-weighted prototype aggregation.
///
/// Folds one client's per-class prototypes at a time, keeping one `f64`
/// weighted-sum vector and sample total per class — memory is
/// O(classes·dims) regardless of client count.
#[derive(Debug, Clone, Default)]
pub struct PrototypeAccumulator {
    clients: usize,
    classes: usize,
    sums: Vec<Option<Vec<f64>>>,
    totals: Vec<usize>,
}

impl PrototypeAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clients folded so far.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Folds one client's local prototypes (`None` = class absent on that
    /// client). The first client fixes the class count; the first
    /// contributor to a class fixes that class's width.
    ///
    /// # Errors
    ///
    /// [`AggregationError::ShapeMismatch`] when the class count or a
    /// prototype width disagrees with earlier clients. The fold is *not*
    /// transactional on this error — callers reject misshapen uploads at
    /// admission, before folding.
    pub fn fold(&mut self, prototypes: &[Option<Prototype>]) -> Result<(), AggregationError> {
        if self.clients == 0 {
            self.classes = prototypes.len();
            self.sums = vec![None; self.classes];
            self.totals = vec![0; self.classes];
        } else if prototypes.len() != self.classes {
            return Err(AggregationError::ShapeMismatch);
        }
        for (class, proto) in prototypes.iter().enumerate() {
            let Some(p) = proto else { continue };
            let sum = self.sums[class].get_or_insert_with(|| vec![0.0; p.vector.len()]);
            if sum.len() != p.vector.len() {
                return Err(AggregationError::ShapeMismatch);
            }
            for (s, &v) in sum.iter_mut().zip(p.vector.as_slice()) {
                *s += p.count as f64 * v as f64;
            }
            self.totals[class] += p.count;
        }
        self.clients += 1;
        Ok(())
    }

    /// Finalizes the global prototypes: per class, the size-weighted mean
    /// over every contributor, or `None` for classes nobody held.
    ///
    /// # Errors
    ///
    /// [`AggregationError::Empty`] when no client was folded.
    pub fn finish(self) -> Result<Vec<Option<Tensor>>, AggregationError> {
        if self.clients == 0 {
            return Err(AggregationError::Empty);
        }
        Ok(self
            .sums
            .into_iter()
            .zip(self.totals)
            .map(|(sum, total)| size_weighted_mean(sum, total))
            .collect())
    }
}

/// `(Σ count·vector) / Σ count` as an `f32` tensor, or `None` when nothing
/// contributed.
pub(crate) fn size_weighted_mean(weighted_sum: Option<Vec<f64>>, total: usize) -> Option<Tensor> {
    let sum = weighted_sum?;
    if total == 0 {
        return None;
    }
    let mean: Vec<f32> = sum.into_iter().map(|s| (s / total as f64) as f32).collect();
    let dim = mean.len();
    Some(Tensor::from_vec(mean, &[dim]).expect("width is consistent"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedpkd::logits::{aggregate_logits_from_probs, client_probs};
    use crate::fedpkd::prototypes::aggregate_prototypes;
    use fedpkd_rng::Rng;

    #[test]
    fn logit_fold_is_bit_identical_to_buffered_aggregation() {
        let mut rng = Rng::seed_from_u64(11);
        let logits: Vec<Tensor> = (0..7)
            .map(|_| Tensor::rand_uniform(&[5, 4], -3.0, 3.0, &mut rng))
            .collect();
        let clients = client_probs(&logits);
        for weighting in [true, false] {
            let buffered = aggregate_logits_from_probs(&clients, weighting).unwrap();
            let mut acc = LogitAccumulator::new(weighting);
            for p in &clients {
                acc.fold_probs(p).unwrap();
            }
            let streamed = acc.finish().unwrap();
            let a: Vec<u32> = buffered.as_slice().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = streamed.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "weighting={weighting}");
        }
    }

    #[test]
    fn logit_accumulator_rejects_shape_drift_and_empty_finish() {
        let mut acc = LogitAccumulator::new(true);
        assert_eq!(acc.clone().finish(), Err(AggregationError::Empty));
        acc.fold_probs(&Tensor::zeros(&[2, 3])).unwrap();
        assert_eq!(
            acc.fold_probs(&Tensor::zeros(&[2, 4])),
            Err(AggregationError::ShapeMismatch)
        );
        assert_eq!(acc.clients(), 1);
        assert!(acc.finish().is_ok());
    }

    fn proto(count: usize, values: &[f32]) -> Prototype {
        Prototype {
            count,
            vector: Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        }
    }

    #[test]
    fn prototype_fold_is_bit_identical_to_buffered_aggregation() {
        let clients: Vec<Vec<Option<Prototype>>> = vec![
            vec![
                Some(proto(3, &[1.0, -2.0])),
                None,
                Some(proto(1, &[0.5, 0.5])),
            ],
            vec![
                None,
                Some(proto(2, &[4.0, 4.0])),
                Some(proto(5, &[-1.0, 2.0])),
            ],
            vec![Some(proto(1, &[9.0, 9.0])), None, None],
        ];
        let buffered = aggregate_prototypes(&clients).unwrap();
        let mut acc = PrototypeAccumulator::new();
        for c in &clients {
            acc.fold(c).unwrap();
        }
        let streamed = acc.finish().unwrap();
        assert_eq!(buffered.len(), streamed.len());
        for (a, b) in buffered.iter().zip(&streamed) {
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    let ab: Vec<u32> = a.as_slice().iter().map(|v| v.to_bits()).collect();
                    let bb: Vec<u32> = b.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(ab, bb);
                }
                other => panic!("coverage mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn prototype_accumulator_rejects_mismatches() {
        let mut acc = PrototypeAccumulator::new();
        assert_eq!(
            PrototypeAccumulator::new().finish(),
            Err(AggregationError::Empty)
        );
        acc.fold(&[Some(proto(1, &[1.0, 2.0])), None]).unwrap();
        assert_eq!(
            acc.fold(&[Some(proto(1, &[1.0]))]),
            Err(AggregationError::ShapeMismatch),
            "class-count drift"
        );
        assert_eq!(
            acc.fold(&[Some(proto(1, &[1.0])), None]),
            Err(AggregationError::ShapeMismatch),
            "width drift"
        );
    }
}
