//! Trainable global prototypes with adaptive class-wise margins
//! (FedProtoKD extension).
//!
//! The paper freezes global prototypes at the size-weighted means of
//! Eq. 8. FedProtoKD (Das et al., 2025) shows that under strong
//! heterogeneity it pays to treat the server-side prototypes as
//! *parameters*: each round they are pulled toward the freshly aggregated
//! means by gradient, which low-pass-filters the round-to-round jitter of
//! sparse class coverage, and a per-class *margin* — a learned acceptance
//! radius in feature space — adapts toward the class's observed
//! within-class distance scale and hardens the Eq. 10 filter.
//!
//! The θ cut is *relative*: it keeps the closest θ fraction of every class
//! even when the whole class is garbage. The margin is the *absolute*
//! complement: it tracks `MARGIN_SLACK ×` the running mean distance the
//! class's samples actually exhibit, so when a class's embedding collapses
//! or drifts (poisoning, straggler staleness, a bad generator round) the
//! radius rejects what θ would have kept.
//!
//! Determinism: the bank is refined by plain per-class scalar loops in
//! ascending class order with `f64` accumulation, then stepped through the
//! shared [`Adam`] machinery. No kernel or thread is involved, so the
//! result is bit-identical across worker counts by construction; the only inputs are the aggregated means, which
//! the streaming accumulators already produce bit-identically.

use fedpkd_tensor::nn::{Layer, Param};
use fedpkd_tensor::optim::{step_and_zero, Adam, Optimizer};
use fedpkd_tensor::Tensor;

/// EMA smoothing factor for the per-class distance-scale buffer.
const DIST_EMA: f32 = 0.5;

/// Margin target slack: margins track `MARGIN_SLACK ×` the running mean
/// within-class distance, keeping the well-clustered mass while rejecting
/// the far tail and collapsed classes.
const MARGIN_SLACK: f32 = 1.5;

/// The trainable prototype/margin bank.
///
/// Holds one prototype row and one margin scalar per class, plus a
/// coverage buffer marking which classes have ever received an aggregated
/// mean (uncovered rows stay at their zero initialization and are never
/// exported). The bank implements [`Layer`] solely so the existing
/// optimizer and snapshot machinery (`Adam::step`, `write_model`) apply
/// unchanged — its forward/backward are the identity because it is an
/// optimizer target, not a network stage.
pub struct MarginBank {
    /// `[num_classes, feature_dim]` trainable prototype rows.
    prototypes: Param,
    /// `[num_classes]` trainable margins (acceptance radii, L2 units).
    margins: Param,
    /// `[num_classes]` 0/1 coverage flags, kept as a non-trainable buffer
    /// so `state_vector`/`write_model` carry them automatically.
    seen: Vec<f32>,
    /// `[num_classes]` running mean within-class L2 distance observed by
    /// the filter (`0.0` = never observed), also a snapshot buffer.
    dist: Vec<f32>,
}

impl MarginBank {
    /// Creates a bank with zeroed prototypes and all margins at
    /// `margin_init`.
    pub fn new(num_classes: usize, feature_dim: usize, margin_init: f32) -> Self {
        Self {
            prototypes: Param::new(Tensor::zeros(&[num_classes, feature_dim])),
            margins: Param::new(Tensor::full(&[num_classes], margin_init)),
            seen: vec![0.0; num_classes],
            dist: vec![0.0; num_classes],
        }
    }

    /// Number of classes tracked.
    pub fn num_classes(&self) -> usize {
        self.seen.len()
    }

    /// Feature dimension of the prototype rows.
    pub fn feature_dim(&self) -> usize {
        self.prototypes.value.shape()[1]
    }

    /// Whether class `c` has ever received an aggregated mean.
    pub fn is_covered(&self, class: usize) -> bool {
        self.seen[class] != 0.0
    }

    /// The current margins, one per class.
    pub fn margins(&self) -> &[f32] {
        self.margins.value.as_slice()
    }

    /// Margins as the Eq. 10 filter should apply them: the learned radius
    /// for classes whose distance scale has been observed at least once,
    /// `f32::INFINITY` (radius disabled) otherwise — a margin that has
    /// never seen real distances is in `margin_init`'s arbitrary units and
    /// must not gate anything.
    pub fn filter_margins(&self) -> Vec<f32> {
        self.margins
            .value
            .as_slice()
            .iter()
            .zip(&self.dist)
            .map(|(&m, &d)| if d > 0.0 { m } else { f32::INFINITY })
            .collect()
    }

    /// Feeds the filter's per-class mean within-class distances back into
    /// the bank (`0.0`/non-finite entries are "not observed" and skipped).
    /// First observation snaps both the distance scale and the margin onto
    /// the data; later ones EMA-smooth the scale while [`refine`] pulls
    /// the margin by gradient.
    pub fn observe_distances(&mut self, per_class: &[f64]) {
        for (c, &obs) in per_class.iter().enumerate().take(self.dist.len()) {
            let obs = obs as f32;
            if !obs.is_finite() || obs <= 0.0 {
                continue;
            }
            if self.dist[c] > 0.0 {
                self.dist[c] = (1.0 - DIST_EMA) * self.dist[c] + DIST_EMA * obs;
            } else {
                self.dist[c] = obs;
                self.margins.value.as_mut_slice()[c] = MARGIN_SLACK * obs;
            }
        }
    }

    /// Exports the bank as global prototypes: `Some` for every covered
    /// class, `None` for classes no aggregation has touched yet.
    pub fn globals(&self) -> Vec<Option<Tensor>> {
        let dim = self.feature_dim();
        (0..self.num_classes())
            .map(|c| {
                if self.is_covered(c) {
                    let row = &self.prototypes.value.as_slice()[c * dim..(c + 1) * dim];
                    Some(Tensor::from_vec(row.to_vec(), &[dim]).expect("row is dim-sized"))
                } else {
                    None
                }
            })
            .collect()
    }
}

impl Layer for MarginBank {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        input.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.prototypes);
        f(&mut self.margins);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.prototypes);
        f(&self.margins);
    }

    fn visit_buffers(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.seen);
        f(&self.dist);
    }

    fn visit_buffers_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(&mut self.seen);
        f(&mut self.dist);
    }
}

/// Telemetry byproducts of one [`refine`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MarginStats {
    /// Classes with an aggregated mean this round.
    pub covered: usize,
    /// Mean squared prototype-to-target error over the final step.
    pub proto_loss: f64,
    /// Mean squared margin-to-target error over the final step.
    pub margin_loss: f64,
}

/// Refines the bank toward this round's aggregated means (Eq. 8 output).
///
/// Each of the `epochs` steps minimizes, by one Adam step,
///
/// * the mean squared error between every covered class's trainable
///   prototype and its aggregated target, and
/// * the mean squared error between every *observed* class's margin and
///   `MARGIN_SLACK ×` its running mean within-class distance (fed back
///   from the filter via [`MarginBank::observe_distances`]), which adapts
///   the acceptance radius to the scatter the class actually exhibits.
///
/// Classes absent from `targets` receive no prototype gradient this round
/// but keep adapting their margin once their distance scale has been
/// observed at least once. Returns the final step's losses for telemetry.
pub fn refine(
    bank: &mut MarginBank,
    optimizer: &mut Adam,
    targets: &[Option<Tensor>],
    epochs: usize,
) -> MarginStats {
    assert_eq!(targets.len(), bank.num_classes(), "class count mismatch");
    let dim = bank.feature_dim();
    let num_classes = bank.num_classes();
    // Coverage is monotone: once a class has a target it stays active. A
    // class covered for the first time adopts its mean outright — a
    // gradient crawl from the zero init would leave the exported prototype
    // meaningless for many rounds — and only subsequent rounds smooth.
    for (c, t) in targets.iter().enumerate() {
        let Some(t) = t else { continue };
        if !bank.is_covered(c) {
            bank.prototypes.value.as_mut_slice()[c * dim..(c + 1) * dim]
                .copy_from_slice(t.as_slice());
            bank.seen[c] = 1.0;
        }
    }
    let covered = targets.iter().filter(|t| t.is_some()).count();
    let mut stats = MarginStats {
        covered,
        ..MarginStats::default()
    };
    for _ in 0..epochs {
        // Prototype pull: mean squared error over covered rows.
        let mut proto_loss = 0.0f64;
        if covered > 0 {
            let scale = 1.0 / (covered * dim) as f32;
            for (c, target) in targets.iter().enumerate() {
                let Some(target) = target else { continue };
                let row = &bank.prototypes.value.as_slice()[c * dim..(c + 1) * dim];
                let grad_row = &mut bank.prototypes.grad.as_mut_slice()[c * dim..(c + 1) * dim];
                for ((g, &p), &t) in grad_row.iter_mut().zip(row).zip(target.as_slice()) {
                    let e = p - t;
                    proto_loss += f64::from(e) * f64::from(e);
                    *g += 2.0 * e * scale;
                }
            }
            proto_loss /= (covered * dim) as f64;
        }
        // Margin pull: each observed class's margin tracks MARGIN_SLACK ×
        // its running mean within-class distance.
        let observed: Vec<usize> = (0..num_classes).filter(|&c| bank.dist[c] > 0.0).collect();
        let mut margin_loss = 0.0f64;
        if !observed.is_empty() {
            let scale = 1.0 / observed.len() as f32;
            let margins = bank.margins.value.as_slice();
            let grads = bank.margins.grad.as_mut_slice();
            for &c in &observed {
                let tau = MARGIN_SLACK * bank.dist[c];
                let e = margins[c] - tau;
                margin_loss += f64::from(e) * f64::from(e);
                grads[c] += 2.0 * e * scale;
            }
            margin_loss /= observed.len() as f64;
        }
        // The gradients were written directly (there is no backward pass to
        // fuse into), so the fused step is one sweep over the two params.
        optimizer.begin_step(bank);
        let mut slot = 0;
        bank.visit_params_mut(&mut |param| {
            step_and_zero(optimizer, slot, param);
            slot += 1;
        });
        stats.proto_loss = proto_loss;
        stats.margin_loss = margin_loss;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(values: &[f32]) -> Option<Tensor> {
        Some(Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap())
    }

    #[test]
    fn bank_starts_uncovered_and_exports_nothing() {
        let bank = MarginBank::new(3, 2, 8.0);
        assert_eq!(bank.num_classes(), 3);
        assert_eq!(bank.feature_dim(), 2);
        assert!(bank.globals().iter().all(Option::is_none));
        assert!(bank.margins().iter().all(|&m| (m - 8.0).abs() < 1e-6));
    }

    #[test]
    fn refine_pulls_prototypes_toward_targets() {
        let mut bank = MarginBank::new(2, 2, 8.0);
        let mut opt = Adam::new(0.05);
        let targets = vec![target(&[1.0, -1.0]), None];
        for _ in 0..200 {
            refine(&mut bank, &mut opt, &targets, 1);
        }
        let globals = bank.globals();
        let p0 = globals[0].as_ref().unwrap();
        assert!((p0.as_slice()[0] - 1.0).abs() < 0.1, "{:?}", p0.as_slice());
        assert!((p0.as_slice()[1] + 1.0).abs() < 0.1);
        // Class 1 never had a target: still unexported.
        assert!(globals[1].is_none());
    }

    #[test]
    fn margins_track_the_observed_distance_scale() {
        let mut bank = MarginBank::new(2, 1, 8.0);
        let mut opt = Adam::new(0.05);
        let targets = vec![target(&[0.0]), target(&[4.0])];
        // First observation snaps the margin straight onto slack × scale.
        bank.observe_distances(&[10.0, 0.0]);
        assert!((bank.margins()[0] - 15.0).abs() < 1e-6);
        assert!((bank.margins()[1] - 8.0).abs() < 1e-6, "unobserved: init");
        // The scale then shifts; gradient steps pull the margin after it.
        for _ in 0..800 {
            bank.observe_distances(&[20.0, 0.0]);
            refine(&mut bank, &mut opt, &targets, 1);
        }
        let m = bank.margins()[0];
        assert!((m - 30.0).abs() < 2.0, "margin {m} should approach 1.5×20");
    }

    #[test]
    fn filter_margins_disable_unobserved_classes() {
        let mut bank = MarginBank::new(3, 1, 8.0);
        bank.observe_distances(&[5.0, 0.0, f64::NAN]);
        let radii = bank.filter_margins();
        assert!((radii[0] - 7.5).abs() < 1e-6, "observed: slack × scale");
        assert_eq!(radii[1], f32::INFINITY, "never observed: radius off");
        assert_eq!(radii[2], f32::INFINITY, "NaN observation is ignored");
    }

    #[test]
    fn observing_distances_smooths_with_an_ema() {
        let mut bank = MarginBank::new(1, 1, 8.0);
        bank.observe_distances(&[10.0]);
        bank.observe_distances(&[20.0]);
        // 0.5 · 10 + 0.5 · 20 = 15.
        assert!((bank.dist[0] - 15.0).abs() < 1e-5, "{}", bank.dist[0]);
    }

    #[test]
    fn coverage_is_monotone_across_rounds() {
        let mut bank = MarginBank::new(2, 1, 8.0);
        let mut opt = Adam::new(0.01);
        refine(&mut bank, &mut opt, &[target(&[1.0]), None], 1);
        assert!(bank.is_covered(0));
        assert!(!bank.is_covered(1));
        // A round where class 0 is absent must not un-cover it.
        refine(&mut bank, &mut opt, &[None, target(&[2.0])], 1);
        assert!(bank.is_covered(0));
        assert!(bank.is_covered(1));
        assert!(bank.globals().iter().all(Option::is_some));
    }

    #[test]
    fn refine_is_deterministic() {
        let run = || {
            let mut bank = MarginBank::new(3, 4, 8.0);
            let mut opt = Adam::new(0.01);
            let targets = vec![
                target(&[1.0, 2.0, 3.0, 4.0]),
                None,
                target(&[-1.0, 0.5, 0.0, 2.0]),
            ];
            for _ in 0..10 {
                refine(&mut bank, &mut opt, &targets, 3);
            }
            let mut state = Vec::new();
            bank.visit_params(&mut |p| state.extend_from_slice(p.value.as_slice()));
            state
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_report_covered_classes_and_losses() {
        let mut bank = MarginBank::new(2, 1, 8.0);
        let mut opt = Adam::new(0.01);
        let stats = refine(&mut bank, &mut opt, &[target(&[5.0]), target(&[-5.0])], 1);
        assert_eq!(stats.covered, 2);
        // First coverage snaps the prototypes onto their targets, so the
        // pull error is exactly zero; no distances observed yet, so the
        // margin term is inert too.
        assert_eq!(stats.proto_loss, 0.0);
        assert_eq!(stats.margin_loss, 0.0);
        // Once a target moves and a distance scale arrives, both become
        // real: the margin sits at slack × scale, then the scale drifts.
        bank.observe_distances(&[3.0, 3.0]);
        bank.observe_distances(&[9.0, 9.0]);
        let stats = refine(&mut bank, &mut opt, &[target(&[6.0]), target(&[-5.0])], 1);
        assert!(stats.proto_loss > 0.0);
        assert!(stats.margin_loss > 0.0);
    }
}
