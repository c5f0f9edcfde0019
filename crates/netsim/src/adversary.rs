//! Deterministic Byzantine-adversary injection.
//!
//! The fault model of [`FaultPlan`](crate::FaultPlan) covers clients that
//! *disappear*; this module covers clients that *show up and lie*. An
//! [`Attack`] describes what a Byzantine client does to its upload —
//! flipping logit rankings, faking confidence, poisoning prototypes, or
//! shipping outright garbage (non-finite values, wrong-shape payloads) —
//! and a [`RoundContext`] bundles the round's surviving [`Cohort`] with the
//! per-client attack roster so algorithms can apply the corruption to
//! uploads *before* the server sees them.
//!
//! Every stochastic corruption draws from a dedicated
//! `(seed, round, client)` RNG stream, so a run with adversaries replays
//! bit-identically from its seed: the same plan, seed, and round always
//! produce the same corrupted bytes, independent of cohort size or the
//! order in which clients are processed.
//!
//! The corruption functions operate on the raw row-major `f32` buffers that
//! cross the simulated wire, keeping this crate free of any tensor
//! dependency; the algorithm layer rebuilds its typed payloads from the
//! mutated buffers.

use crate::fault::Cohort;
use fedpkd_rng::Rng;

/// What a Byzantine client does to its upload.
///
/// The first two target logit payloads, the next two target prototype
/// payloads, and the last two corrupt any payload indiscriminately (the
/// classic "malformed bytes" failure a real server must survive). Attacks
/// on payload kinds they do not target are no-ops, so a single variant per
/// client suffices.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Attack {
    /// Negate every logit row: the ranking reverses, so the argmin becomes
    /// the argmax — a label-flip poisoner that stays perfectly "confident"
    /// and therefore earns a large Eq. 7 variance weight.
    LogitLabelFlip,
    /// Multiply logits by this factor (> 1 fakes overconfidence, again
    /// inflating the client's variance weight; < 0 composes a flip).
    LogitScale(f32),
    /// Add seeded Gaussian noise with this standard deviation to every
    /// prototype coordinate.
    PrototypeNoise(f32),
    /// Negate every prototype vector, pulling the Eq. 8 class means toward
    /// the feature-space antipode.
    PrototypeSignFlip,
    /// Replace part of every payload with NaN/Inf garbage.
    NonFinitePayload,
    /// Ship payload vectors of the wrong width (one extra column per logit
    /// row, one extra coordinate per prototype/update vector).
    WrongShapePayload,
}

impl Attack {
    /// The snake_case name used in serialized telemetry and logs.
    pub fn name(self) -> &'static str {
        match self {
            Self::LogitLabelFlip => "logit_label_flip",
            Self::LogitScale(_) => "logit_scale",
            Self::PrototypeNoise(_) => "prototype_noise",
            Self::PrototypeSignFlip => "prototype_sign_flip",
            Self::NonFinitePayload => "non_finite_payload",
            Self::WrongShapePayload => "wrong_shape_payload",
        }
    }

    /// Corrupts a row-major `rows × cols` logits buffer in place and
    /// returns the (possibly changed) column count —
    /// [`Attack::WrongShapePayload`] appends a junk column to every row.
    /// Prototype-only attacks leave the buffer untouched.
    pub fn corrupt_logits(
        self,
        rng: &mut Rng,
        values: &mut Vec<f32>,
        rows: usize,
        cols: usize,
    ) -> usize {
        debug_assert_eq!(values.len(), rows * cols, "buffer must be rows*cols");
        match self {
            Self::LogitLabelFlip => {
                for v in values.iter_mut() {
                    *v = -*v;
                }
                cols
            }
            Self::LogitScale(factor) => {
                for v in values.iter_mut() {
                    *v *= factor;
                }
                cols
            }
            Self::PrototypeNoise(_) | Self::PrototypeSignFlip => cols,
            Self::NonFinitePayload => {
                poison_non_finite(rng, values);
                cols
            }
            Self::WrongShapePayload => {
                let mut widened = Vec::with_capacity(rows * (cols + 1));
                for row in values.chunks(cols.max(1)) {
                    widened.extend_from_slice(row);
                    widened.push(rng.next_f32());
                }
                *values = widened;
                cols + 1
            }
        }
    }

    /// Corrupts a single prototype (or any per-class feature) vector in
    /// place. Logit-only attacks are no-ops.
    pub fn corrupt_prototype(self, rng: &mut Rng, vector: &mut Vec<f32>) {
        match self {
            Self::LogitLabelFlip | Self::LogitScale(_) => {}
            Self::PrototypeNoise(std) => {
                for v in vector.iter_mut() {
                    *v += std * rng.standard_normal() as f32;
                }
            }
            Self::PrototypeSignFlip => {
                for v in vector.iter_mut() {
                    *v = -*v;
                }
            }
            Self::NonFinitePayload => poison_non_finite(rng, vector),
            Self::WrongShapePayload => vector.push(rng.next_f32()),
        }
    }

    /// Corrupts a flat model-parameter upload in place (the FedAvg/FedProx
    /// payload). Logit and prototype attacks map to their closest
    /// parameter-space analogue: label-flip and sign-flip negate the
    /// update, scaling scales it, and noise perturbs it.
    pub fn corrupt_update(self, rng: &mut Rng, params: &mut Vec<f32>) {
        match self {
            Self::LogitLabelFlip | Self::PrototypeSignFlip => {
                for v in params.iter_mut() {
                    *v = -*v;
                }
            }
            Self::LogitScale(factor) => {
                for v in params.iter_mut() {
                    *v *= factor;
                }
            }
            Self::PrototypeNoise(std) => {
                for v in params.iter_mut() {
                    *v += std * rng.standard_normal() as f32;
                }
            }
            Self::NonFinitePayload => poison_non_finite(rng, params),
            Self::WrongShapePayload => params.push(rng.next_f32()),
        }
    }
}

/// Overwrites a random ~quarter of the buffer (at least one entry) with a
/// mix of NaN and ±Inf.
fn poison_non_finite(rng: &mut Rng, values: &mut [f32]) {
    if values.is_empty() {
        return;
    }
    let hits = (values.len() / 4).max(1);
    for _ in 0..hits {
        let idx = rng.range_usize(0, values.len());
        values[idx] = match rng.range_usize(0, 3) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            _ => f32::NEG_INFINITY,
        };
    }
}

/// Salt separating attack RNG streams from the dropout streams that share
/// the plan's seed.
const ATTACK_STREAM_SALT: u64 = 0x00B1_2A47_5EED_0DD5;

/// Everything an algorithm needs to know about one round's environment:
/// which clients participate (the [`Cohort`]) and which of the survivors
/// are Byzantine (the attack roster), plus the seed that makes their
/// corruption replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundContext {
    cohort: Cohort,
    attacks: Vec<Option<Attack>>,
    seed: u64,
    worker_budget: Option<usize>,
}

impl RoundContext {
    /// A benign context: the given cohort, no adversaries.
    pub fn benign(cohort: Cohort) -> Self {
        let n = cohort.num_clients();
        Self {
            cohort,
            attacks: vec![None; n],
            seed: 0,
            worker_budget: None,
        }
    }

    /// A context with a per-client attack roster (index = client id;
    /// `None` = honest). `seed` roots the corruption RNG streams.
    pub fn with_attacks(cohort: Cohort, attacks: Vec<Option<Attack>>, seed: u64) -> Self {
        Self {
            cohort,
            attacks,
            seed,
            worker_budget: None,
        }
    }

    /// Restricts the cohort to a sampled invite list (see
    /// [`Cohort::restrict_to_sample`](crate::Cohort::restrict_to_sample));
    /// the attack roster and seed are untouched, since a Byzantine client
    /// that is not invited simply never gets to upload.
    pub fn restrict_to_sample(mut self, sampled: &[usize]) -> Self {
        self.cohort = self.cohort.restrict_to_sample(sampled);
        self
    }

    /// Sets the driver's worker budget for this round's client phase
    /// (`None` = let the algorithm pick, typically the machine's available
    /// parallelism).
    pub fn with_worker_budget(mut self, workers: Option<usize>) -> Self {
        self.worker_budget = workers;
        self
    }

    /// The driver's worker budget for this round, if it set one.
    pub fn worker_budget(&self) -> Option<usize> {
        self.worker_budget
    }

    /// The round's participation cohort.
    pub fn cohort(&self) -> &Cohort {
        &self.cohort
    }

    /// The attack `client` mounts this round, or `None` if it is honest
    /// (or out of range).
    pub fn attack(&self, client: usize) -> Option<Attack> {
        self.attacks.get(client).copied().flatten()
    }

    /// The dedicated corruption RNG stream for `(round, client)`.
    ///
    /// Keyed exactly like the dropout stream but under a different salt, so
    /// attack draws never correlate with fault draws and never depend on
    /// cohort size or evaluation order.
    pub fn attack_rng(&self, round: usize, client: usize) -> Rng {
        let round_seed = self
            .seed
            .wrapping_add(ATTACK_STREAM_SALT)
            .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Rng::stream(round_seed, client as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_flip_reverses_ranking() {
        let mut rng = Rng::seed_from_u64(1);
        let mut values = vec![3.0, 1.0, 2.0];
        let cols = Attack::LogitLabelFlip.corrupt_logits(&mut rng, &mut values, 1, 3);
        assert_eq!(cols, 3);
        assert_eq!(values, vec![-3.0, -1.0, -2.0]);
    }

    #[test]
    fn scale_multiplies() {
        let mut rng = Rng::seed_from_u64(1);
        let mut values = vec![1.0, -2.0];
        Attack::LogitScale(10.0).corrupt_logits(&mut rng, &mut values, 1, 2);
        assert_eq!(values, vec![10.0, -20.0]);
    }

    #[test]
    fn wrong_shape_appends_a_column_per_row() {
        let mut rng = Rng::seed_from_u64(2);
        let mut values = vec![1.0, 2.0, 3.0, 4.0];
        let cols = Attack::WrongShapePayload.corrupt_logits(&mut rng, &mut values, 2, 2);
        assert_eq!(cols, 3);
        assert_eq!(values.len(), 6);
        assert_eq!((values[0], values[1]), (1.0, 2.0));
        assert_eq!((values[3], values[4]), (3.0, 4.0));
    }

    #[test]
    fn non_finite_poisons_at_least_one_entry() {
        let mut rng = Rng::seed_from_u64(3);
        let mut values = vec![0.5f32; 8];
        Attack::NonFinitePayload.corrupt_logits(&mut rng, &mut values, 2, 4);
        assert!(values.iter().any(|v| !v.is_finite()));
    }

    #[test]
    fn prototype_attacks_leave_logits_alone_and_vice_versa() {
        let mut rng = Rng::seed_from_u64(4);
        let mut values = vec![1.0, 2.0];
        Attack::PrototypeSignFlip.corrupt_logits(&mut rng, &mut values, 1, 2);
        assert_eq!(values, vec![1.0, 2.0]);
        let mut proto = vec![1.0, 2.0];
        Attack::LogitLabelFlip.corrupt_prototype(&mut rng, &mut proto);
        assert_eq!(proto, vec![1.0, 2.0]);
        Attack::PrototypeSignFlip.corrupt_prototype(&mut rng, &mut proto);
        assert_eq!(proto, vec![-1.0, -2.0]);
    }

    #[test]
    fn prototype_noise_is_seed_deterministic() {
        let corrupt = || {
            let mut rng = Rng::stream(9, 4);
            let mut v = vec![0.0f32; 6];
            Attack::PrototypeNoise(0.5).corrupt_prototype(&mut rng, &mut v);
            v
        };
        let a = corrupt();
        assert_eq!(a, corrupt());
        assert!(a.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn update_corruption_covers_every_attack() {
        let base = vec![1.0f32, -1.0, 0.5];
        for attack in [
            Attack::LogitLabelFlip,
            Attack::LogitScale(2.0),
            Attack::PrototypeNoise(1.0),
            Attack::PrototypeSignFlip,
            Attack::NonFinitePayload,
            Attack::WrongShapePayload,
        ] {
            let mut rng = Rng::seed_from_u64(7);
            let mut params = base.clone();
            attack.corrupt_update(&mut rng, &mut params);
            assert!(
                params != base || params.len() != base.len(),
                "{attack:?} must change the update"
            );
        }
    }

    #[test]
    fn context_replays_identical_corruption() {
        let ctx = RoundContext::with_attacks(
            Cohort::full(3),
            vec![None, Some(Attack::NonFinitePayload), None],
            42,
        );
        let run = |ctx: &RoundContext| {
            let mut rng = ctx.attack_rng(5, 1);
            let mut v = vec![1.0f32; 16];
            Attack::NonFinitePayload.corrupt_prototype(&mut rng, &mut v);
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(&ctx), run(&ctx));
    }

    #[test]
    fn context_accessors() {
        let ctx = RoundContext::benign(Cohort::full(2));
        assert_eq!(ctx.attack(0), None);
        assert_eq!(ctx.attack(9), None, "out of range is honest");
        let ctx = RoundContext::with_attacks(
            Cohort::full(2),
            vec![Some(Attack::LogitLabelFlip), None],
            1,
        );
        assert_eq!(ctx.attack(0), Some(Attack::LogitLabelFlip));
        assert_eq!(ctx.cohort().num_clients(), 2);
    }

    #[test]
    fn attack_rng_differs_from_dropout_stream() {
        // Same seed, same (round, client): the salted attack stream must
        // not reproduce the dropout stream's draws.
        let seed = 11u64;
        let round = 3usize;
        let ctx = RoundContext::with_attacks(Cohort::full(1), vec![None], seed);
        let mut attack = ctx.attack_rng(round, 0);
        let round_seed = seed.wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut dropout = Rng::stream(round_seed, 0);
        assert_ne!(attack.next_u64(), dropout.next_u64());
    }

    #[test]
    fn attack_names() {
        assert_eq!(Attack::LogitLabelFlip.name(), "logit_label_flip");
        assert_eq!(Attack::LogitScale(2.0).name(), "logit_scale");
        assert_eq!(Attack::PrototypeNoise(0.1).name(), "prototype_noise");
        assert_eq!(Attack::PrototypeSignFlip.name(), "prototype_sign_flip");
        assert_eq!(Attack::NonFinitePayload.name(), "non_finite_payload");
        assert_eq!(Attack::WrongShapePayload.name(), "wrong_shape_payload");
    }
}
