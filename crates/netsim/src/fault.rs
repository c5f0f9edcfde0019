//! Deterministic fault injection for federated rounds.
//!
//! The paper's setting — heterogeneous edge clients on constrained links
//! (§V) — is exactly where dropouts and stragglers dominate, yet the ideal
//! round engine assumes every client uploads every round. A [`FaultPlan`]
//! makes partial participation a first-class, *reproducible* part of a
//! simulation: given the same seed and plan, every round's surviving cohort
//! is bit-identical across runs and platforms.
//!
//! Three fault mechanisms compose, checked in priority order per client:
//!
//! 1. **Crash outages** — a client is offline for a contiguous window of
//!    rounds ([`FaultPlan::with_outage`]).
//! 2. **Random dropout** — each client independently misses a round with a
//!    fixed probability ([`FaultPlan::with_dropout`]), drawn from a
//!    per-`(round, client)` RNG stream so the decision does not depend on
//!    evaluation order or cohort size.
//! 3. **Straggler deadlines** — a per-client slowdown factor layered on a
//!    [`LinkModel`] converts the client's expected uplink payload into a
//!    simulated transfer time; clients that would miss the round deadline
//!    are dropped ([`FaultPlan::with_deadline`],
//!    [`FaultPlan::with_slowdown`]).
//!
//! The outcome of a round's fault evaluation is a [`Cohort`]: which clients
//! participate and why the others were dropped.
//!
//! # Examples
//!
//! ```
//! use fedpkd_netsim::{Cohort, DropCause, FaultPlan, LinkModel};
//!
//! let plan = FaultPlan::new(7)
//!     .with_dropout(0.2)
//!     .with_outage(1, 3, 2) // client 1 offline in rounds 3 and 4
//!     .with_deadline(LinkModel::cellular(), 1.0)
//!     .with_slowdown(2, 8.0);
//! let cohort = plan.cohort(3, 4, &[1000, 1000, 1000, 1000]);
//! assert_eq!(cohort.cause(1), Some(DropCause::Crash));
//! // Deterministic: the same (round, num_clients, payloads) always yields
//! // the same cohort.
//! assert_eq!(cohort, plan.cohort(3, 4, &[1000, 1000, 1000, 1000]));
//! ```

use crate::adversary::{Attack, RoundContext};
use crate::LinkModel;
use fedpkd_rng::Rng;

/// A transfer cutoff, in seconds — the *one* deadline representation shared
/// by the simulated network and the real serving layer.
///
/// [`FaultPlan::with_deadline`] stores one of these to decide which
/// simulated transfers miss their round, and `fedpkd-serve` derives its
/// socket read/write timeouts and per-round collection window from the very
/// same value, so the survivor-only round outcome at a given cutoff is the
/// same whether the network is simulated or real: a transfer that takes
/// exactly the deadline *makes* it ([`exceeded_by`](Self::exceeded_by) is a
/// strict comparison) in both worlds.
///
/// # Examples
///
/// ```
/// use fedpkd_netsim::Deadline;
///
/// let d = Deadline::from_secs(1.5);
/// assert!(!d.exceeded_by(1.5), "exactly on time still commits");
/// assert!(d.exceeded_by(1.500001));
/// assert_eq!(d.to_duration(), std::time::Duration::from_secs_f64(1.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deadline {
    seconds: f64,
}

impl Deadline {
    /// A deadline of `seconds`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not positive and finite.
    pub fn from_secs(seconds: f64) -> Self {
        assert!(
            seconds > 0.0 && seconds.is_finite(),
            "deadline must be positive"
        );
        Self { seconds }
    }

    /// The cutoff in seconds.
    pub fn seconds(self) -> f64 {
        self.seconds
    }

    /// The cutoff as a [`std::time::Duration`] — the form socket timeouts
    /// take.
    pub fn to_duration(self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.seconds)
    }

    /// Whether a transfer (or wait) of `elapsed_seconds` misses this
    /// deadline. Strict: exactly on the cutoff still commits, in both the
    /// simulated cohort evaluation and the serving layer's round window.
    pub fn exceeded_by(self, elapsed_seconds: f64) -> bool {
        elapsed_seconds > self.seconds
    }
}

/// Why a client missed a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DropCause {
    /// Random per-round dropout (flaky connectivity).
    Dropout,
    /// A scheduled crash outage window.
    Crash,
    /// The simulated uplink transfer would miss the round deadline.
    Deadline,
    /// The client was not drawn into this round's cohort sample — it was
    /// never invited, so (unlike the fault causes above) it is excluded
    /// from the participation-rate denominator and emits no drop
    /// telemetry.
    Unsampled,
}

impl DropCause {
    /// The snake_case name used in serialized telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Self::Dropout => "dropout",
            Self::Crash => "crash",
            Self::Deadline => "deadline",
            Self::Unsampled => "unsampled",
        }
    }
}

/// The set of clients participating in one round, with drop causes for the
/// rest.
///
/// Algorithms receive the round's cohort from the driver and must only
/// train, upload, and downlink the *active* clients; dropped clients keep
/// their stale local state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cohort {
    causes: Vec<Option<DropCause>>,
}

impl Cohort {
    /// A fault-free cohort: every one of `num_clients` clients participates.
    pub fn full(num_clients: usize) -> Self {
        Self {
            causes: vec![None; num_clients],
        }
    }

    /// Builds a cohort from per-client drop causes (`None` = active).
    pub fn from_causes(causes: Vec<Option<DropCause>>) -> Self {
        Self { causes }
    }

    /// Total clients the cohort was drawn from.
    pub fn num_clients(&self) -> usize {
        self.causes.len()
    }

    /// Whether `client` participates this round.
    pub fn is_active(&self, client: usize) -> bool {
        self.causes.get(client).is_some_and(Option::is_none)
    }

    /// Why `client` was dropped, or `None` if it participates.
    pub fn cause(&self, client: usize) -> Option<DropCause> {
        self.causes.get(client).copied().flatten()
    }

    /// Indices of the participating clients, ascending.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.causes.len())
            .filter(|&c| self.causes[c].is_none())
            .collect()
    }

    /// `(client, cause)` for every dropped client, ascending.
    pub fn dropped(&self) -> Vec<(usize, DropCause)> {
        self.causes
            .iter()
            .enumerate()
            .filter_map(|(c, cause)| cause.map(|cause| (c, cause)))
            .collect()
    }

    /// Number of participating clients.
    pub fn num_active(&self) -> usize {
        self.causes.iter().filter(|c| c.is_none()).count()
    }

    /// Number of clients *invited* this round: everyone except
    /// [`DropCause::Unsampled`] drops. Without cohort sampling this equals
    /// [`num_clients`](Self::num_clients).
    pub fn num_invited(&self) -> usize {
        self.causes
            .iter()
            .filter(|c| **c != Some(DropCause::Unsampled))
            .count()
    }

    /// Participating fraction of the *invited* clients, in `[0, 1]` (1.0
    /// when nobody was invited, including the empty cohort).
    ///
    /// Clients outside a sampled cohort were never asked to participate,
    /// so counting them as casualties would drown the fault signal: a
    /// 10 000-client fleet sampling 256 per round would report ≤ 2.56%
    /// "participation" every round. Only invited clients enter the
    /// denominator.
    pub fn participation_rate(&self) -> f64 {
        let invited = self.num_invited();
        if invited == 0 {
            1.0
        } else {
            self.num_active() as f64 / invited as f64
        }
    }

    /// Re-marks every client *not* in `sampled` (a set of client indices)
    /// as [`DropCause::Unsampled`], overriding any fault cause — an
    /// uninvited client cannot crash out of a round it was never in.
    pub fn restrict_to_sample(mut self, sampled: &[usize]) -> Self {
        let mut invited = vec![false; self.causes.len()];
        for &client in sampled {
            if let Some(slot) = invited.get_mut(client) {
                *slot = true;
            }
        }
        for (cause, invited) in self.causes.iter_mut().zip(&invited) {
            if !invited {
                *cause = Some(DropCause::Unsampled);
            }
        }
        self
    }
}

/// How the driver picks each round's cohort from the client fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum CohortPolicy {
    /// Every client is invited every round (the classic small-scale
    /// setting; the default).
    #[default]
    Full,
    /// Invite a seeded uniform sample of `size` distinct clients per round
    /// (capped at the fleet size). Sampling is a pure function of
    /// `(seed, round, fleet)` — see [`sample_cohort`] — so replays and
    /// resumed runs draw identical cohorts.
    Sample {
        /// Clients invited per round.
        size: usize,
        /// Seed rooting the per-round sampling streams, deliberately
        /// separate from both the algorithm seed and the fault seed.
        seed: u64,
    },
}

/// Salt separating cohort-sampling RNG streams from the dropout and attack
/// streams that may share a seed value.
const COHORT_STREAM_SALT: u64 = 0xC0_0417_5A3B_17E5;

/// Draws round `round`'s cohort sample: `min(size, fleet)` distinct client
/// indices from `0..fleet`, ascending.
///
/// The draw comes from a dedicated `(seed, round)` RNG stream (one partial
/// Fisher–Yates per round), so it is a pure function of its arguments:
/// independent of every other round, of the order rounds are evaluated in,
/// and of any driver state — which is what makes sampled runs replayable
/// and resumable from any round boundary.
pub fn sample_cohort(seed: u64, round: usize, fleet: usize, size: usize) -> Vec<usize> {
    let round_seed = seed
        .wrapping_add(COHORT_STREAM_SALT)
        .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng = Rng::stream(round_seed, 0);
    let mut picks = fedpkd_rng::sample_indices(&mut rng, fleet, size.min(fleet));
    picks.sort_unstable();
    picks
}

/// A scheduled crash window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outage {
    client: usize,
    start_round: usize,
    rounds: usize,
}

/// A seeded, deterministic fault schedule for a federated run.
///
/// Built with the `with_*` combinators and evaluated per round with
/// [`cohort`](Self::cohort). Evaluation is a pure function of
/// `(plan, round, num_clients, payload_bytes)` — no hidden state — so the
/// same plan replayed over the same run produces bit-identical cohorts,
/// which is what makes faulty runs reproducible end to end.
///
/// Purity is also what makes fault plans checkpoint-friendly: a plan's
/// "position" in a run is fully determined by the round index, so a
/// snapshot only needs to persist the number of rounds already driven
/// (see `DriverState` in `fedpkd-core`) — the plan itself is
/// reconstructed from configuration and replays identically from any
/// round.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    dropout: f64,
    outages: Vec<Outage>,
    slowdowns: Vec<(usize, f64)>,
    link: LinkModel,
    deadline: Option<Deadline>,
    adversaries: Vec<(usize, Attack)>,
}

impl FaultPlan {
    /// An empty plan (no faults) rooted at `seed`.
    ///
    /// The seed only feeds the dropout draws; it is deliberately separate
    /// from the algorithm seed so the same fault schedule can be replayed
    /// against different model initializations.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            dropout: 0.0,
            outages: Vec::new(),
            slowdowns: Vec::new(),
            link: LinkModel::wifi(),
            deadline: None,
            adversaries: Vec::new(),
        }
    }

    /// Sets the per-client, per-round dropout probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_dropout(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "dropout probability must be in [0, 1]"
        );
        self.dropout = p;
        self
    }

    /// Schedules `client` to crash for `rounds` consecutive rounds starting
    /// at `start_round`.
    pub fn with_outage(mut self, client: usize, start_round: usize, rounds: usize) -> Self {
        self.outages.push(Outage {
            client,
            start_round,
            rounds,
        });
        self
    }

    /// Slows `client`'s link by `factor` (≥ 1): its transfers take `factor`
    /// times as long, which matters once a deadline is set.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1` or is non-finite.
    pub fn with_slowdown(mut self, client: usize, factor: f64) -> Self {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "slowdown factor must be >= 1"
        );
        self.slowdowns.push((client, factor));
        self
    }

    /// Sets the round deadline: a client whose simulated uplink transfer
    /// over `link` (after its slowdown factor) exceeds `seconds` is dropped
    /// as a straggler.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not positive and finite.
    pub fn with_deadline(self, link: LinkModel, seconds: f64) -> Self {
        self.with_transfer_deadline(link, Deadline::from_secs(seconds))
    }

    /// [`with_deadline`](Self::with_deadline) with an explicit [`Deadline`]
    /// — the form the serving layer uses so the simulated cutoff and the
    /// socket timeouts come from one value.
    pub fn with_transfer_deadline(mut self, link: LinkModel, deadline: Deadline) -> Self {
        self.link = link;
        self.deadline = Some(deadline);
        self
    }

    /// The configured transfer deadline, if any — shared verbatim with the
    /// serving layer's socket timeouts and round-collection window.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// Marks `client` as Byzantine: whenever it participates, it mounts
    /// `attack` on its uploads (see [`Attack`]). The corruption is applied
    /// by the algorithm layer through the round's [`RoundContext`], drawn
    /// from a dedicated `(seed, round, client)` RNG stream so adversarial
    /// runs replay bit-identically. A later call for the same client
    /// replaces the earlier attack.
    pub fn with_adversary(mut self, client: usize, attack: Attack) -> Self {
        self.adversaries.retain(|&(c, _)| c != client);
        self.adversaries.push((client, attack));
        self
    }

    /// The attack `client` mounts, or `None` if it is honest.
    pub fn attack(&self, client: usize) -> Option<Attack> {
        self.adversaries
            .iter()
            .find(|&&(c, _)| c == client)
            .map(|&(_, a)| a)
    }

    /// The effective slowdown factor for `client` (1.0 unless configured).
    pub fn slowdown(&self, client: usize) -> f64 {
        self.slowdowns
            .iter()
            .rev()
            .find(|&&(c, _)| c == client)
            .map_or(1.0, |&(_, f)| f)
    }

    /// Evaluates the plan for one round.
    ///
    /// `payload_bytes[client]` is the expected uplink payload used for the
    /// deadline check (the driver feeds each client's last observed uplink;
    /// missing entries count as zero bytes, so in round 0 only latency and
    /// slowdown can breach the deadline). Causes are checked in priority
    /// order: crash, then dropout, then deadline. Dropout decisions come
    /// from a dedicated `(seed, round, client)` RNG stream, so they are
    /// independent of cohort size and check order.
    pub fn cohort(&self, round: usize, num_clients: usize, payload_bytes: &[usize]) -> Cohort {
        let causes = (0..num_clients)
            .map(|client| {
                if self.in_outage(client, round) {
                    Some(DropCause::Crash)
                } else if self.dropout > 0.0 && self.dropout_hit(round, client) {
                    Some(DropCause::Dropout)
                } else if let Some(deadline) = self.deadline {
                    let bytes = payload_bytes.get(client).copied().unwrap_or(0);
                    let time = self.link.slowed(self.slowdown(client)).transfer_time(bytes);
                    deadline.exceeded_by(time).then_some(DropCause::Deadline)
                } else {
                    None
                }
            })
            .collect();
        Cohort::from_causes(causes)
    }

    /// Evaluates the plan for one round into a full [`RoundContext`]:
    /// the surviving cohort plus the Byzantine attack roster, rooted at
    /// this plan's seed so corruption draws are replayable.
    pub fn round_context(
        &self,
        round: usize,
        num_clients: usize,
        payload_bytes: &[usize],
    ) -> RoundContext {
        let cohort = self.cohort(round, num_clients, payload_bytes);
        let attacks = (0..num_clients).map(|c| self.attack(c)).collect();
        RoundContext::with_attacks(cohort, attacks, self.seed)
    }

    fn in_outage(&self, client: usize, round: usize) -> bool {
        self.outages.iter().any(|o| {
            o.client == client && round >= o.start_round && round < o.start_round + o.rounds
        })
    }

    fn dropout_hit(&self, round: usize, client: usize) -> bool {
        // One draw from a stream keyed on (seed, round, client): decisions
        // never shift when other clients are added or checks are reordered.
        let round_seed = self
            .seed
            .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Rng::stream(round_seed, client as u64).bernoulli(self.dropout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cohort_has_everyone() {
        let cohort = Cohort::full(3);
        assert_eq!(cohort.num_clients(), 3);
        assert_eq!(cohort.survivors(), vec![0, 1, 2]);
        assert!(cohort.dropped().is_empty());
        assert_eq!(cohort.participation_rate(), 1.0);
        assert!(cohort.is_active(2));
        assert!(!cohort.is_active(3), "out-of-range client is not active");
    }

    #[test]
    fn empty_plan_drops_nobody() {
        let plan = FaultPlan::new(1);
        for round in 0..5 {
            assert_eq!(plan.cohort(round, 4, &[]), Cohort::full(4));
        }
    }

    #[test]
    fn cohorts_are_deterministic() {
        let plan = FaultPlan::new(99).with_dropout(0.5);
        for round in 0..10 {
            let a = plan.cohort(round, 8, &[]);
            let b = plan.cohort(round, 8, &[]);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn dropout_decisions_ignore_cohort_size() {
        // Adding clients must not change earlier clients' fates.
        let plan = FaultPlan::new(7).with_dropout(0.5);
        for round in 0..6 {
            let small = plan.cohort(round, 3, &[]);
            let large = plan.cohort(round, 10, &[]);
            for client in 0..3 {
                assert_eq!(small.cause(client), large.cause(client));
            }
        }
    }

    #[test]
    fn dropout_rate_is_plausible() {
        let plan = FaultPlan::new(5).with_dropout(0.3);
        let mut dropped = 0usize;
        let total = 100 * 10;
        for round in 0..100 {
            dropped += 10 - plan.cohort(round, 10, &[]).num_active();
        }
        let rate = dropped as f64 / total as f64;
        assert!((0.2..0.4).contains(&rate), "observed dropout rate {rate}");
    }

    #[test]
    fn outage_window_is_half_open() {
        let plan = FaultPlan::new(0).with_outage(1, 2, 3);
        assert!(plan.cohort(1, 3, &[]).is_active(1));
        for round in 2..5 {
            assert_eq!(plan.cohort(round, 3, &[]).cause(1), Some(DropCause::Crash));
        }
        assert!(plan.cohort(5, 3, &[]).is_active(1));
        // Other clients are untouched.
        assert!(plan.cohort(3, 3, &[]).is_active(0));
    }

    #[test]
    fn deadline_drops_slowed_stragglers_only() {
        // 1 KB/s link, zero latency; 1000-byte payload takes 1 s.
        let link = LinkModel::new(1000.0, 0.0);
        let plan = FaultPlan::new(0)
            .with_deadline(link, 2.0)
            .with_slowdown(1, 4.0);
        let cohort = plan.cohort(0, 2, &[1000, 1000]);
        assert!(cohort.is_active(0), "1 s transfer meets a 2 s deadline");
        assert_eq!(
            cohort.cause(1),
            Some(DropCause::Deadline),
            "4 s slowed transfer misses it"
        );
    }

    #[test]
    fn missing_payload_estimates_count_as_zero_bytes() {
        let link = LinkModel::new(1000.0, 0.5);
        let plan = FaultPlan::new(0).with_deadline(link, 1.0);
        // No payload data: only latency (0.5 s) counts, everyone makes it.
        assert_eq!(plan.cohort(0, 3, &[]), Cohort::full(3));
        // An extreme slowdown breaches the deadline on latency alone.
        let slow = plan.with_slowdown(2, 3.0);
        assert_eq!(slow.cohort(0, 3, &[]).cause(2), Some(DropCause::Deadline));
    }

    #[test]
    fn crash_takes_priority_over_dropout_and_deadline() {
        let link = LinkModel::new(1.0, 10.0);
        let plan = FaultPlan::new(3)
            .with_dropout(1.0)
            .with_outage(0, 0, 1)
            .with_deadline(link, 0.1);
        let cohort = plan.cohort(0, 2, &[10, 10]);
        assert_eq!(cohort.cause(0), Some(DropCause::Crash));
        assert_eq!(cohort.cause(1), Some(DropCause::Dropout));
    }

    #[test]
    fn cohort_accessors_are_consistent() {
        let plan = FaultPlan::new(11).with_dropout(0.5);
        let cohort = plan.cohort(2, 12, &[]);
        let survivors = cohort.survivors();
        let dropped = cohort.dropped();
        assert_eq!(survivors.len() + dropped.len(), 12);
        assert_eq!(cohort.num_active(), survivors.len());
        for &c in &survivors {
            assert!(cohort.is_active(c));
            assert_eq!(cohort.cause(c), None);
        }
        for &(c, cause) in &dropped {
            assert!(!cohort.is_active(c));
            assert_eq!(cohort.cause(c), Some(cause));
        }
        let rate = cohort.participation_rate();
        assert!((rate - survivors.len() as f64 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn drop_cause_names() {
        assert_eq!(DropCause::Dropout.name(), "dropout");
        assert_eq!(DropCause::Crash.name(), "crash");
        assert_eq!(DropCause::Deadline.name(), "deadline");
        assert_eq!(DropCause::Unsampled.name(), "unsampled");
    }

    #[test]
    fn sample_cohort_is_deterministic_sorted_and_duplicate_free() {
        let picks = sample_cohort(7, 3, 10_000, 256);
        assert_eq!(picks, sample_cohort(7, 3, 10_000, 256));
        assert_eq!(picks.len(), 256);
        assert!(picks.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(picks.iter().all(|&c| c < 10_000));
        // Different rounds and seeds draw different cohorts.
        assert_ne!(picks, sample_cohort(7, 4, 10_000, 256));
        assert_ne!(picks, sample_cohort(8, 3, 10_000, 256));
        // Oversized requests clamp to the fleet.
        assert_eq!(sample_cohort(1, 0, 5, 99), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn restricted_cohort_reports_invited_participation() {
        let plan = FaultPlan::new(0).with_outage(2, 0, 1);
        let cohort = plan.cohort(0, 6, &[]).restrict_to_sample(&[1, 2, 3]);
        assert_eq!(cohort.cause(0), Some(DropCause::Unsampled));
        assert_eq!(
            cohort.cause(2),
            Some(DropCause::Crash),
            "invited but crashed"
        );
        assert!(cohort.is_active(1) && cohort.is_active(3));
        assert_eq!(cohort.num_invited(), 3);
        assert_eq!(cohort.num_active(), 2);
        assert!((cohort.participation_rate() - 2.0 / 3.0).abs() < 1e-12);
        // An uninvited client's fault cause is overridden.
        let all_out = plan.cohort(0, 3, &[]).restrict_to_sample(&[]);
        assert_eq!(all_out.cause(2), Some(DropCause::Unsampled));
        assert_eq!(all_out.participation_rate(), 1.0, "nobody invited");
    }

    #[test]
    fn deadline_is_one_representation_for_simulated_and_real_cutoffs() {
        // The serving layer waits `deadline.to_duration()` wall-clock and
        // asks `exceeded_by(elapsed)`; the fault plan asks `exceeded_by`
        // of the simulated transfer time. Same predicate, same outcome:
        // exactly-on-time commits in both, strictly-later misses in both.
        let d = Deadline::from_secs(2.0);
        assert_eq!(d.seconds(), 2.0);
        assert_eq!(d.to_duration(), std::time::Duration::from_secs(2));
        assert!(!d.exceeded_by(2.0));
        assert!(d.exceeded_by(2.0 + 1e-9));

        // A 1 KB/s link carries 2000 bytes in exactly 2 s: the plan built
        // on the same Deadline keeps that client, drops the 2001-byte one.
        let link = LinkModel::new(1000.0, 0.0);
        let plan = FaultPlan::new(0).with_transfer_deadline(link, d);
        assert_eq!(plan.deadline(), Some(d));
        let cohort = plan.cohort(0, 2, &[2000, 2001]);
        assert!(cohort.is_active(0), "exactly-on-time transfer commits");
        assert_eq!(cohort.cause(1), Some(DropCause::Deadline));
        // And `with_deadline(link, secs)` is the same plan.
        assert_eq!(plan, FaultPlan::new(0).with_deadline(link, 2.0));
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn deadline_rejects_non_positive() {
        let _ = Deadline::from_secs(0.0);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_bad_dropout() {
        let _ = FaultPlan::new(0).with_dropout(1.5);
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn rejects_bad_slowdown() {
        let _ = FaultPlan::new(0).with_slowdown(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn rejects_bad_deadline() {
        let _ = FaultPlan::new(0).with_deadline(LinkModel::wifi(), 0.0);
    }
}
