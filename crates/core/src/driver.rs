//! The redesigned driver entry point: one builder for every way to run a
//! federation.
//!
//! Faults, adversaries (via the [`FaultPlan`]), cohort sampling over a
//! fleet and the worker budget are orthogonal knobs on one
//! [`DriverBuilder`], and [`Driver::run`]/[`Driver::resume`] are the only
//! verbs. The round loop
//! itself — the ledger taken out of the algorithm's [`DriverState`], each
//! client's last uplink size (one fold over the ledger's transfers, so a
//! run resumed or continued at any round reads what an uninterrupted one
//! does), the round counter — is [`RoundLoop`], which `Driver::run` and
//! the `fedpkd-serve` engine both step, so a served round and a simulated
//! one are the same code.
//!
//! # The event-driven round loop
//!
//! Per round the driver:
//!
//! 1. evaluates the optional [`FaultPlan`] into a [`RoundContext`]
//!    (feeding each client's last observed uplink size to the
//!    straggler-deadline check),
//! 2. restricts the cohort to this round's seeded sample under
//!    [`CohortPolicy::Sample`] — uninvited clients are marked
//!    [`DropCause::Unsampled`](fedpkd_netsim::DropCause::Unsampled),
//!    excluded from participation accounting, and emit no drop telemetry,
//! 3. stamps the context with the worker budget and hands it to the
//!    algorithm's round, whose client phase runs on the work-stealing
//!    pool and whose server folds uploads into streaming accumulators in
//!    canonical client order.
//!
//! Every round is synchronous: a client the context drops (a deadline
//! straggler included) sits the round out, and nothing it would have sent
//! arrives in a later one. Every per-round decision — sampling, faults,
//! attacks — is a pure function of `(seed, round, client)`, so the same
//! seeds replay to a bit-identical [`RunResult`] regardless of worker
//! count or completion interleaving.

use fedpkd_netsim::{
    sample_cohort, Cohort, CohortPolicy, CommLedger, Direction, FaultPlan, RoundContext,
};

use crate::runtime::{DriverState, Federation, RoundMetrics, RunResult};
use crate::snapshot::SnapshotError;
use crate::telemetry::{NullObserver, RoundObserver, TelemetryEvent};

/// Builds a [`Driver`]: the single, composable entry point for running a
/// [`Federation`].
///
/// # Examples
///
/// ```
/// use fedpkd_core::driver::DriverBuilder;
/// use fedpkd_core::fedpkd::{FedPkd, FedPkdConfig};
/// use fedpkd_core::telemetry::NullObserver;
/// use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
/// use fedpkd_tensor::models::{DepthTier, ModelSpec};
///
/// let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
///     .clients(3).samples(300).public_size(100).global_test_size(100)
///     .partition(Partition::Dirichlet { alpha: 0.5 })
///     .seed(1).build()?;
/// let spec = ModelSpec::ResMlp { input_dim: 32, num_classes: 10, tier: DepthTier::T11 };
/// let mut cfg = FedPkdConfig::default();
/// cfg.client_private_epochs = 1;
/// cfg.client_public_epochs = 1;
/// cfg.server_epochs = 1;
/// let mut algo = FedPkd::new(scenario, vec![spec.clone(); 3], spec, cfg, 7)?;
/// let result = DriverBuilder::new()
///     .rounds(2)
///     .build()
///     .run(&mut algo, &mut NullObserver);
/// assert_eq!(result.history.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DriverBuilder {
    rounds: usize,
    faults: Option<FaultPlan>,
    cohort: CohortPolicy,
    workers: Option<usize>,
}

impl DriverBuilder {
    /// A builder with defaults: 1 round, no faults, full cohort, the
    /// machine's worker budget.
    pub fn new() -> Self {
        Self {
            rounds: 1,
            ..Self::default()
        }
    }

    /// Number of rounds to drive per [`Driver::run`] call (≥ 1).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Injects a fault plan: dropout, crash outages, straggler deadlines,
    /// and the Byzantine adversary roster.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// How each round's cohort is drawn from the fleet (default:
    /// [`CohortPolicy::Full`]).
    pub fn cohort(mut self, policy: CohortPolicy) -> Self {
        self.cohort = policy;
        self
    }

    /// The one knob for every use of a second thread: caps the threads a
    /// round uses at `workers`, the calling thread included (default: the
    /// machine's available parallelism). The client phases of FedPKD and
    /// the seven baselines alike run through [`clients`](crate::clients),
    /// which reads this budget: the caller works as one of the `workers`
    /// and starts `workers − 1` helpers, so at 1 every client runs on the
    /// calling thread. FedPKD's server step spends it in order: at 2 a
    /// public-set round's distillation takes its step-worker thread, while
    /// a data-free round refines its generator on that thread first and
    /// then hands it to the distillation as its step worker; at 3 or more
    /// the refine and the step worker each have a thread.
    /// Worker count never affects results — only wall-clock time.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Evaluates this configuration's per-round participation decision —
    /// fault plan, cohort sampling, worker budget — into the
    /// [`RoundContext`] that round `round` runs under, given each client's
    /// most recent observed uplink bytes.
    ///
    /// [`RoundLoop::context`] is its one caller in a run, for
    /// [`Driver::run`] and the `fedpkd-serve` engine alike, so a served
    /// round and a simulated round make the same invitation/drop decisions
    /// at the same seed. Pure per-round computation — no driver state is
    /// consulted or mutated.
    pub fn context_for(
        &self,
        round: usize,
        num_clients: usize,
        last_uplink: &[usize],
    ) -> RoundContext {
        let mut ctx = match &self.faults {
            Some(plan) => plan.round_context(round, num_clients, last_uplink),
            None => RoundContext::benign(Cohort::full(num_clients)),
        };
        if let CohortPolicy::Sample { size, seed } = self.cohort {
            let invited = sample_cohort(seed, round, num_clients, size);
            ctx = ctx.restrict_to_sample(&invited);
        }
        ctx.with_worker_budget(self.workers)
    }

    /// Finalizes the configuration.
    pub fn build(self) -> Driver {
        Driver { config: self }
    }
}

/// One algorithm's round loop, a step at a time: what [`Driver::run`] and
/// the `fedpkd-serve` engine both own while rounds are being driven.
///
/// [`begin`](Self::begin) takes the lifetime ledger out of the algorithm's
/// [`DriverState`] and folds every uplink it holds into each client's last
/// observed uplink size; [`context`](Self::context) and
/// [`commit`](Self::commit) run one round, `commit` folding in the
/// transfers the round added; [`park`](Self::park) copies the round
/// counter and ledger back so that a snapshot captures them, and
/// [`finish`](Self::finish) moves them back for good.
#[derive(Debug)]
pub struct RoundLoop<'a> {
    config: &'a DriverBuilder,
    round: usize,
    ledger: CommLedger,
    /// Each client's uplink bytes in the latest round it sent any, feeding
    /// the straggler-deadline estimate, and which round that was.
    last_uplink: Vec<usize>,
    uplink_round: Vec<usize>,
}

impl<'a> RoundLoop<'a> {
    /// Starts (or, after a restore or an earlier run, continues) `algo`'s
    /// round loop under `config`.
    pub fn begin<F: Federation>(config: &'a DriverBuilder, algo: &mut F) -> Self {
        let mut steps = Self {
            config,
            round: algo.driver().rounds_driven,
            ledger: std::mem::take(&mut algo.driver_mut().ledger),
            last_uplink: vec![0; algo.num_clients()],
            uplink_round: vec![usize::MAX; algo.num_clients()],
        };
        steps.observe_uplinks(0);
        steps
    }

    /// Folds the ledger's transfers from index `from` on into
    /// `last_uplink`: a client's uplinks of one round add up, a later
    /// round's replace them, and a client that sent nothing keeps its
    /// last size. The whole ledger at [`begin`](Self::begin) and one
    /// round's transfers at each [`commit`](Self::commit) are the same
    /// fold, so a continued or resumed loop reads the sizes an
    /// uninterrupted one does.
    fn observe_uplinks(&mut self, from: usize) {
        for t in self.ledger.transfers().skip(from) {
            if t.direction != Direction::Uplink || t.bytes == 0 {
                continue;
            }
            // A record naming a client outside the fleet (a hostile
            // snapshot's) feeds no estimate.
            let Some(bytes) = self.last_uplink.get_mut(t.client) else {
                continue;
            };
            if self.uplink_round[t.client] == t.round {
                *bytes += t.bytes;
            } else {
                *bytes = t.bytes;
                self.uplink_round[t.client] = t.round;
            }
        }
    }

    /// The round the next [`commit`](Self::commit) runs.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The lifetime ledger through the last committed round.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// The participation decision the next round runs under (see
    /// [`DriverBuilder::context_for`]).
    pub fn context<F: Federation>(&self, algo: &F) -> RoundContext {
        self.config
            .context_for(self.round, algo.num_clients(), &self.last_uplink)
    }

    /// Runs the next round under `ctx` — [`context`](Self::context)'s
    /// answer, or a caller's narrowing of it — folds the uplinks it billed
    /// into the per-client sizes the next context reads, and advances.
    pub fn commit<F: Federation>(
        &mut self,
        algo: &mut F,
        ctx: &RoundContext,
        obs: &mut dyn RoundObserver,
    ) -> RoundMetrics {
        let recorded = self.ledger.num_transfers();
        let metrics = algo.round(self.round, ctx, &mut self.ledger, obs);
        self.observe_uplinks(recorded);
        self.round += 1;
        metrics
    }

    /// Copies the round counter and the ledger into `algo`'s
    /// [`DriverState`], where a snapshot looks for them; the loop goes on.
    pub fn park<F: Federation>(&self, algo: &mut F) {
        *algo.driver_mut() = DriverState::from_parts(self.round, self.ledger.clone());
    }

    /// Ends the loop: the round counter and the ledger go back into
    /// `algo`'s [`DriverState`].
    pub fn finish<F: Federation>(self, algo: &mut F) {
        *algo.driver_mut() = DriverState::from_parts(self.round, self.ledger);
    }
}

/// Drives a [`Federation`] through communication rounds under one fixed
/// configuration (see [`DriverBuilder`]).
///
/// A driver is reusable: successive [`run`](Self::run) calls on the same
/// algorithm continue its round numbering and ledger.
#[derive(Debug, Clone)]
pub struct Driver {
    config: DriverBuilder,
}

impl Driver {
    /// Shorthand for `DriverBuilder::new().rounds(rounds).build()` — the
    /// common fault-free case.
    pub fn rounds(rounds: usize) -> Self {
        DriverBuilder::new().rounds(rounds).build()
    }

    /// Runs the configured number of rounds, streaming telemetry to `obs`.
    ///
    /// Round numbering and the ledger continue from any previous run on
    /// `algo` (see [`crate::runtime::DriverState`]); the returned history
    /// covers only the newly driven rounds while the ledger spans the
    /// algorithm's lifetime. Same seeds → bit-identical [`RunResult`],
    /// regardless of the worker budget.
    ///
    /// # Panics
    ///
    /// Panics if the builder was configured with zero rounds.
    pub fn run<F: Federation>(&mut self, algo: &mut F, obs: &mut dyn RoundObserver) -> RunResult {
        assert!(self.config.rounds > 0, "need at least one round");
        let mut steps = RoundLoop::begin(&self.config, algo);
        let history = (0..self.config.rounds)
            .map(|_| {
                let ctx = steps.context(algo);
                steps.commit(algo, &ctx, obs)
            })
            .collect();
        steps.finish(algo);
        RunResult {
            history,
            ledger: algo.driver().ledger.clone(),
        }
    }

    /// [`run`](Self::run) with telemetry disabled.
    ///
    /// # Panics
    ///
    /// Panics if the builder was configured with zero rounds.
    pub fn run_silent<F: Federation>(&mut self, algo: &mut F) -> RunResult {
        self.run(algo, &mut NullObserver)
    }

    /// Restores the snapshot `bytes` (as [`Federation::snapshot_to`] or
    /// [`Driver::snapshot`] wrote them) into `algo`, announcing
    /// [`TelemetryEvent::SnapshotRestored`], and continues the run from
    /// the captured round boundary. The fully deterministic stack makes
    /// the resumed rounds bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// See [`Federation::restore_from`]; nothing runs if the restore fails.
    ///
    /// # Panics
    ///
    /// Panics if the builder was configured with zero rounds.
    pub fn resume<F: Federation>(
        &mut self,
        algo: &mut F,
        mut bytes: &[u8],
        obs: &mut dyn RoundObserver,
    ) -> Result<RunResult, SnapshotError> {
        let len = bytes.len();
        algo.restore_from(&mut bytes)?;
        obs.record(&TelemetryEvent::SnapshotRestored {
            round: algo.driver().rounds_driven,
            bytes: len - bytes.len(),
        });
        Ok(self.run(algo, obs))
    }

    /// Captures a snapshot of `algo` in memory — the bytes
    /// [`Federation::snapshot_to`] streams — and announces it as
    /// [`TelemetryEvent::SnapshotTaken`].
    pub fn snapshot<F: Federation>(algo: &F, obs: &mut dyn RoundObserver) -> Vec<u8> {
        let mut bytes = Vec::new();
        algo.snapshot_to(&mut bytes)
            .expect("writing to a Vec cannot fail");
        obs.record(&TelemetryEvent::SnapshotTaken {
            round: algo.driver().rounds_driven,
            bytes: bytes.len(),
        });
        bytes
    }
}
