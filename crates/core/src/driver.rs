//! The redesigned driver entry point: one builder for every way to run a
//! federation.
//!
//! Faults, adversaries (via the [`FaultPlan`]), cohort sampling over a
//! fleet and the worker budget are orthogonal knobs on one
//! [`DriverBuilder`], and [`Driver::run`]/[`Driver::resume`] are the only
//! verbs. The round counter and the lifetime ledger have one home, the
//! algorithm's [`DriverState`](crate::runtime::DriverState): a round is
//! [`DriverBuilder::context`] then [`Federation::round`], which reads the
//! round from that state, bills the ledger held there and advances it.
//! `Driver::run` and the `fedpkd-serve` engine both run rounds that way,
//! so a served round and a simulated one are the same code.
//!
//! # The event-driven round loop
//!
//! Per round the driver:
//!
//! 1. evaluates the optional [`FaultPlan`] into a [`RoundContext`]
//!    (under a straggler deadline, feeding each client's last observed
//!    uplink size, folded from the lifetime ledger, to the check),
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

use crate::runtime::{Federation, RunResult};
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

    /// Evaluates this configuration's participation decision — fault
    /// plan, cohort sampling, worker budget — into the [`RoundContext`]
    /// that `algo`'s next round runs under.
    ///
    /// [`Driver::run`] and the `fedpkd-serve` engine both call it before
    /// each [`Federation::round`], so a served round and a simulated round
    /// make the same invitation/drop decisions at the same seed. It reads
    /// `algo`'s driver state and changes nothing.
    pub fn context<F: Federation>(&self, algo: &F) -> RoundContext {
        let driver = algo.driver();
        let round = driver.rounds_driven();
        let num_clients = algo.num_clients();
        let mut ctx = match &self.faults {
            Some(plan) => {
                // Only the deadline check reads a client's upload size.
                let last_uplink = match plan.deadline() {
                    Some(_) => last_uplink(driver.ledger(), num_clients),
                    None => Vec::new(),
                };
                plan.round_context(round, num_clients, &last_uplink)
            }
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

/// Each client's uplink bytes in the latest round it sent any, the
/// straggler-deadline estimate: a client's uplinks of one round add up, a
/// later round's replace them, and a client that sent nothing reads 0. One
/// fold over the whole lifetime ledger, so a run continued or resumed at
/// any round reads the sizes an uninterrupted one does.
fn last_uplink(ledger: &CommLedger, num_clients: usize) -> Vec<usize> {
    let mut bytes = vec![0; num_clients];
    let mut latest = vec![usize::MAX; num_clients];
    for t in ledger.transfers() {
        if t.direction != Direction::Uplink || t.bytes == 0 {
            continue;
        }
        // A record naming a client outside the fleet (a hostile
        // snapshot's) feeds no estimate.
        let Some(sent) = bytes.get_mut(t.client) else {
            continue;
        };
        if latest[t.client] == t.round {
            *sent += t.bytes;
        } else {
            *sent = t.bytes;
            latest[t.client] = t.round;
        }
    }
    bytes
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
        let history = (0..self.config.rounds)
            .map(|_| {
                let ctx = self.config.context(algo);
                algo.round(&ctx, obs)
            })
            .collect();
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
