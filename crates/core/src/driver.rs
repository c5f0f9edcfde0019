//! The redesigned driver entry point: one builder for every way to run a
//! federation.
//!
//! Faults, adversaries (via the [`FaultPlan`]), cohort sampling over a
//! fleet, the worker budget, the bounded-staleness window, and the
//! snapshot policy are all orthogonal knobs on one [`DriverBuilder`], and
//! [`Driver::run`]/[`Driver::resume`] are the only verbs.
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
//!    [`DropCause::Unsampled`], excluded from participation accounting,
//!    and emit no drop telemetry,
//! 3. in bounded-staleness mode ([`DriverBuilder::staleness`]), promotes
//!    invited deadline-stragglers whose lag fits the bound onto the
//!    context's late-arrival roster,
//! 4. stamps the context with the worker budget and hands it to the
//!    algorithm's round, whose client phase runs on the work-stealing
//!    pool and whose server folds uploads into streaming accumulators in
//!    canonical client order.
//!
//! Every per-round decision — sampling, faults, attacks, staleness lags —
//! is a pure function of `(seed, round, client)`, so the same seeds
//! replay to a bit-identical [`RunResult`] regardless of worker count or
//! completion interleaving.

use fedpkd_netsim::{sample_cohort, Cohort, CohortPolicy, DropCause, FaultPlan, RoundContext};

use crate::runtime::{Federation, RunResult};
use crate::snapshot::{AlgorithmState, SnapshotError};
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
    staleness: usize,
    snapshot_every: Option<usize>,
}

impl DriverBuilder {
    /// A builder with defaults: 1 round, no faults, full cohort, the
    /// machine's worker budget, synchronous (no staleness), no automatic
    /// snapshots.
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

    /// Caps the client-phase worker pool of every algorithm — FedPKD and
    /// the seven baselines alike run their client phases through
    /// [`clients`](crate::clients), which reads this budget — at `workers`
    /// threads (default: the machine's available parallelism); at 2 or
    /// more FedPKD's server step also takes its one step-worker thread.
    /// Worker count never affects results — only wall-clock time.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Opts into bounded-staleness async mode: an invited straggler that
    /// misses the round deadline by at most `max_lag` rounds (see
    /// [`FaultPlan::deadline_lag`]) is put on the round's late-arrival
    /// roster instead of being discarded. Algorithms that support
    /// staleness (FedPKD's prototype path) train such clients and fold
    /// their upload in when it arrives; `0` (the default) is strict
    /// synchronous mode.
    pub fn staleness(mut self, max_lag: usize) -> Self {
        self.staleness = max_lag;
        self
    }

    /// Automatically captures a snapshot (announced as
    /// [`TelemetryEvent::SnapshotTaken`]) after every `every`-th driven
    /// round; retrieve the newest via [`Driver::last_snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn snapshot_every(mut self, every: usize) -> Self {
        assert!(every > 0, "snapshot interval must be at least 1 round");
        self.snapshot_every = Some(every);
        self
    }

    /// Evaluates this configuration's per-round participation decision —
    /// fault plan, cohort sampling, staleness promotion, worker budget —
    /// into the [`RoundContext`] that round `round` runs under, given each
    /// client's most recent observed uplink bytes.
    ///
    /// This is the hook a transport-backed driver (the `fedpkd-serve`
    /// engine) shares with [`Driver::run`]: both call this exact function,
    /// so a served round and a simulated round make provably the same
    /// invitation/drop decisions at the same seed. Pure per-round
    /// computation — no driver state is consulted or mutated.
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
        if self.staleness > 0 {
            if let Some(plan) = &self.faults {
                // Invited deadline-stragglers whose transfer lands within
                // the staleness bound upload late instead of not at all.
                // Pure per-(round, client) computation: replays identically.
                let late: Vec<(usize, usize)> = ctx
                    .cohort()
                    .dropped()
                    .into_iter()
                    .filter(|&(_, cause)| cause == DropCause::Deadline)
                    .filter_map(|(client, _)| {
                        let bytes = last_uplink.get(client).copied().unwrap_or(0);
                        plan.deadline_lag(client, bytes)
                            .filter(|&lag| lag <= self.staleness)
                            .map(|lag| (client, lag))
                    })
                    .collect();
                ctx = ctx.with_late_arrivals(late);
            }
        }
        ctx.with_worker_budget(self.workers)
    }

    /// Finalizes the configuration.
    pub fn build(self) -> Driver {
        Driver {
            config: self,
            last_snapshot: None,
        }
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
    last_snapshot: Option<AlgorithmState>,
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
        let cfg = &self.config;
        assert!(cfg.rounds > 0, "need at least one round");
        let num_clients = algo.num_clients();
        let start = algo.driver().rounds_driven;
        // Take the persistent ledger out for the duration of the loop; it
        // goes back into the driver state before returning.
        let mut ledger = std::mem::take(&mut algo.driver_mut().ledger);
        // Each client's most recent observed uplink bytes, feeding the
        // straggler-deadline estimate. Seeded from the previous round when
        // continuing an earlier run.
        let mut last_uplink = if start > 0 {
            ledger.round_client_uplinks(start - 1, num_clients)
        } else {
            vec![0usize; num_clients]
        };
        let mut history = Vec::with_capacity(cfg.rounds);
        for round in start..start + cfg.rounds {
            let ctx = cfg.context_for(round, num_clients, &last_uplink);
            history.push(algo.round(round, &ctx, &mut ledger, obs));
            for (client, bytes) in ledger
                .round_client_uplinks(round, num_clients)
                .into_iter()
                .enumerate()
                .filter(|&(_, bytes)| bytes > 0)
            {
                if let Some(slot) = last_uplink.get_mut(client) {
                    *slot = bytes;
                }
            }
            if cfg
                .snapshot_every
                .is_some_and(|every| (round + 1 - start).is_multiple_of(every))
            {
                // The ledger must be back in the driver state for the
                // snapshot to capture it.
                algo.driver_mut().ledger = ledger.clone();
                self.last_snapshot = Some(Self::snapshot(algo, obs));
            }
        }
        algo.driver_mut().ledger = ledger.clone();
        RunResult { history, ledger }
    }

    /// [`run`](Self::run) with telemetry disabled.
    ///
    /// # Panics
    ///
    /// Panics if the builder was configured with zero rounds.
    pub fn run_silent<F: Federation>(&mut self, algo: &mut F) -> RunResult {
        self.run(algo, &mut NullObserver)
    }

    /// Restores `state` into `algo` (announcing
    /// [`TelemetryEvent::SnapshotRestored`]) and continues the run from
    /// the captured round boundary. The fully deterministic stack makes
    /// the resumed rounds bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// See [`Federation::restore`]; nothing runs if the restore fails.
    ///
    /// # Panics
    ///
    /// Panics if the builder was configured with zero rounds.
    pub fn resume<F: Federation>(
        &mut self,
        algo: &mut F,
        state: &AlgorithmState,
        obs: &mut dyn RoundObserver,
    ) -> Result<RunResult, SnapshotError> {
        algo.restore(state)?;
        obs.record(&TelemetryEvent::SnapshotRestored {
            round: algo.driver().rounds_driven,
            bytes: state.encoded_len(),
        });
        Ok(self.run(algo, obs))
    }

    /// Captures a snapshot of `algo` and announces it as
    /// [`TelemetryEvent::SnapshotTaken`].
    pub fn snapshot<F: Federation>(algo: &F, obs: &mut dyn RoundObserver) -> AlgorithmState {
        let state = algo.snapshot();
        obs.record(&TelemetryEvent::SnapshotTaken {
            round: algo.driver().rounds_driven,
            bytes: state.encoded_len(),
        });
        state
    }

    /// The newest automatic snapshot captured under
    /// [`DriverBuilder::snapshot_every`], if any.
    pub fn last_snapshot(&self) -> Option<&AlgorithmState> {
        self.last_snapshot.as_ref()
    }
}
