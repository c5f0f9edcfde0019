//! The synchronous federated round engine.
//!
//! [`Federation`] is the one trait an algorithm implements and the one
//! callers drive. The required methods are the algorithm's own: execute
//! one round's phases — for the clients the round's
//! [`Cohort`](fedpkd_netsim::Cohort) says are present — against the
//! communication ledger, report accuracies on demand, and encode/decode
//! the owned state. The provided methods are what every algorithm shares:
//! [`round`](Federation::round) frames one round with cohort telemetry,
//! evaluation and ledger accounting, and
//! [`snapshot_to`](Federation::snapshot_to) /
//! [`restore_from`](Federation::restore_from) wrap
//! `write_state`/`read_state` in the one snapshot stream. The loop over
//! rounds lives in [`crate::driver`], so it exists exactly once for FedPKD
//! and all seven baselines, in process or behind a socket.
//!
//! Fault injection is entirely a driver concern: the driver evaluates an
//! optional [`FaultPlan`](fedpkd_netsim::FaultPlan) each round (feeding it
//! each client's last observed uplink size for the straggler-deadline
//! check), and hands the algorithm a [`RoundContext`] — the surviving
//! cohort plus the Byzantine attack roster. Algorithms never see the plan
//! itself, so the same degradation path covers every fault mechanism; they
//! apply the roster's corruption to survivor uploads before any
//! server-side processing, which is what makes admission control and
//! robust aggregation testable end to end.

use std::time::Instant;

use fedpkd_netsim::{CommLedger, DropCause, RoundContext};

use crate::snapshot::{
    SnapshotError, SnapshotStreamReader, SnapshotStreamWriter, StateSink, StateSource,
};
use crate::telemetry::{emit_phase_timing, Phase, RoundObserver, TelemetryEvent};

/// Metrics captured after one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMetrics {
    /// Zero-based round index.
    pub round: usize,
    /// Server-model accuracy on the global test set, if the algorithm
    /// trains a server model (FedMD and DS-FL do not).
    pub server_accuracy: Option<f64>,
    /// Per-client accuracy on each client's local test set.
    pub client_accuracies: Vec<f64>,
    /// Cumulative communication bytes through this round.
    pub cumulative_bytes: usize,
    /// Fraction of clients that participated this round (1.0 without fault
    /// injection).
    pub participation_rate: f64,
}

impl RoundMetrics {
    /// Mean of the per-client accuracies (the paper's `C_acc`), or 0 when
    /// there are none.
    pub fn mean_client_accuracy(&self) -> f64 {
        if self.client_accuracies.is_empty() {
            0.0
        } else {
            self.client_accuracies.iter().sum::<f64>() / self.client_accuracies.len() as f64
        }
    }
}

/// The outcome of a full federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-round metrics, in round order.
    pub history: Vec<RoundMetrics>,
    /// Every byte that crossed the simulated network over the algorithm's
    /// lifetime — for a continued run (a second `run` on the same
    /// instance), this includes earlier runs' rounds too, keeping
    /// cumulative-bytes queries coherent with the persisted model state.
    pub ledger: CommLedger,
}

impl RunResult {
    /// The final round's metrics.
    ///
    /// # Panics
    ///
    /// Panics if the run had zero rounds.
    pub fn last(&self) -> &RoundMetrics {
        self.history.last().expect("run had at least one round")
    }

    /// Best server accuracy across rounds, if any round reported one.
    pub fn best_server_accuracy(&self) -> Option<f64> {
        self.history
            .iter()
            .filter_map(|m| m.server_accuracy)
            .fold(None, |best, acc| {
                Some(best.map_or(acc, |b: f64| b.max(acc)))
            })
    }

    /// Best mean client accuracy across rounds.
    pub fn best_client_accuracy(&self) -> f64 {
        self.history
            .iter()
            .map(RoundMetrics::mean_client_accuracy)
            .fold(0.0, f64::max)
    }

    /// Cumulative communication bytes at the first round whose *server*
    /// accuracy reaches `target`, or `None` if it never does.
    pub fn bytes_to_server_accuracy(&self, target: f64) -> Option<usize> {
        self.history
            .iter()
            .find(|m| m.server_accuracy.is_some_and(|a| a >= target))
            .map(|m| m.cumulative_bytes)
    }

    /// Cumulative communication bytes at the first round whose *mean client*
    /// accuracy reaches `target`, or `None` if it never does.
    pub fn bytes_to_client_accuracy(&self, target: f64) -> Option<usize> {
        self.history
            .iter()
            .find(|m| m.mean_client_accuracy() >= target)
            .map(|m| m.cumulative_bytes)
    }
}

/// The round counter and the lifetime ledger: the one home of both, on
/// each algorithm.
///
/// Every [`Federation`] implementation embeds one (exposed through
/// [`Federation::driver`]/[`Federation::driver_mut`]) and
/// [`Federation::round`] is what advances it, so a second `run` on the
/// same instance *continues* — round numbering and the ledger pick up
/// where the previous run stopped instead of restarting at round 0 against
/// the already-trained models — and a snapshot taken between any two
/// rounds captures both.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriverState {
    pub(crate) rounds_driven: usize,
    pub(crate) ledger: CommLedger,
}

impl DriverState {
    /// A fresh state: no rounds driven, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rounds the shared driver has executed on this algorithm so far.
    pub fn rounds_driven(&self) -> usize {
        self.rounds_driven
    }

    /// The lifetime communication ledger.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// Rebuilds a driver state from snapshotted parts (see
    /// [`crate::snapshot::read_driver`]).
    ///
    /// Restoring the ledger alongside the round counter matters for more
    /// than accounting: the driver folds the straggler-deadline estimate
    /// from the ledger's recorded uplinks, so a resumed run only evaluates
    /// fault plans bit-identically if the ledger came back too.
    pub fn from_parts(rounds_driven: usize, ledger: CommLedger) -> Self {
        Self {
            rounds_driven,
            ledger,
        }
    }
}

/// A federated learning algorithm: what it implements and how it is driven.
///
/// Implementations own their scenario, client models, and (optionally)
/// server model. The provided [`round`](Self::round) calls `run_round`
/// with the round counter of the instance's [`DriverState`], which it then
/// advances, so round indices start at 0 and strictly increase; it also
/// handles evaluation, ledger accounting, and round-boundary telemetry —
/// implementations only emit the events for what happens *inside* a round
/// (client training, aggregation, filtering, distillation).
///
/// # Partial participation
///
/// `run_round` must honor the round's [`Cohort`](fedpkd_netsim::Cohort) (via
/// [`RoundContext::cohort`]): dropped clients do not train, upload, receive
/// downlink payloads, or appear in the ledger — the network never carried
/// their bytes. A round may have *zero* survivors; implementations must
/// treat it as a no-op round rather than panicking.
///
/// # Byzantine participation
///
/// The context's attack roster marks surviving clients that corrupt their
/// uploads. Implementations that model uploads should apply the roster's
/// [`Attack`](fedpkd_netsim::Attack)s to those payloads before server-side
/// processing; the corrupted bytes are still charged to the ledger (they
/// crossed the wire), and whatever defense the algorithm has — admission
/// control, robust aggregation — operates downstream of the corruption.
pub trait Federation {
    /// A short display name (`"FedPKD"`, `"FedAvg"`, …).
    fn name(&self) -> &'static str;

    /// Number of participating clients.
    fn num_clients(&self) -> usize;

    /// Executes one communication round over the context's surviving
    /// cohort (with its attack roster applied to uploads), recording every
    /// transfer in `ledger` and reporting in-round telemetry to `obs`.
    fn run_round(
        &mut self,
        round: usize,
        ctx: &RoundContext,
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    );

    /// Server-model accuracy on the global test set, or `None` if the
    /// algorithm has no server model.
    fn server_accuracy(&mut self) -> Option<f64>;

    /// Per-client accuracy on the clients' local test sets.
    fn client_accuracies(&mut self) -> Vec<f64>;

    /// The driver's persistent book-keeping for this instance.
    fn driver(&self) -> &DriverState;

    /// Mutable access to the driver's persistent book-keeping.
    fn driver_mut(&mut self) -> &mut DriverState;

    /// Encodes the algorithm's complete owned state — models, optimizer
    /// moments, RNG positions, caches, driver book-keeping — into `w`, at
    /// the current round boundary.
    ///
    /// This is the one serialization an algorithm writes;
    /// [`snapshot_to`](Self::snapshot_to) drives it.
    fn write_state(&self, w: &mut dyn StateSink);

    /// Decodes state written by [`write_state`](Self::write_state) from `r`
    /// into this instance, which must have been built with the same
    /// configuration (scenario, specs, seed, hyperparameters).
    ///
    /// Implementations must consume exactly the bytes
    /// [`write_state`](Self::write_state) produced; the calling envelope
    /// rejects anything left over. On error the instance may have been
    /// partially overwritten and should be discarded, not reused.
    ///
    /// # Errors
    ///
    /// The decoding errors of [`crate::snapshot`] for truncated, corrupt,
    /// or mismatched payloads.
    fn read_state(&mut self, r: &mut dyn StateSource) -> Result<(), SnapshotError>;

    /// Streams a complete snapshot of the current round boundary straight
    /// into `sink` (see [`crate::snapshot`] for the format) — the state is
    /// encoded through a 64 KiB staging buffer, so checkpointing a
    /// 10k-client fleet never materializes a whole-fleet byte vector. To
    /// hold a snapshot in memory, pass a `&mut Vec<u8>`.
    ///
    /// The contract (verified end to end by `tests/checkpoint.rs`) is that
    /// [`restore_from`](Self::restore_from)-ing the bytes into a freshly
    /// constructed same-config instance and continuing yields bit-identical
    /// results to never having stopped.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if `sink` fails.
    fn snapshot_to(&self, sink: &mut dyn std::io::Write) -> Result<(), SnapshotError> {
        let mut w = SnapshotStreamWriter::new(sink, self.name());
        self.write_state(&mut w);
        w.finish()
    }

    /// Restores a snapshot streamed by [`snapshot_to`](Self::snapshot_to)
    /// from `source`, chunk by chunk.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::AlgorithmMismatch`] when the snapshot belongs to a
    /// different algorithm, [`SnapshotError::UnsupportedVersion`] for any
    /// format version but the current one, [`SnapshotError::Io`] if
    /// `source` fails, and the decoding errors of [`crate::snapshot`] for
    /// truncated/corrupt/mismatched bytes. On error the instance may have
    /// been partially overwritten and should be discarded, not reused.
    fn restore_from(&mut self, source: &mut dyn std::io::Read) -> Result<(), SnapshotError> {
        let (mut r, name) = SnapshotStreamReader::open(source)?;
        if name != self.name() {
            return Err(SnapshotError::AlgorithmMismatch {
                expected: self.name().to_string(),
                found: name,
            });
        }
        self.read_state(&mut r)?;
        r.finish()
    }

    /// Executes the next communication round end to end — cohort
    /// telemetry, training phases, evaluation, ledger accounting — and
    /// returns its metrics.
    ///
    /// The round is [`DriverState::rounds_driven`]; its transfers go into
    /// the lifetime ledger held in the same state, and the counter
    /// advances by one. Emits [`TelemetryEvent::RoundStart`], one
    /// [`TelemetryEvent::ClientDropped`] per missing client, the in-round
    /// event stream, [`TelemetryEvent::LedgerDelta`], and
    /// [`TelemetryEvent::RoundEnd`] to `obs`, in that order.
    fn round(&mut self, ctx: &RoundContext, obs: &mut dyn RoundObserver) -> RoundMetrics {
        let round_started = Instant::now();
        let round = self.driver().rounds_driven;
        let cohort = ctx.cohort();
        obs.record(&TelemetryEvent::RoundStart {
            algorithm: self.name().to_string(),
            round,
            clients: self.num_clients(),
        });
        for (client, cause) in cohort.dropped() {
            // An uninvited client is a cohort-policy decision, not a
            // fault — no drop event for a 10k-fleet round that invites
            // 256 clients.
            if cause == DropCause::Unsampled {
                continue;
            }
            obs.record(&TelemetryEvent::ClientDropped {
                round,
                client,
                cause,
            });
        }
        let mut ledger = std::mem::take(&mut self.driver_mut().ledger);
        self.run_round(round, ctx, &mut ledger, obs);
        let traffic = ledger.round_traffic(round);
        let cumulative_bytes = ledger.cumulative_bytes_through_round(round);
        *self.driver_mut() = DriverState::from_parts(round + 1, ledger);
        let eval_started = Instant::now();
        let server_accuracy = self.server_accuracy();
        let client_accuracies = self.client_accuracies();
        emit_phase_timing(obs, round, Phase::Evaluation, eval_started);
        obs.record(&TelemetryEvent::LedgerDelta {
            round,
            uplink_bytes: traffic.uplink,
            downlink_bytes: traffic.downlink,
            cumulative_bytes,
        });
        let metrics = RoundMetrics {
            round,
            server_accuracy,
            client_accuracies,
            cumulative_bytes,
            participation_rate: cohort.participation_rate(),
        };
        obs.record(&TelemetryEvent::RoundEnd {
            round,
            seconds: round_started.elapsed().as_secs_f64(),
            server_accuracy,
            mean_client_accuracy: metrics.mean_client_accuracy(),
            cumulative_bytes,
            participation_rate: cohort.participation_rate(),
        });
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Driver, DriverBuilder};
    use crate::telemetry::{EventLog, NullObserver};
    use fedpkd_netsim::{CohortPolicy, Direction, FaultPlan, Message};

    /// A fake federation whose accuracy rises linearly and in which every
    /// surviving client sends a fixed-size message per round.
    struct FakeFed {
        acc: f64,
        driver: DriverState,
    }

    impl FakeFed {
        fn new() -> Self {
            Self {
                acc: 0.0,
                driver: DriverState::new(),
            }
        }
    }

    impl Federation for FakeFed {
        fn name(&self) -> &'static str {
            "Fake"
        }
        fn num_clients(&self) -> usize {
            2
        }
        fn run_round(
            &mut self,
            round: usize,
            ctx: &RoundContext,
            ledger: &mut CommLedger,
            obs: &mut dyn RoundObserver,
        ) {
            self.acc = 0.1 * (round + 1) as f64;
            for client in ctx.cohort().survivors() {
                ledger.record(
                    round,
                    client,
                    Direction::Uplink,
                    &Message::ModelUpdate {
                        params: vec![0.0; 25],
                    },
                );
                obs.record(&TelemetryEvent::ClientTrained {
                    round,
                    client,
                    samples: 25,
                    mean_loss: 1.0,
                });
            }
        }
        fn server_accuracy(&mut self) -> Option<f64> {
            Some(self.acc)
        }
        fn client_accuracies(&mut self) -> Vec<f64> {
            vec![self.acc, self.acc + 0.1]
        }
        fn driver(&self) -> &DriverState {
            &self.driver
        }
        fn driver_mut(&mut self) -> &mut DriverState {
            &mut self.driver
        }
        fn write_state(&self, w: &mut dyn StateSink) {
            w.put_f64(self.acc);
            crate::snapshot::write_driver(w, &self.driver);
        }
        fn read_state(&mut self, r: &mut dyn StateSource) -> Result<(), SnapshotError> {
            self.acc = r.take_f64()?;
            self.driver = crate::snapshot::read_driver(r)?;
            Ok(())
        }
    }

    #[test]
    fn run_collects_history_per_round() {
        let result = Driver::rounds(5).run_silent(&mut FakeFed::new());
        assert_eq!(result.history.len(), 5);
        assert_eq!(result.last().round, 4);
        assert!((result.last().server_accuracy.unwrap() - 0.5).abs() < 1e-12);
        assert!((result.last().mean_client_accuracy() - 0.55).abs() < 1e-12);
        assert_eq!(result.last().participation_rate, 1.0);
    }

    #[test]
    fn cumulative_bytes_are_monotone() {
        let result = Driver::rounds(4).run_silent(&mut FakeFed::new());
        for pair in result.history.windows(2) {
            assert!(pair[1].cumulative_bytes > pair[0].cumulative_bytes);
        }
    }

    #[test]
    fn bytes_to_accuracy_finds_first_crossing() {
        let result = Driver::rounds(10).run_silent(&mut FakeFed::new());
        let at_03 = result.bytes_to_server_accuracy(0.3).unwrap();
        let at_08 = result.bytes_to_server_accuracy(0.8).unwrap();
        assert!(at_03 < at_08);
        assert_eq!(result.bytes_to_server_accuracy(2.0), None);
        assert!(result.bytes_to_client_accuracy(0.3).is_some());
    }

    #[test]
    fn best_accuracies() {
        let result = Driver::rounds(3).run_silent(&mut FakeFed::new());
        assert!((result.best_server_accuracy().unwrap() - 0.3).abs() < 1e-12);
        assert!((result.best_client_accuracy() - 0.35).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = Driver::rounds(0).run_silent(&mut FakeFed::new());
    }

    #[test]
    fn mean_client_accuracy_empty_is_zero() {
        let m = RoundMetrics {
            round: 0,
            server_accuracy: None,
            client_accuracies: vec![],
            cumulative_bytes: 0,
            participation_rate: 1.0,
        };
        assert_eq!(m.mean_client_accuracy(), 0.0);
    }

    #[test]
    fn second_run_continues_round_numbering_and_ledger() {
        // Regression: a second `run` on a live instance used to restart at
        // round 0 with a fresh ledger while model state persisted.
        let mut fed = FakeFed::new();
        let first = Driver::rounds(3).run_silent(&mut fed);
        assert_eq!(fed.driver().rounds_driven(), 3);
        let second = Driver::rounds(2).run_silent(&mut fed);
        assert_eq!(fed.driver().rounds_driven(), 5);
        assert_eq!(second.history[0].round, 3);
        assert_eq!(second.last().round, 4);
        // The continued ledger spans both runs, so cumulative bytes keep
        // growing across the boundary.
        assert!(second.history[0].cumulative_bytes > first.last().cumulative_bytes);
        assert_eq!(second.ledger.rounds_recorded(), 5);
        assert_eq!(
            second.ledger.cumulative_bytes_through_round(2),
            first.last().cumulative_bytes
        );

        // Regression: under a deadline plan, the second run used to seed
        // each client's uplink size from the round before it only, so a
        // client dropped there came back on a 0-byte estimate. Both
        // clients send in round 0 and are deadline-dropped ever after;
        // 2 + 1 rounds must be the 3 rounds.
        let link = fedpkd_netsim::LinkModel::new(10.0, 0.0);
        let driver = |rounds| {
            DriverBuilder::new()
                .rounds(rounds)
                .faults(FaultPlan::new(0).with_deadline(link, 1.0))
                .build()
        };
        let straight = driver(3).run_silent(&mut FakeFed::new());
        let mut fed = FakeFed::new();
        let head = driver(2).run_silent(&mut fed);
        let tail = driver(1).run_silent(&mut fed);
        assert_eq!([head.history, tail.history].concat(), straight.history);
        assert_eq!(tail.ledger, straight.ledger);
    }

    #[test]
    fn driver_drops_clients_per_fault_plan() {
        let plan = FaultPlan::new(0).with_outage(1, 1, 1);
        let mut log = EventLog::new();
        let result = DriverBuilder::new()
            .rounds(3)
            .faults(plan)
            .build()
            .run(&mut FakeFed::new(), &mut log);
        assert_eq!(result.history[0].participation_rate, 1.0);
        assert_eq!(result.history[1].participation_rate, 0.5);
        assert_eq!(result.history[2].participation_rate, 1.0);
        // Round 1 carries half the uplink bytes of a full round.
        let full = result.ledger.round_traffic(0).uplink;
        assert_eq!(result.ledger.round_traffic(1).uplink, full / 2);
        let drops: Vec<_> = log.of_kind("client_dropped").collect();
        assert_eq!(drops.len(), 1);
        match drops[0] {
            TelemetryEvent::ClientDropped {
                round,
                client,
                cause,
            } => {
                assert_eq!((*round, *client), (1, 1));
                assert_eq!(*cause, DropCause::Crash);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn deadline_check_uses_observed_uplink_sizes() {
        // 10 B/s link, no latency; the 104-byte FakeFed payload takes
        // ~10 s. Round 0 has no size estimate (0 bytes → instant), so the
        // drop begins in round 1 once real sizes are known.
        let link = fedpkd_netsim::LinkModel::new(10.0, 0.0);
        let plan = FaultPlan::new(0).with_deadline(link, 1.0);
        let mut log = EventLog::new();
        let result = DriverBuilder::new()
            .rounds(2)
            .faults(plan)
            .build()
            .run(&mut FakeFed::new(), &mut log);
        assert_eq!(result.history[0].participation_rate, 1.0);
        assert_eq!(result.history[1].participation_rate, 0.0);
        assert!(log
            .of_kind("client_dropped")
            .all(|e| matches!(e, TelemetryEvent::ClientDropped { round: 1, .. })));
    }

    #[test]
    fn driver_frames_each_round_with_telemetry() {
        let mut log = EventLog::new();
        let result = Driver::rounds(2).run(&mut FakeFed::new(), &mut log);
        let kinds: Vec<&str> = log.events().iter().map(TelemetryEvent::kind).collect();
        assert_eq!(
            kinds,
            vec![
                "round_start",
                "client_trained",
                "client_trained",
                "phase_timing",
                "ledger_delta",
                "round_end",
                "round_start",
                "client_trained",
                "client_trained",
                "phase_timing",
                "ledger_delta",
                "round_end",
            ]
        );
        match &log.events()[0] {
            TelemetryEvent::RoundStart {
                algorithm,
                round,
                clients,
            } => {
                assert_eq!(algorithm, "Fake");
                assert_eq!(*round, 0);
                assert_eq!(*clients, 2);
            }
            other => panic!("unexpected first event {other:?}"),
        }
        match log.events().last().unwrap() {
            TelemetryEvent::RoundEnd {
                round,
                server_accuracy,
                cumulative_bytes,
                participation_rate,
                ..
            } => {
                assert_eq!(*round, 1);
                assert_eq!(*server_accuracy, result.last().server_accuracy);
                assert_eq!(*cumulative_bytes, result.last().cumulative_bytes);
                assert_eq!(*participation_rate, 1.0);
            }
            other => panic!("unexpected last event {other:?}"),
        }
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        let plan = FaultPlan::new(3).with_dropout(0.3);
        let mut straight = FakeFed::new();
        let full = DriverBuilder::new()
            .rounds(6)
            .faults(plan.clone())
            .build()
            .run_silent(&mut straight);

        let mut first_half = FakeFed::new();
        let _ = DriverBuilder::new()
            .rounds(3)
            .faults(plan.clone())
            .build()
            .run_silent(&mut first_half);
        let state = Driver::snapshot(&first_half, &mut NullObserver);
        drop(first_half); // the "crash"

        let mut resumed = FakeFed::new();
        let second = DriverBuilder::new()
            .rounds(3)
            .faults(plan)
            .build()
            .resume(&mut resumed, &state, &mut NullObserver)
            .unwrap();
        assert_eq!(second.history, full.history[3..].to_vec());
        assert_eq!(second.ledger, full.ledger);
    }

    #[test]
    fn snapshot_survives_the_byte_codec() {
        let mut fed = FakeFed::new();
        let _ = Driver::rounds(2).run_silent(&mut fed);
        let mut bytes = Vec::new();
        fed.snapshot_to(&mut bytes).unwrap();
        let mut restored = FakeFed::new();
        restored.restore_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(restored.driver().rounds_driven(), 2);
        assert_eq!(restored.acc, fed.acc);
        assert_eq!(restored.driver, fed.driver);
        // And the restored instance writes the bytes it was restored from.
        assert_eq!(Driver::snapshot(&restored, &mut NullObserver), bytes);
    }

    #[test]
    fn snapshot_telemetry_frames_the_operations() {
        let mut fed = FakeFed::new();
        let _ = Driver::rounds(1).run_silent(&mut fed);
        let mut log = EventLog::new();
        let state = Driver::snapshot(&fed, &mut log);
        let mut resumed = FakeFed::new();
        let _ = Driver::rounds(1)
            .resume(&mut resumed, &state, &mut log)
            .unwrap();
        let kinds: Vec<&str> = log.events().iter().map(TelemetryEvent::kind).collect();
        assert_eq!(kinds[0], "snapshot_taken");
        assert_eq!(kinds[1], "snapshot_restored");
        match (&log.events()[0], &log.events()[1]) {
            (
                TelemetryEvent::SnapshotTaken {
                    round: r0,
                    bytes: b0,
                },
                TelemetryEvent::SnapshotRestored {
                    round: r1,
                    bytes: b1,
                },
            ) => {
                assert_eq!((*r0, *r1), (1, 1));
                // The size of the stream, not of the payload inside it.
                assert_eq!((*b0, *b1), (state.len(), state.len()));
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let mut bytes = Vec::new();
        SnapshotStreamWriter::new(&mut bytes, "NotFake")
            .finish()
            .unwrap();
        let err = FakeFed::new()
            .restore_from(&mut bytes.as_slice())
            .unwrap_err();
        assert_eq!(
            err,
            SnapshotError::AlgorithmMismatch {
                expected: "Fake".into(),
                found: "NotFake".into(),
            }
        );
    }

    #[test]
    fn ledger_delta_matches_round_traffic() {
        let mut log = EventLog::new();
        let result = Driver::rounds(1).run(&mut FakeFed::new(), &mut log);
        let delta = log.of_kind("ledger_delta").next().unwrap();
        match delta {
            TelemetryEvent::LedgerDelta {
                uplink_bytes,
                downlink_bytes,
                cumulative_bytes,
                ..
            } => {
                assert!(*uplink_bytes > 0);
                assert_eq!(*downlink_bytes, 0);
                assert_eq!(*cumulative_bytes, result.ledger.total_bytes());
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn cohort_sampling_invites_subset_without_drop_telemetry() {
        let mut log = EventLog::new();
        let result = DriverBuilder::new()
            .rounds(4)
            .cohort(CohortPolicy::Sample { size: 1, seed: 11 })
            .build()
            .run(&mut FakeFed::new(), &mut log);
        // Every round exactly one of the two clients uploads, so traffic is
        // half a full round's; uninvited clients are not casualties.
        let full = Driver::rounds(1).run_silent(&mut FakeFed::new());
        for metrics in &result.history {
            assert_eq!(metrics.participation_rate, 1.0);
        }
        assert_eq!(
            result.ledger.round_traffic(0).uplink,
            full.ledger.round_traffic(0).uplink / 2
        );
        assert_eq!(log.of_kind("client_dropped").count(), 0);
        // The per-round draws are seeded per round: over 4 rounds both
        // clients should get invited at least once (seed chosen so).
        let sampled: std::collections::BTreeSet<usize> = (0..4)
            .flat_map(|round| fedpkd_netsim::sample_cohort(11, round, 2, 1))
            .collect();
        assert_eq!(sampled.len(), 2);
    }

    #[test]
    fn worker_budget_never_changes_results() {
        let narrow = DriverBuilder::new()
            .rounds(3)
            .workers(1)
            .build()
            .run_silent(&mut FakeFed::new());
        let wide = DriverBuilder::new()
            .rounds(3)
            .workers(64)
            .build()
            .run_silent(&mut FakeFed::new());
        assert_eq!(narrow, wide);
    }
}
