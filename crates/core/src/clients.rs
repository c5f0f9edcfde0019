//! Shared client plumbing: the live client, spec validation, and the
//! client-side phases of a round.
//!
//! Every algorithm keeps its clients in a [`ClientPool`] — one slot per
//! client, built on the repo-wide RNG stream convention (client `i` draws
//! from `Rng::stream(seed, 1 + i)`, the server from `Rng::stream(seed, 0)`)
//! — and runs them through the pool's ordered-commit work-stealing
//! dispatch, sized by the round's worker budget.
//!
//! The paper's round (§IV) is client training → uplink → server step →
//! downlink → client distillation; FedPKD runs all of it and the seven
//! baselines are subsets. The client-side pieces are plain functions here:
//! `train_cohort` runs a roster and hands each result to the caller's
//! commit in ascending client order, [`local_update`] (parameters up) and
//! [`public_upload`] (public-set logits up) are the baselines' buffered
//! uses of it, and [`digest`] is the downlink. Together they own, once,
//! what every algorithm must do the same way: the `ClientTrained` /
//! `ClientDistilled` events and phase timing, the worker budget, and — for
//! the baselines — the empty-cohort guard, Byzantine corruption on the
//! `(seed, round, client)` stream, size-only ledger billing, and admission.
//! A `run_round` is these calls plus the algorithm's own aggregation rule
//! and server step.

use std::time::Instant;

use crate::admission::{AdmissionPolicy, PayloadKind, RejectReason};
use crate::cow::{for_each_pooled_client_streaming, ClientPool};
use crate::fedpkd::CoreError;
use crate::telemetry::{emit_phase_timing, Phase, RoundObserver, TelemetryEvent};
use crate::train::TrainStats;
use fedpkd_data::{ClientData, FederatedScenario};
use fedpkd_netsim::{CommLedger, Direction, Message, RoundContext};
use fedpkd_rng::Rng;
use fedpkd_tensor::models::{ClassifierModel, ModelSpec};
use fedpkd_tensor::optim::Adam;
use fedpkd_tensor::parallel::max_workers;
use fedpkd_tensor::serialize::{load_state_vector, state_vector};
use fedpkd_tensor::Tensor;

/// One live client: model, optimizer, private RNG stream. Exists only
/// while the client is on a worker (or under inspection); between phases
/// it is a [`ClientPool`] slot.
pub struct ClientState {
    /// The client's local model.
    pub model: ClassifierModel,
    /// The client's optimizer state.
    pub optimizer: Adam,
    /// The client's private RNG stream (batch shuffling).
    pub rng: Rng,
}

/// Validates spec wiring against a scenario; `homogeneous` additionally
/// requires all client specs (and the server spec, when given) to be
/// identical — FedAvg, FedProx, and FedDF cannot mix architectures.
///
/// # Errors
///
/// Returns [`CoreError::ClientSpecMismatch`] when the spec count does not
/// match the scenario, [`CoreError::ClassCountMismatch`] when any spec's
/// class count disagrees with the scenario, and
/// [`CoreError::InvalidConfig`] when `homogeneous` is requested but the
/// architectures differ.
pub fn validate_specs(
    scenario: &FederatedScenario,
    client_specs: &[ModelSpec],
    server_spec: Option<&ModelSpec>,
    homogeneous: bool,
) -> Result<(), CoreError> {
    if client_specs.len() != scenario.num_clients() {
        return Err(CoreError::ClientSpecMismatch {
            clients: scenario.num_clients(),
            specs: client_specs.len(),
        });
    }
    for spec in client_specs.iter().chain(server_spec) {
        if spec.num_classes() != scenario.num_classes {
            return Err(CoreError::ClassCountMismatch {
                scenario: scenario.num_classes,
                spec: spec.num_classes(),
            });
        }
    }
    if homogeneous {
        let first = &client_specs[0];
        if client_specs.iter().any(|s| s != first) || server_spec.is_some_and(|s| s != first) {
            return Err(CoreError::InvalidConfig(
                "this algorithm requires identical model architectures".into(),
            ));
        }
    }
    Ok(())
}

/// What every phase of one round shares: which round it is, who is present
/// and who lies ([`RoundContext`]), where bytes are billed, where events go.
pub struct RoundIo<'a> {
    /// The round being executed.
    pub round: usize,
    /// The surviving cohort, the attack roster and the worker budget.
    pub ctx: &'a RoundContext,
    /// The communication ledger.
    pub ledger: &'a mut CommLedger,
    /// The telemetry stream.
    pub obs: &'a mut dyn RoundObserver,
}

impl<'a> RoundIo<'a> {
    /// Bundles `run_round`'s arguments.
    pub fn new(
        round: usize,
        ctx: &'a RoundContext,
        ledger: &'a mut CommLedger,
        obs: &'a mut dyn RoundObserver,
    ) -> Self {
        Self {
            round,
            ctx,
            ledger,
            obs,
        }
    }

    /// Bills one transfer of `bytes` to or from `client`.
    pub(crate) fn bill(&mut self, client: usize, direction: Direction, bytes: usize) {
        self.ledger
            .record_bytes(self.round, client, direction, bytes);
    }

    /// Reports that `client`'s `payload` was refused: it was billed but is
    /// not used.
    pub(crate) fn reject(&mut self, client: usize, payload: PayloadKind, reason: RejectReason) {
        self.obs.record(&TelemetryEvent::PayloadRejected {
            round: self.round,
            client,
            payload,
            reason,
        });
    }

    /// How many threads a phase of this round may use: the driver's worker
    /// budget, or every core.
    pub(crate) fn workers(&self) -> usize {
        self.ctx.worker_budget().unwrap_or_else(max_workers)
    }
}

/// The training phase: runs `work` on every client named in `roster` (the
/// round's survivors, in every algorithm) on the pool's
/// dispatch, and per client **in ascending client order** records
/// `ClientTrained` and hands the payload to `commit`; then the
/// `ClientTraining` phase timing. Unrostered clients are not touched.
///
/// `commit` is where an algorithm that streams (FedPKD) corrupts, bills,
/// admits and folds one upload while later clients are still training.
pub(crate) fn train_cohort<P: Send>(
    clients: &mut ClientPool,
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    roster: &[usize],
    work: impl Fn(&mut ClientState, &ClientData) -> (P, TrainStats) + Sync,
    mut commit: impl FnMut(&mut RoundIo<'_>, usize, P),
) {
    let started = Instant::now();
    for_each_pooled_client_streaming(
        clients,
        &scenario.clients,
        roster,
        io.workers(),
        |_, client, data| work(client, data),
        |client, (payload, stats)| {
            io.obs.record(&TelemetryEvent::ClientTrained {
                round: io.round,
                client,
                samples: scenario.clients[client].train.len(),
                mean_loss: stats.mean_loss,
            });
            commit(io, client, payload);
        },
    );
    emit_phase_timing(io.obs, io.round, Phase::ClientTraining, started);
}

/// [`train_cohort`] over the survivors, buffered: all uploads in client
/// order, or `None` when nobody survived — nothing ran and nothing was
/// emitted.
fn train_survivors<P: Send>(
    clients: &mut ClientPool,
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    work: impl Fn(&mut ClientState, &ClientData) -> (P, TrainStats) + Sync,
) -> Option<Vec<(usize, P)>> {
    let roster = io.ctx.cohort().survivors();
    if roster.is_empty() {
        return None;
    }
    let mut uploads = Vec::with_capacity(roster.len());
    train_cohort(
        clients,
        scenario,
        io,
        &roster,
        work,
        |_, client, payload| {
            uploads.push((client, payload));
        },
    );
    Some(uploads)
}

/// Passes each upload, in client order, through `inspect` — corruption,
/// billing, then the admission verdict — and splits off the refused ones
/// as `PayloadRejected` events.
fn admit<P>(
    uploads: Vec<(usize, P)>,
    io: &mut RoundIo<'_>,
    payload: PayloadKind,
    mut inspect: impl FnMut(&mut RoundIo<'_>, usize, &mut P) -> Result<(), RejectReason>,
) -> (Vec<usize>, Vec<P>) {
    let mut admitted = (Vec::new(), Vec::new());
    for (client, mut upload) in uploads {
        match inspect(io, client, &mut upload) {
            Ok(()) => {
                admitted.0.push(client);
                admitted.1.push(upload);
            }
            Err(reason) => io.reject(client, payload, reason),
        }
    }
    admitted
}

/// The parameter-upload client phase: every survivor loads `global` (when
/// the algorithm broadcasts one), runs `train`, and uploads its state
/// vector.
///
/// A Byzantine survivor corrupts its upload after honest training; the
/// downlink and the (possibly corrupted) uplink are billed per client in
/// that order; admission then checks the upload against the length the
/// sender's own model has. Returns the admitted `(clients, uploads)` in
/// ascending client order — both empty when every upload was refused — or
/// `None` when the cohort was empty and nothing happened at all.
pub fn local_update(
    clients: &mut ClientPool,
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    global: Option<&[f32]>,
    train: impl Fn(&mut ClientState, &ClientData) -> TrainStats + Sync,
) -> Option<(Vec<usize>, Vec<Vec<f32>>)> {
    let uploads = train_survivors(clients, scenario, io, |client, data| {
        if let Some(global) = global {
            load_state_vector(&mut client.model, global)
                .expect("homogeneous models share the layout");
        }
        let stats = train(client, data);
        (state_vector(&client.model), stats)
    })?;
    let policy = AdmissionPolicy;
    let inspect = |io: &mut RoundIo<'_>, client, params: &mut Vec<f32>| {
        let honest_len = params.len();
        if let Some(attack) = io.ctx.attack(client) {
            attack.corrupt_update(&mut io.ctx.attack_rng(io.round, client), params);
        }
        let bytes = Message::model_update_encoded_len;
        if let Some(global) = global {
            io.bill(client, Direction::Downlink, bytes(global.len()));
        }
        io.bill(client, Direction::Uplink, bytes(params.len()));
        policy.check_update(params, honest_len)
    };
    Some(admit(uploads, io, PayloadKind::ModelUpdate, inspect))
}

/// The knowledge-upload client phase: every survivor runs `upload` — local
/// training, then its logits (or probabilities) over the public set.
///
/// Corruption, uplink billing and admission (against the
/// `public × classes` shape) follow per client as in [`local_update`], and
/// the return value has the same meaning.
pub fn public_upload(
    clients: &mut ClientPool,
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    upload: impl Fn(&mut ClientState, &ClientData) -> (Tensor, TrainStats) + Sync,
) -> Option<(Vec<usize>, Vec<Tensor>)> {
    let uploads = train_survivors(clients, scenario, io, upload)?;
    let (rows, cols) = (scenario.public.len(), scenario.num_classes);
    let policy = AdmissionPolicy;
    let inspect = |io: &mut RoundIo<'_>, client, logits: &mut Tensor| {
        if let Some(attack) = io.ctx.attack(client) {
            // A wrong-shape attack changes the width.
            let (rows, cols) = (logits.rows(), logits.cols());
            let mut values = std::mem::take(logits).into_vec();
            let rng = &mut io.ctx.attack_rng(io.round, client);
            let cols = attack.corrupt_logits(rng, &mut values, rows, cols);
            *logits = Tensor::from_vec(values, &[rows, cols]).expect("corruption keeps the rows");
        }
        let bytes = Message::logits_encoded_len(rows, logits.as_slice().len());
        io.bill(client, Direction::Uplink, bytes);
        policy.check_logits(logits, rows, cols)
    };
    Some(admit(uploads, io, PayloadKind::Logits, inspect))
}

/// The downlink client phase: every survivor is billed one downlink
/// message per entry of `bills` (the encoded sizes, in billing order), then
/// runs `distill` — its public-set training toward whatever the server
/// sent; one `ClientDistilled` event per client in client order, then the
/// `ClientDistill` phase timing.
pub fn digest(
    clients: &mut ClientPool,
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    bills: &[usize],
    distill: impl Fn(&mut ClientState) -> TrainStats + Sync,
) {
    let started = Instant::now();
    let roster = io.ctx.cohort().survivors();
    for &client in &roster {
        for &bytes in bills {
            io.bill(client, Direction::Downlink, bytes);
        }
    }
    for_each_pooled_client_streaming(
        clients,
        &scenario.clients,
        &roster,
        io.workers(),
        |_, client, _| distill(client),
        |client, stats| {
            io.obs.record(&TelemetryEvent::ClientDistilled {
                round: io.round,
                client,
                mean_loss: stats.mean_loss,
            });
        },
    );
    emit_phase_timing(io.obs, io.round, Phase::ClientDistill, started);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cow::ClientSlot;
    use crate::eval;
    use crate::telemetry::EventLog;
    use crate::train::{train_distill, train_supervised};
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_netsim::{Attack, Cohort, DropCause};
    use fedpkd_tensor::models::DepthTier;
    use fedpkd_tensor::serialize::param_vector;

    fn tiny_scenario(seed: u64) -> FederatedScenario {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(3)
            .samples(360)
            .public_size(120)
            .global_test_size(150)
            .partition(Partition::Dirichlet { alpha: 0.5 })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn spec(tier: DepthTier) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier,
        }
    }

    fn pool(seed: u64) -> ClientPool {
        ClientPool::new(&vec![spec(DepthTier::T11); 3], 0.001, seed)
    }

    fn train(client: &mut ClientState, data: &ClientData) -> TrainStats {
        let (model, opt, rng) = (&mut client.model, &mut client.optimizer, &mut client.rng);
        train_supervised(model, &data.train, 1, 32, opt, rng)
    }

    /// A digest step: one distillation epoch toward `target` on `features`.
    fn toward<'a>(
        features: &'a Tensor,
        target: &'a Tensor,
    ) -> impl Fn(&mut ClientState) -> TrainStats + Sync + 'a {
        move |c: &mut ClientState| {
            let (model, opt, rng) = (&mut c.model, &mut c.optimizer, &mut c.rng);
            train_distill(model, features, target, 0.5, 1.0, 1, 32, opt, rng)
        }
    }

    /// One `train_cohort` over `roster`: the `(client, shard size)` pairs
    /// in the order they were committed.
    fn committed(
        clients: &mut ClientPool,
        scenario: &FederatedScenario,
        ctx: &RoundContext,
        roster: &[usize],
    ) -> Vec<(usize, usize)> {
        let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
        let io = &mut RoundIo::new(0, ctx, &mut ledger, &mut log);
        let mut out = Vec::new();
        let work =
            |client: &mut ClientState, data: &ClientData| (data.train.len(), train(client, data));
        train_cohort(clients, scenario, io, roster, work, |_, client, len| {
            out.push((client, len));
        });
        out
    }

    #[test]
    fn build_clients_gives_distinct_models() {
        let clients = pool(5);
        assert_eq!(clients.len(), 3);
        assert_ne!(
            param_vector(&clients.materialize(0).model),
            param_vector(&clients.materialize(1).model),
            "clients must have independent initializations"
        );
    }

    #[test]
    fn build_clients_matches_server_stream_convention() {
        // Stream 0 is the server's; client 0 must not collide with it.
        let mut server_rng = Rng::stream(42, 0);
        let server_model = spec(DepthTier::T11).build(&mut server_rng);
        let client = pool(42).materialize(0);
        assert_ne!(param_vector(&server_model), param_vector(&client.model));
    }

    #[test]
    fn validate_specs_checks_homogeneity() {
        let scenario = tiny_scenario(1);
        let hetero = vec![
            spec(DepthTier::T11),
            spec(DepthTier::T20),
            spec(DepthTier::T29),
        ];
        assert!(validate_specs(&scenario, &hetero, None, false).is_ok());
        assert!(validate_specs(&scenario, &hetero, None, true).is_err());
        let homo = vec![spec(DepthTier::T20); 3];
        assert!(validate_specs(&scenario, &homo, Some(&spec(DepthTier::T20)), true).is_ok());
        assert!(validate_specs(&scenario, &homo, Some(&spec(DepthTier::T56)), true).is_err());
    }

    #[test]
    fn validate_specs_checks_counts() {
        let scenario = tiny_scenario(2);
        assert!(validate_specs(&scenario, &vec![spec(DepthTier::T11); 2], None, false).is_err());
        let bad_classes = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 7,
            tier: DepthTier::T11,
        };
        assert!(validate_specs(&scenario, &vec![bad_classes; 3], None, false).is_err());
    }

    #[test]
    fn for_each_client_preserves_order() {
        let scenario = tiny_scenario(3);
        let ctx = RoundContext::benign(Cohort::full(3));
        let expected: Vec<(usize, usize)> = (0..3)
            .map(|i| (i, scenario.clients[i].train.len()))
            .collect();
        assert_eq!(
            committed(&mut pool(7), &scenario, &ctx, &[0, 1, 2]),
            expected
        );
    }

    #[test]
    fn for_each_active_client_skips_dropped_clients() {
        let scenario = tiny_scenario(5);
        let mut clients = pool(7);
        let cohort = Cohort::from_causes(vec![None, Some(DropCause::Dropout), None]);
        let ctx = RoundContext::benign(cohort);
        let out = committed(&mut clients, &scenario, &ctx, &ctx.cohort().survivors());
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, vec![0, 2]);
        for &(i, len) in &out {
            assert_eq!(len, scenario.clients[i].train.len());
            assert!(matches!(clients.slot(i), ClientSlot::Parked(_)));
        }
        // The dropped client was never materialized, let alone trained.
        assert!(matches!(clients.slot(1), ClientSlot::Fresh));
    }

    #[test]
    fn streaming_dispatch_commits_in_client_order_for_any_worker_count() {
        let scenario = tiny_scenario(8);
        let sizes = |roster: &[usize]| -> Vec<(usize, usize)> {
            let mut roster = roster.to_vec();
            roster.sort_unstable();
            roster
                .iter()
                .map(|&i| (i, scenario.clients[i].train.len()))
                .collect()
        };
        for workers in [1, 2, 8] {
            let ctx = RoundContext::benign(Cohort::full(3)).with_worker_budget(Some(workers));
            let mut clients = pool(4);
            assert_eq!(
                committed(&mut clients, &scenario, &ctx, &[0, 1, 2]),
                sizes(&[0, 1, 2])
            );
            // A partial roster runs exactly its members, in client order
            // however it was listed.
            assert_eq!(
                committed(&mut clients, &scenario, &ctx, &[2, 0]),
                sizes(&[2, 0])
            );
        }
    }

    /// `DriverBuilder::workers(1)` must bound every algorithm's client
    /// phases: at a worker budget of 1 each phase function runs all of its
    /// client closures on the caller's thread, and starts no other.
    #[test]
    fn phase_functions_run_on_one_thread_at_worker_budget_1() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        let scenario = tiny_scenario(13);
        let ctx = RoundContext::benign(Cohort::full(3)).with_worker_budget(Some(1));
        let mut clients = pool(3);
        let threads = Mutex::new(HashSet::new());
        let spy = || {
            let mut threads = threads.lock().unwrap();
            threads.insert(std::thread::current().id());
        };
        // The one thread the closures of the last phase call ran on.
        let caller = std::thread::current().id();
        let seen = || {
            let threads = std::mem::take(&mut *threads.lock().unwrap());
            assert!(threads.iter().all(|&id| id == caller), "{threads:?}");
            threads.len()
        };
        let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
        let io = &mut RoundIo::new(0, &ctx, &mut ledger, &mut log);

        local_update(&mut clients, &scenario, io, None, |client, data| {
            spy();
            train(client, data)
        })
        .unwrap();
        assert_eq!(seen(), 1, "local_update");
        public_upload(&mut clients, &scenario, io, |client, data| {
            spy();
            let stats = train(client, data);
            (eval::logits_on(&mut client.model, &scenario.public), stats)
        })
        .unwrap();
        assert_eq!(seen(), 1, "public_upload");
        digest(&mut clients, &scenario, io, &[], |_| {
            spy();
            TrainStats::default()
        });
        assert_eq!(seen(), 1, "digest");
        assert_eq!(log.events().len(), 3 * (3 + 1), "every client ran");
    }

    /// The skeleton every round is built from, pinned once: on a 3-client
    /// round where client 1 dropped and client 0 sends a wrong-shape
    /// payload, each phase function emits exactly these events and bills
    /// exactly these transfers, in this order.
    #[test]
    fn phase_functions_emit_and_bill_in_a_fixed_order() {
        use fedpkd_netsim::Direction::*;

        let scenario = tiny_scenario(12);
        let (public_len, classes) = (scenario.public.len(), scenario.num_classes);
        let cohort = || Cohort::from_causes(vec![None, Some(DropCause::Crash), None]);
        let ctx = RoundContext::with_attacks(
            cohort(),
            vec![Some(Attack::WrongShapePayload), None, None],
            77,
        );
        // What one call left behind: (event kind, client) and (client,
        // direction, bytes), each in recording order.
        let trace = |log: &EventLog, ledger: &CommLedger| {
            let events: Vec<(&str, Option<usize>)> = log
                .events()
                .iter()
                .map(|e| match e {
                    TelemetryEvent::ClientTrained { client, .. }
                    | TelemetryEvent::ClientDistilled { client, .. }
                    | TelemetryEvent::PayloadRejected { client, .. } => (e.kind(), Some(*client)),
                    other => (other.kind(), None),
                })
                .collect();
            let bills: Vec<_> = ledger
                .transfers()
                .map(|t| (t.client, t.direction, t.bytes))
                .collect();
            (events, bills)
        };
        let trained_then_rejected = vec![
            ("client_trained", Some(0)),
            ("client_trained", Some(2)),
            ("phase_timing", None),
            ("payload_rejected", Some(0)),
        ];

        let mut clients = pool(7);
        let global = state_vector(&clients.materialize(1).model);
        let update = Message::model_update_encoded_len;
        for broadcast in [Some(global.as_slice()), None] {
            let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
            let io = &mut RoundIo::new(4, &ctx, &mut ledger, &mut log);
            let (senders, updates) =
                local_update(&mut clients, &scenario, io, broadcast, train).unwrap();
            assert_eq!(senders, [2], "the wrong-shape upload is billed, not used");
            assert_eq!(updates[0].len(), global.len());
            let (events, bills) = trace(&log, &ledger);
            assert_eq!(events, trained_then_rejected);
            let mut expected = vec![
                (0, Downlink, update(global.len())),
                (0, Uplink, update(global.len() + 1)),
                (2, Downlink, update(global.len())),
                (2, Uplink, update(global.len())),
            ];
            expected.retain(|&(_, direction, _)| broadcast.is_some() || direction == Uplink);
            assert_eq!(bills, expected);
        }

        let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
        let io = &mut RoundIo::new(4, &ctx, &mut ledger, &mut log);
        let (senders, logits) = public_upload(&mut clients, &scenario, io, |client, data| {
            let stats = train(client, data);
            (eval::logits_on(&mut client.model, &scenario.public), stats)
        })
        .unwrap();
        assert_eq!(senders, [2]);
        assert_eq!(logits[0].shape(), [public_len, classes]);
        let (events, bills) = trace(&log, &ledger);
        assert_eq!(events, trained_then_rejected);
        let sized = |cols| Message::logits_encoded_len(public_len, public_len * cols);
        assert_eq!(
            bills,
            [(0, Uplink, sized(classes + 1)), (2, Uplink, sized(classes))]
        );

        let distilled = [
            ("client_distilled", Some(0)),
            ("client_distilled", Some(2)),
            ("phase_timing", None),
        ];
        let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
        let io = &mut RoundIo::new(4, &ctx, &mut ledger, &mut log);
        let target = fedpkd_tensor::ops::softmax(&logits[0], 1.0);
        let features = scenario.public.features();
        digest(
            &mut clients,
            &scenario,
            io,
            &[sized(classes)],
            toward(features, &target),
        );
        let (events, bills) = trace(&log, &ledger);
        assert_eq!(events, distilled);
        assert_eq!(
            bills,
            [(0, Downlink, sized(classes)), (2, Downlink, sized(classes))]
        );
        assert!(log.events().iter().all(|e| e.round() == 4));

        // A roster wider than the survivors (client 1 trains although it
        // dropped) still commits each client after its own
        // `ClientTrained`; then the FedPKD downlink, a row subset billed as
        // two messages per survivor.
        let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
        let io = &mut RoundIo::new(4, &ctx, &mut ledger, &mut log);
        let work = |client: &mut ClientState, data: &ClientData| ((), train(client, data));
        train_cohort(
            &mut clients,
            &scenario,
            io,
            &[0, 1, 2],
            work,
            |io, c, ()| {
                if io.ctx.cohort().is_active(c) {
                    io.bill(c, Uplink, 10 + c);
                }
            },
        );
        let (events, bills) = trace(&log, &ledger);
        let trained = |c| ("client_trained", Some(c));
        assert_eq!(
            events,
            [trained(0), trained(1), trained(2), ("phase_timing", None)]
        );
        assert_eq!(bills, [(0, Uplink, 10), (2, Uplink, 12)]);
        let rows: Vec<usize> = (0..40).collect();
        let (features, target) = (
            features.select_rows(&rows).unwrap(),
            target.select_rows(&rows).unwrap(),
        );
        let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
        let io = &mut RoundIo::new(4, &ctx, &mut ledger, &mut log);
        digest(
            &mut clients,
            &scenario,
            io,
            &[7, 9],
            toward(&features, &target),
        );
        let (events, bills) = trace(&log, &ledger);
        assert_eq!(events, distilled);
        assert_eq!(
            bills,
            [
                (0, Downlink, 7),
                (0, Downlink, 9),
                (2, Downlink, 7),
                (2, Downlink, 9)
            ]
        );

        // Nobody present: nothing runs, nothing is emitted or billed.
        let nobody = RoundContext::benign(Cohort::from_causes(vec![Some(DropCause::Crash); 3]));
        let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
        let io = &mut RoundIo::new(5, &nobody, &mut ledger, &mut log);
        assert!(local_update(&mut clients, &scenario, io, None, train).is_none());
        assert!(log.events().is_empty() && ledger.is_empty());
    }
}
