//! Shared client plumbing: construction, spec validation, parallel
//! dispatch, evaluation, and the client-side phases of a round.
//!
//! FedPKD and every baseline build their client fleets the same way — one
//! model per spec, each on its own deterministic RNG stream — so the logic
//! lives here once. The RNG stream convention is load-bearing for
//! reproducibility: client `i` draws from `Rng::stream(seed, 1 + i)` and the
//! server (when present) from `Rng::stream(seed, 0)`.
//!
//! The paper's round (§IV) is client training → uplink → server step →
//! downlink → client distillation, and the seven baselines are subsets of
//! it. The three client-side pieces are plain functions here —
//! [`local_update`] (parameters up), [`public_upload`] (public-set logits
//! up) and [`digest`] (consensus down) — and each owns, once, what every
//! algorithm must do the same way: the empty-cohort guard, the
//! `ClientTrained`/`ClientDistilled` events and phase timing, Byzantine
//! corruption on the `(seed, round, client)` stream, size-only ledger
//! billing, and admission. A baseline's `run_round` is these calls plus
//! its own aggregation rule and server step.

use std::time::Instant;

use crate::admission::{AdmissionPolicy, PayloadKind, RejectReason};
use crate::eval;
use crate::fedpkd::CoreError;
use crate::telemetry::{emit_phase_timing, Phase, RoundObserver, TelemetryEvent};
use crate::train::{train_distill, TrainStats};
use fedpkd_data::{ClientData, FederatedScenario};
use fedpkd_netsim::{Attack, Cohort, CommLedger, Direction, Message, RoundContext};
use fedpkd_rng::Rng;
use fedpkd_tensor::models::{ClassifierModel, ModelSpec};
use fedpkd_tensor::nn::Layer;
use fedpkd_tensor::optim::Adam;
use fedpkd_tensor::serialize::{load_state_vector, state_vector};
use fedpkd_tensor::Tensor;

/// One simulated client: model, optimizer, private RNG stream.
pub struct ClientState {
    /// The client's local model.
    pub model: ClassifierModel,
    /// The client's optimizer state.
    pub optimizer: Adam,
    /// The client's private RNG stream (batch shuffling, dropout).
    pub rng: Rng,
}

/// Builds one client per spec, each on its own deterministic RNG stream
/// (`Rng::stream(seed, 1 + i)`; stream 0 is reserved for the server).
pub fn build_clients(specs: &[ModelSpec], learning_rate: f32, seed: u64) -> Vec<ClientState> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut rng = Rng::stream(seed, 1 + i as u64);
            ClientState {
                model: spec.build(&mut rng),
                optimizer: Adam::new(learning_rate),
                rng,
            }
        })
        .collect()
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

// The chunked dispatch idiom itself now lives in `fedpkd_tensor::parallel`
// (it is shared with the row-parallel matmul kernels); re-export it so
// existing users of this module keep working. Clients never share mutable
// state — each mutates only its own model, optimizer, and RNG stream — so
// dispatching them this way is bit-identical to a sequential loop.
pub use fedpkd_tensor::parallel::{
    dispatch_chunked, dispatch_stealing, dispatch_stealing_scheduled, StealStats,
};

/// Runs `f` for every `(client, client_data)` pair in parallel — capped at
/// the machine's available parallelism so large fleets don't oversubscribe
/// — and collects the results in client order.
pub fn for_each_client<T: Send>(
    clients: &mut [ClientState],
    data: &[ClientData],
    f: impl Fn(&mut ClientState, &ClientData) -> T + Sync,
) -> Vec<T> {
    let items: Vec<_> = clients.iter_mut().zip(data).collect();
    dispatch_chunked(items, |(client, data)| f(client, data))
}

/// Runs `f` for every *surviving* `(client, client_data)` pair — per the
/// round's [`Cohort`] — in parallel (capped at the machine's available
/// parallelism), returning `(client_index, result)` pairs in ascending
/// client order. Dropped clients are not touched: their models, optimizers,
/// and RNG streams stay exactly as the previous round left them, so fault
/// injection cannot perturb their state.
pub fn for_each_active_client<T: Send>(
    clients: &mut [ClientState],
    data: &[ClientData],
    cohort: &Cohort,
    f: impl Fn(usize, &mut ClientState, &ClientData) -> T + Sync,
) -> Vec<(usize, T)> {
    let items: Vec<_> = clients
        .iter_mut()
        .zip(data)
        .enumerate()
        .filter(|&(i, _)| cohort.is_active(i))
        .map(|(i, (client, data))| (i, client, data))
        .collect();
    dispatch_chunked(items, |(i, client, data)| (i, f(i, client, data)))
}

/// What every phase of one round shares: which round it is, who is present
/// and who lies ([`RoundContext`]), where bytes are billed, where events go.
pub struct RoundIo<'a> {
    /// The round being executed.
    pub round: usize,
    /// The surviving cohort and the attack roster.
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
    fn bill(&mut self, client: usize, direction: Direction, bytes: usize) {
        self.ledger
            .record_bytes(self.round, client, direction, bytes);
    }
}

/// Passes each upload, in client order, through `inspect` — corruption,
/// billing, then the admission verdict — and splits off the refused ones
/// as `PayloadRejected` events: they were billed but are not used.
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
            Err(reason) => io.obs.record(&TelemetryEvent::PayloadRejected {
                round: io.round,
                client,
                payload,
                reason,
            }),
        }
    }
    admitted
}

/// Runs `work` on every surviving client and reports it: one
/// `ClientTrained` event per client in client order, then the
/// `ClientTraining` phase timing. `None` when nobody survived — nothing ran
/// and nothing was emitted.
fn train_cohort<P: Send>(
    clients: &mut [ClientState],
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    work: impl Fn(&mut ClientState, &ClientData) -> (P, TrainStats) + Sync,
) -> Option<Vec<(usize, P)>> {
    let cohort = io.ctx.cohort();
    if cohort.num_active() == 0 {
        return None;
    }
    let started = Instant::now();
    let trained = for_each_active_client(clients, &scenario.clients, cohort, |_, client, data| {
        work(client, data)
    });
    let mut uploads = Vec::with_capacity(trained.len());
    for (client, (payload, stats)) in trained {
        io.obs.record(&TelemetryEvent::ClientTrained {
            round: io.round,
            client,
            samples: scenario.clients[client].train.len(),
            mean_loss: stats.mean_loss,
        });
        uploads.push((client, payload));
    }
    emit_phase_timing(io.obs, io.round, Phase::ClientTraining, started);
    Some(uploads)
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
    clients: &mut [ClientState],
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    global: Option<&[f32]>,
    train: impl Fn(&mut ClientState, &ClientData) -> TrainStats + Sync,
) -> Option<(Vec<usize>, Vec<Vec<f32>>)> {
    let uploads = train_cohort(clients, scenario, io, |client, data| {
        if let Some(global) = global {
            load_state_vector(&mut client.model, global)
                .expect("homogeneous models share the layout");
        }
        let stats = train(client, data);
        (state_vector(&client.model), stats)
    })?;
    let policy = AdmissionPolicy::default();
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
    clients: &mut [ClientState],
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    upload: impl Fn(&mut ClientState, &ClientData) -> (Tensor, TrainStats) + Sync,
) -> Option<(Vec<usize>, Vec<Tensor>)> {
    let uploads = train_cohort(clients, scenario, io, upload)?;
    let (rows, cols) = (scenario.public.len(), scenario.num_classes);
    let policy = AdmissionPolicy::default();
    let inspect = |io: &mut RoundIo<'_>, client, logits: &mut Tensor| {
        if let Some(attack) = io.ctx.attack(client) {
            corrupt_logits(attack, &mut io.ctx.attack_rng(io.round, client), logits);
        }
        let bytes = Message::logits_encoded_len(rows, logits.as_slice().len());
        io.bill(client, Direction::Uplink, bytes);
        policy.check_logits(logits, rows, cols)
    };
    Some(admit(uploads, io, PayloadKind::Logits, inspect))
}

/// Applies `attack` to a logits upload in place; a wrong-shape attack
/// changes the tensor's width.
pub(crate) fn corrupt_logits(attack: Attack, rng: &mut Rng, logits: &mut Tensor) {
    let (rows, cols) = (logits.rows(), logits.cols());
    let mut values = std::mem::replace(logits, Tensor::zeros(&[0])).into_vec();
    let cols = attack.corrupt_logits(rng, &mut values, rows, cols);
    *logits = Tensor::from_vec(values, &[rows, cols]).expect("corruption preserves row count");
}

/// The downlink client phase: every survivor is billed one logits message
/// the size of `target`, then distills toward it on the public set
/// (`train_distill`); one `ClientDistilled` event per client in client
/// order, then the `ClientDistill` phase timing.
#[allow(clippy::too_many_arguments)]
pub fn digest(
    clients: &mut [ClientState],
    scenario: &FederatedScenario,
    io: &mut RoundIo<'_>,
    target: &Tensor,
    gamma: f32,
    temperature: f32,
    epochs: usize,
    batch_size: usize,
) {
    let started = Instant::now();
    let cohort = io.ctx.cohort();
    let public = &scenario.public;
    let bytes = Message::logits_encoded_len(public.len(), target.as_slice().len());
    for client in cohort.survivors() {
        io.bill(client, Direction::Downlink, bytes);
    }
    let distilled = for_each_active_client(clients, &scenario.clients, cohort, |_, client, _| {
        train_distill(
            &mut client.model,
            public.features(),
            target,
            gamma,
            temperature,
            epochs,
            batch_size,
            &mut client.optimizer,
            &mut client.rng,
        )
    });
    for (client, stats) in distilled {
        io.obs.record(&TelemetryEvent::ClientDistilled {
            round: io.round,
            client,
            mean_loss: stats.mean_loss,
        });
    }
    emit_phase_timing(io.obs, io.round, Phase::ClientDistill, started);
}

/// Streams `task` over the rostered `(client, client_data)` pairs on a
/// bounded work-stealing pool of `workers` threads, delivering each result
/// to `commit` **in ascending client order** as soon as its turn is
/// reached — the caller folds uploads into streaming accumulators instead
/// of buffering the whole cohort.
///
/// `roster` names the client indices to run (out-of-range entries are
/// ignored); unrostered clients are not touched. The ordered commit point
/// is the determinism mechanism: workers may finish in any interleaving,
/// but server-side folds always observe client `i` before client `j > i`,
/// so results are bit-identical to a sequential loop regardless of
/// `workers`.
pub fn for_each_active_client_streaming<T: Send>(
    clients: &mut [ClientState],
    data: &[ClientData],
    roster: &[usize],
    workers: usize,
    task: impl Fn(usize, &mut ClientState, &ClientData) -> T + Sync,
    mut commit: impl FnMut(usize, T),
) -> StealStats {
    let mut member = vec![false; clients.len()];
    for &client in roster {
        if let Some(slot) = member.get_mut(client) {
            *slot = true;
        }
    }
    let items: Vec<_> = clients
        .iter_mut()
        .zip(data)
        .enumerate()
        .filter(|&(i, _)| member[i])
        .map(|(i, (client, data))| (i, client, data))
        .collect();
    // Execution plan: group same-architecture clients onto the same worker
    // queue so a worker drains a run of identically-shaped models back to
    // back — its layer GEMMs reuse one tile geometry and its pooled scratch
    // arenas rotate through one size class. Only the queue *seeding* order
    // changes; the ordered commit point above still applies, so the plan is
    // bit-identical to the sequential schedule (DESIGN.md §5j).
    let keys: Vec<u64> = items
        .iter()
        .map(|(_, client, _)| client.model.param_count() as u64)
        .collect();
    let schedule = fedpkd_tensor::plan::schedule(&keys);
    dispatch_stealing_scheduled(
        items,
        &schedule,
        workers,
        |_, (i, client, data)| (i, task(i, client, data)),
        |_, (i, out)| commit(i, out),
    )
}

/// Per-client local-test accuracies.
pub fn client_accuracies(clients: &mut [ClientState], scenario: &FederatedScenario) -> Vec<f64> {
    clients
        .iter_mut()
        .zip(&scenario.clients)
        .map(|(c, d)| eval::accuracy(&mut c.model, &d.test))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
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

    #[test]
    fn build_clients_gives_distinct_models() {
        let clients = build_clients(&[spec(DepthTier::T11), spec(DepthTier::T11)], 0.001, 5);
        assert_eq!(clients.len(), 2);
        assert_ne!(
            param_vector(&clients[0].model),
            param_vector(&clients[1].model),
            "clients must have independent initializations"
        );
    }

    #[test]
    fn build_clients_matches_server_stream_convention() {
        // Stream 0 is the server's; client 0 must not collide with it.
        let mut server_rng = Rng::stream(42, 0);
        let server_model = spec(DepthTier::T11).build(&mut server_rng);
        let clients = build_clients(&[spec(DepthTier::T11)], 0.001, 42);
        assert_ne!(param_vector(&server_model), param_vector(&clients[0].model));
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
    fn dispatch_chunked_preserves_order_past_the_thread_cap() {
        // 100 items is far more than any container's core count, so this
        // exercises multi-item chunks; the output must still be the
        // sequential map.
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * 2).collect();
        assert_eq!(dispatch_chunked(items, |i| i * 2), expected);
        assert!(dispatch_chunked(Vec::new(), |i: usize| i).is_empty());
    }

    #[test]
    fn for_each_client_preserves_order() {
        let scenario = tiny_scenario(3);
        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 7);
        let sizes = for_each_client(&mut clients, &scenario.clients, |_, data| data.train.len());
        let expected: Vec<usize> = scenario.clients.iter().map(|c| c.train.len()).collect();
        assert_eq!(sizes, expected);
    }

    #[test]
    fn for_each_active_client_skips_dropped_clients() {
        use fedpkd_netsim::DropCause;

        let scenario = tiny_scenario(5);
        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 7);
        let cohort = Cohort::from_causes(vec![None, Some(DropCause::Dropout), None]);
        let out = for_each_active_client(&mut clients, &scenario.clients, &cohort, |i, _, data| {
            (i, data.train.len())
        });
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, vec![0, 2]);
        for &(i, (fi, len)) in &out {
            assert_eq!(i, fi);
            assert_eq!(len, scenario.clients[i].train.len());
        }
    }

    #[test]
    fn streaming_dispatch_commits_in_client_order_for_any_worker_count() {
        let scenario = tiny_scenario(8);
        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 4);
        let buffered = for_each_active_client(
            &mut clients,
            &scenario.clients,
            &Cohort::full(3),
            |i, _, data| (i, data.train.len()),
        );
        for workers in [1, 2, 8] {
            let mut streamed = Vec::new();
            for_each_active_client_streaming(
                &mut clients,
                &scenario.clients,
                &[0, 1, 2],
                workers,
                |i, _, data| (i, data.train.len()),
                |i, out| streamed.push((i, out)),
            );
            assert_eq!(streamed, buffered);
        }
        // A partial roster (late clients, samples) runs exactly its members.
        let mut roster_hits = Vec::new();
        for_each_active_client_streaming(
            &mut clients,
            &scenario.clients,
            &[2, 0],
            2,
            |i, _, _| i,
            |i, out| {
                assert_eq!(i, out);
                roster_hits.push(i);
            },
        );
        assert_eq!(roster_hits, vec![0, 2]);
    }

    #[test]
    fn for_each_active_client_full_cohort_matches_for_each_client() {
        let scenario = tiny_scenario(6);
        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 9);
        let all = for_each_client(&mut clients, &scenario.clients, |_, data| data.train.len());
        let active = for_each_active_client(
            &mut clients,
            &scenario.clients,
            &Cohort::full(3),
            |_, _, data| data.train.len(),
        );
        let active_values: Vec<usize> = active.into_iter().map(|(_, v)| v).collect();
        assert_eq!(all, active_values);
    }

    /// The skeleton every baseline round is built from, pinned once: on a
    /// 3-client round where client 1 dropped and client 0 sends a
    /// wrong-shape payload, each phase function emits exactly these events
    /// and bills exactly these transfers, in this order.
    #[test]
    fn phase_functions_emit_and_bill_in_a_fixed_order() {
        use crate::telemetry::EventLog;
        use crate::train::train_supervised;
        use fedpkd_netsim::{Direction::*, DropCause};

        let scenario = tiny_scenario(12);
        let (public_len, classes) = (scenario.public.len(), scenario.num_classes);
        let cohort = || Cohort::from_causes(vec![None, Some(DropCause::Crash), None]);
        let ctx = RoundContext::with_attacks(
            cohort(),
            vec![Some(Attack::WrongShapePayload), None, None],
            77,
        );
        let train = |client: &mut ClientState, data: &ClientData| {
            let (model, opt, rng) = (&mut client.model, &mut client.optimizer, &mut client.rng);
            train_supervised(model, &data.train, 1, 32, opt, rng)
        };
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

        let mut clients = build_clients(&vec![spec(DepthTier::T11); 3], 0.001, 7);
        let global = state_vector(&clients[1].model);
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

        let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
        let io = &mut RoundIo::new(4, &ctx, &mut ledger, &mut log);
        let target = fedpkd_tensor::ops::softmax(&logits[0], 1.0);
        digest(&mut clients, &scenario, io, &target, 0.5, 1.0, 1, 32);
        let (events, bills) = trace(&log, &ledger);
        assert_eq!(
            events,
            [
                ("client_distilled", Some(0)),
                ("client_distilled", Some(2)),
                ("phase_timing", None),
            ]
        );
        assert_eq!(
            bills,
            [(0, Downlink, sized(classes)), (2, Downlink, sized(classes))]
        );
        assert!(log.events().iter().all(|e| e.round() == 4));

        // Nobody present: nothing runs, nothing is emitted or billed.
        let nobody = RoundContext::benign(Cohort::from_causes(vec![Some(DropCause::Crash); 3]));
        let (mut log, mut ledger) = (EventLog::new(), CommLedger::new());
        let io = &mut RoundIo::new(5, &nobody, &mut ledger, &mut log);
        assert!(local_update(&mut clients, &scenario, io, None, train).is_none());
        assert!(log.events().is_empty() && ledger.is_empty());
    }
}
