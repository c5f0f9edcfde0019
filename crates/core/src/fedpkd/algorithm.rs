//! The FedPKD federation — Algorithm 2 of the paper.

use std::time::Instant;

use crate::admission::{AdmissionPolicy, PayloadKind, QuarantineTracker, RejectReason};
use crate::clients::{digest, train_cohort, validate_specs, RoundIo};
use crate::cow::{pooled_client_accuracies, ClientPool};
use crate::eval;
use crate::fedpkd::config::{CoreError, DistillSource, FedPkdConfig, PROTOTYPE_STALENESS};
use crate::fedpkd::distill::train_server_with_workers;
use crate::fedpkd::filter::{filter_public, filter_public_opts};
use crate::fedpkd::generator::{self, Generator};
use crate::fedpkd::logits::{
    aggregate_logits_trimmed_from_probs, aggregation_stats_from_probs, effective_trim,
    pseudo_labels,
};
use crate::fedpkd::prototypes::{
    aggregate_prototypes, aggregate_prototypes_robust, from_wire_entries, global_to_wire_entries,
    Prototype,
};
use crate::fedpkd::session;
use crate::runtime::{DriverState, Federation};
use crate::snapshot::{self, SnapshotError, StateSink, StateSource};
use crate::streaming::LogitAccumulator;
use crate::telemetry::{emit_phase_timing, Phase, RoundObserver, TelemetryEvent};
use fedpkd_data::{Dataset, FederatedScenario};
use fedpkd_netsim::{Attack, CommLedger, Direction, Message, RoundContext, Wire};
use fedpkd_rng::Rng;
use fedpkd_tensor::models::ClassifierModel;
use fedpkd_tensor::models::ModelSpec;
use fedpkd_tensor::ops::softmax;
use fedpkd_tensor::optim::Adam;
use fedpkd_tensor::serialize::{load_state_vector, state_vector};
use fedpkd_tensor::Tensor;

/// The complete FedPKD algorithm over a federated scenario.
///
/// Owns the client models (possibly heterogeneous architectures), the larger
/// server model, and the cross-round state (global prototypes). Every
/// communication round executes the four phases of Algorithm 2 and records
/// byte-accurate traffic in the provided ledger.
///
/// # Partial participation
///
/// Under fault injection the round's [`Cohort`](fedpkd_netsim::Cohort)
/// restricts every phase to the surviving clients: only they train, upload
/// knowledge, enter the Eq. 6–8 aggregations, and receive the downlink. For the size-weighted
/// prototype aggregation (Eq. 8) the server additionally reuses a dropped
/// client's most recent uploaded prototypes, as long as the absence is
/// within [`PROTOTYPE_STALENESS`] rounds — prototypes are slow-moving class
/// statistics, so brief reuse is sound (cf. FedProto's robustness to
/// missing clients), whereas logits are never reused. A zero-survivor
/// round is a no-op: nothing travels and no model changes.
///
/// See the crate-level example for usage.
///
/// # Config/state split
///
/// The struct is explicitly two halves: `scenario` + `config` are static
/// configuration (rebuilt from code and seeds), while the private
/// `FedPkdState` half is every mutable word the algorithm owns.
/// [`Federation::snapshot_to`] and
/// [`Federation::restore_from`] serialize exactly the state half, which is
/// what makes checkpoint/resume bit-identical.
pub struct FedPkd {
    scenario: FederatedScenario,
    config: FedPkdConfig,
    state: FedPkdState,
}

/// RNG stream id for the data-free generator (client streams are `1 + i`
/// and the server is `0`, so a high constant cannot collide).
const GENERATOR_STREAM: u64 = 0x6765_6e31;

/// The data-free distillation state: the conditional generator, its
/// optimizer, and the dedicated latent stream. Lives only when
/// [`FedPkdConfig::distill_source`] is [`DistillSource::Generated`].
struct GeneratorState {
    generator: Generator,
    optimizer: Adam,
    rng: Rng,
    /// The server's architecture, from which a refine running beside the
    /// server distillation builds its copy of the critic. Configuration,
    /// not state: never snapshotted.
    critic_spec: ModelSpec,
}

/// The owned, snapshotable half of [`FedPkd`]: everything that changes
/// from round to round.
struct FedPkdState {
    /// The client fleet in copy-on-write form: untouched clients cost
    /// nothing, trained clients park as flat deltas, and full models are
    /// only live while a client occupies a worker.
    clients: ClientPool,
    server_model: ClassifierModel,
    server_optimizer: Adam,
    server_rng: Rng,
    global_prototypes: Vec<Option<Tensor>>,
    /// Per client: the round of its last prototype upload and the payload,
    /// kept for stale reuse when the client misses rounds. Only *admitted*
    /// uploads enter the cache, so a rejected client's last good prototypes
    /// keep serving within the staleness window.
    cached_prototypes: Vec<Option<(usize, Vec<Option<Prototype>>)>>,
    /// Data-free distillation state ([`DistillSource::Generated`]).
    generator: Option<GeneratorState>,
    quarantine: QuarantineTracker,
    driver: DriverState,
}

impl FedPkd {
    /// Assembles the federation: one model per client built from
    /// `client_specs`, a server model from `server_spec`, all seeded
    /// deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the config is invalid, the spec count does
    /// not match the client count, or any spec's class count differs from
    /// the scenario's.
    pub fn new(
        scenario: FederatedScenario,
        client_specs: Vec<ModelSpec>,
        server_spec: ModelSpec,
        config: FedPkdConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        validate_specs(&scenario, &client_specs, Some(&server_spec), false)?;
        let clients = ClientPool::new(&client_specs, config.learning_rate, seed);
        let mut server_rng = Rng::stream(seed, 0);
        let server_model = server_spec.build(&mut server_rng);
        let num_classes = scenario.num_classes;
        let num_clients = scenario.num_clients();
        let quarantine = QuarantineTracker::new(num_clients);
        let generator = (config.distill_source == DistillSource::Generated).then(|| {
            let mut rng = Rng::stream(seed, GENERATOR_STREAM);
            let generator = Generator::new(
                config.generator_latent_dim,
                num_classes,
                scenario.public.sample_dim(),
                &mut rng,
            );
            GeneratorState {
                generator,
                optimizer: Adam::new(config.generator_lr),
                rng,
                critic_spec: server_spec.clone(),
            }
        });
        Ok(Self {
            scenario,
            state: FedPkdState {
                clients,
                server_model,
                server_optimizer: Adam::new(config.learning_rate),
                server_rng,
                global_prototypes: vec![None; num_classes],
                cached_prototypes: vec![None; num_clients],
                generator,
                quarantine,
                driver: DriverState::new(),
            },
            config,
        })
    }

    /// The current global prototypes (one per class, `None` until a client
    /// holding that class has reported).
    pub fn global_prototypes(&self) -> &[Option<Tensor>] {
        &self.state.global_prototypes
    }

    /// Immutable access to the scenario.
    pub fn scenario(&self) -> &FederatedScenario {
        &self.scenario
    }

    /// The cross-round quarantine state (see
    /// [`AdmissionPolicy`](crate::admission::AdmissionPolicy)).
    pub fn quarantine(&self) -> &QuarantineTracker {
        &self.state.quarantine
    }

    /// L2 drift between two generations of global prototypes, for
    /// telemetry: mean and max over classes present in both.
    fn prototype_drift(old: &[Option<Tensor>], new: &[Option<Tensor>]) -> (f64, f64) {
        let drifts: Vec<f64> = old
            .iter()
            .zip(new)
            .filter_map(|(o, n)| {
                let (o, n) = (o.as_ref()?.as_slice(), n.as_ref()?.as_slice());
                let squared: f32 = o.iter().zip(n).map(|(a, b)| (a - b) * (a - b)).sum();
                Some(f64::from(squared).sqrt())
            })
            .collect();
        let sum = drifts.iter().fold(0.0, |sum, &d| sum + d);
        let max = drifts.iter().fold(0.0, |max: f64, &d| max.max(d));
        (sum / drifts.len().max(1) as f64, max)
    }
}

/// Applies a Byzantine client's [`Attack`] to its uplink in place: the
/// logits (whose width may change under a wrong-shape attack), then every
/// prototype vector in class order. Draws come from the context's
/// dedicated `(seed, round, client)` stream, so corruption replays
/// bit-identically.
fn corrupt(attack: Attack, rng: &mut Rng, uplink: &mut [Message]) {
    for message in uplink {
        if let Message::Logits {
            sample_ids,
            num_classes,
            values,
        } = message
        {
            let cols = attack.corrupt_logits(rng, values, sample_ids.len(), *num_classes as usize);
            *num_classes = cols as u32;
        } else if let Message::Prototypes { entries } = message {
            for entry in entries {
                attack.corrupt_prototype(rng, &mut entry.vector);
            }
        }
    }
}

/// What every phase of one round reads but never writes: the
/// configuration, the scenario and this round's transfer set (the public
/// set, or the batch the generator synthesized).
struct RoundEnv<'a> {
    config: &'a FedPkdConfig,
    scenario: &'a FederatedScenario,
    transfer: &'a Dataset,
}

/// Phase 1's output: the admitted uploads' softmax probabilities —
/// folded into `acc` (unless the trimmed estimator replaces the fold), and
/// kept whole in `kept` when a cross-client estimator or the diagnostics
/// need the full set.
struct Uplink {
    acc: LogitAccumulator,
    kept: Vec<Tensor>,
    admitted: usize,
}

impl FedPkdState {
    /// Phase 1: client private training + dual knowledge uplink
    /// ([`session::upload`] on [`train_cohort`]) for the cohort's
    /// survivors, from the round-start messages `start`. Returns the
    /// admitted uploads and the aggregated data-free input moments.
    ///
    /// Survivors train concurrently; every upload is *committed* in
    /// ascending client order — Byzantine corruption, ledger accounting,
    /// decoding, admission, and the streaming Eq. 6–7 fold all happen per
    /// client at the commit point. No O(cohort) payload buffer exists unless
    /// the trimmed estimator (cross-client by definition) or the
    /// aggregation diagnostics require one.
    fn client_phase(
        &mut self,
        env: &RoundEnv<'_>,
        io: &mut RoundIo<'_>,
        start: &[Message],
    ) -> (Uplink, Vec<Option<Tensor>>) {
        let (config, scenario) = (env.config, env.scenario);
        let (round, ctx) = (io.round, io.ctx);
        let public_len = scenario.public.len();
        let num_classes = scenario.num_classes;
        let roster = ctx.cohort().survivors();
        // The generated batch, first when present, is server knowledge the
        // participants need before they can score it: every survivor is
        // billed for it (the public-dataset mode ships nothing here because
        // the public set is pre-shared).
        if let Some(batch @ Message::SyntheticBatch { .. }) = start.first() {
            for &client in &roster {
                io.bill(client, Direction::Downlink, batch.encoded_len());
            }
        }

        let trimmed = config.robust.trim_fraction().is_some();
        let keep_probs = trimmed || io.obs.enabled();
        let mut uplink = Uplink {
            acc: LogitAccumulator::new(config.variance_weighting),
            kept: Vec::new(),
            admitted: 0,
        };
        let mut moment_uploads: Vec<Vec<Option<Prototype>>> = Vec::new();
        let sample_dim = env.transfer.sample_dim();

        let policy = AdmissionPolicy;
        // Destructure for disjoint borrows: the fleet mutates on the
        // worker pool while the commit pipeline updates server-side state.
        let FedPkdState {
            clients,
            server_model,
            cached_prototypes,
            quarantine,
            ..
        } = self;
        let proto_dim = server_model.feature_dim();
        train_cohort(
            clients,
            scenario,
            io,
            &roster,
            |state, data| {
                session::upload(config, &scenario.public, state, data, start)
                    .expect("the server built the round-start messages from its own state")
            },
            |io, client, mut messages| {
                // Byzantine clients corrupt their uploads here — before the
                // ledger charge, because the corrupted bytes are what actually
                // cross the wire, and before admission, which is the server's
                // view of them.
                if let Some(attack) = ctx.attack(client) {
                    corrupt(attack, &mut ctx.attack_rng(round, client), &mut messages);
                }
                for message in &messages {
                    io.bill(client, Direction::Uplink, message.encoded_len());
                }
                // Admission control: the upload was charged — the bytes crossed
                // the wire — but only validated payloads may touch server
                // state.
                if quarantine.is_quarantined(client) {
                    io.reject(client, PayloadKind::Logits, RejectReason::Quarantined);
                    if config.use_prototypes {
                        io.reject(client, PayloadKind::Prototypes, RejectReason::Quarantined);
                    }
                    return;
                }
                // The server's view: the tensors admission and the fold take.
                // A message that does not decode becomes an empty payload,
                // which admission refuses as wrong-shaped.
                let mut logits = Tensor::zeros(&[0, num_classes]);
                let (mut prototypes, mut moments) = (Vec::new(), None);
                for message in messages {
                    match message {
                        Message::Logits {
                            sample_ids,
                            num_classes: cols,
                            values,
                        } => {
                            let shape = [sample_ids.len(), cols as usize];
                            logits = Tensor::from_vec(values, &shape).unwrap_or(logits);
                        }
                        Message::Prototypes { entries } => {
                            prototypes =
                                from_wire_entries(entries, num_classes).unwrap_or_default();
                        }
                        Message::DataMoments { entries } => {
                            moments = from_wire_entries(entries, num_classes).ok();
                        }
                        _ => {}
                    }
                }
                let mut rejected = false;
                if let Err(reason) = policy.check_logits(&logits, public_len, num_classes) {
                    io.reject(client, PayloadKind::Logits, reason);
                    rejected = true;
                }
                if config.use_prototypes {
                    if let Err(reason) =
                        policy.check_prototypes(&prototypes, num_classes, proto_dim)
                    {
                        io.reject(client, PayloadKind::Prototypes, reason);
                        rejected = true;
                    }
                }
                if rejected {
                    if quarantine.record_rejection(client) {
                        io.obs.record(&TelemetryEvent::ClientQuarantined {
                            round,
                            client,
                            consecutive: quarantine.streak(client),
                        });
                    }
                    return;
                }
                quarantine.record_accepted(client);
                if config.use_prototypes {
                    cached_prototypes[client] = Some((round, prototypes));
                }
                // Moments only feed the generator: an upload that fails the
                // prototype gate is simply not folded — the logit/prototype
                // checks above are what gate the client's standing.
                if let Some(m) = moments {
                    if policy.check_prototypes(&m, num_classes, sample_dim).is_ok() {
                        moment_uploads.push(m);
                    }
                }
                // The streaming Eq. 6–7 fold: the admitted upload's one
                // softmax pass is consumed here and freed — unless a
                // cross-client estimator or diagnostics need the full set.
                let probs = softmax(&logits, 1.0);
                if !trimmed {
                    uplink.acc.fold_probs(&probs).expect(
                        "admission fixed every admitted upload's shape to public_len × num_classes",
                    );
                }
                if keep_probs {
                    uplink.kept.push(probs);
                }
                uplink.admitted += 1;
            },
        );

        // Data-free mode: size-weight the admitted input-moment uploads into
        // the global per-class input means the generator will match. The
        // uploads were folded in commit order (ascending client id), so the
        // aggregate is deterministic across worker counts; no upload, no means.
        let input_moments =
            aggregate_prototypes(&moment_uploads).unwrap_or_else(|_| vec![None; num_classes]);
        (uplink, input_moments)
    }

    /// Phase 2: server-side aggregation (Eqs. 6–8, or their trimmed
    /// variants) over the admitted uploads. Returns the aggregated
    /// probabilities and their pseudo-labels, or `None` when the round
    /// degrades to a no-op.
    fn aggregate(
        &mut self,
        env: &RoundEnv<'_>,
        io: &mut RoundIo<'_>,
        uplink: Uplink,
    ) -> Option<(Tensor, Vec<usize>)> {
        let (config, round) = (env.config, io.round);
        let trim = config.robust.trim_fraction();
        let kept = &uplink.kept;
        let FedPkdState {
            global_prototypes,
            cached_prototypes,
            ..
        } = self;
        let phase_started = Instant::now();
        let obs = &mut *io.obs;
        // With every upload rejected there is no trustworthy knowledge to
        // aggregate or distill: the round degrades to a no-op — models and
        // prototypes stay as they were.
        let aggregated = match trim {
            _ if uplink.admitted == 0 => None,
            Some(t) => aggregate_logits_trimmed_from_probs(kept, t).ok(),
            None => uplink.acc.finish().ok(),
        };
        let Some(aggregated) = aggregated else {
            emit_phase_timing(obs, round, Phase::Aggregation, phase_started);
            return None;
        };
        let pseudo = pseudo_labels(&aggregated);
        if obs.enabled() {
            // `obs.enabled()` implies the commit point kept every admitted
            // upload's probabilities.
            let stats = aggregation_stats_from_probs(kept, config.variance_weighting);
            obs.record(&TelemetryEvent::LogitAggregation {
                round,
                clients: kept.len(),
                variance_weighting: config.variance_weighting,
                mean_client_weight: stats.mean_client_weight,
                disagreement: stats.disagreement,
            });
        }
        let mut proto_outliers = 0usize;
        let mut proto_contributions = 0usize;
        if config.use_prototypes {
            // Eq. 8 over the admitted survivors' fresh prototypes plus any
            // absent client's cached upload that is recent enough
            // (`PROTOTYPE_STALENESS` bounds the age of reuse).
            let client_protos: Vec<Vec<Option<Prototype>>> = cached_prototypes
                .iter()
                .flatten()
                .filter(|&&(uploaded, _)| round - uploaded <= PROTOTYPE_STALENESS)
                .map(|(_, p)| p.clone())
                .collect();
            proto_contributions = client_protos
                .iter()
                .map(|p| p.iter().flatten().count())
                .sum();
            let result = match trim {
                None => aggregate_prototypes(&client_protos).map(|g| (g, 0)),
                Some(t) => aggregate_prototypes_robust(&client_protos, t),
            };
            if let Ok((new_prototypes, outliers)) = result {
                proto_outliers = outliers;
                if obs.enabled() {
                    let (mean_l2, max_l2) =
                        FedPkd::prototype_drift(global_prototypes, &new_prototypes);
                    obs.record(&TelemetryEvent::PrototypeDrift {
                        round,
                        classes_present: new_prototypes.iter().filter(|p| p.is_some()).count(),
                        mean_l2,
                        max_l2,
                    });
                }
                *global_prototypes = new_prototypes;
            }
            // On Err — no cache entries at all — the previous prototype
            // generation keeps serving instead of being wiped.
        }
        if obs.enabled() {
            if let Some(t) = trim {
                obs.record(&TelemetryEvent::AggregationTrim {
                    round,
                    logit_trim: effective_trim(kept.len(), t),
                    prototype_outliers: proto_outliers,
                    prototype_contributions: proto_contributions,
                });
            }
        }
        emit_phase_timing(obs, round, Phase::Aggregation, phase_started);
        Some((aggregated, pseudo))
    }

    /// Phase 3: data filtering (Alg. 1), the data-free generator's
    /// refinement, and server distillation (Eqs. 11–13) toward
    /// `aggregated`. Returns the selected transfer indices, or `None` when
    /// the filter kept nothing.
    fn filter_and_distill(
        &mut self,
        env: &RoundEnv<'_>,
        io: &mut RoundIo<'_>,
        aggregated: &Tensor,
        pseudo: &[usize],
        input_moments: &[Option<Tensor>],
        latents: Option<&Tensor>,
    ) -> Option<Vec<usize>> {
        let (config, transfer) = (env.config, env.transfer);
        let (round, workers, obs) = (io.round, io.workers(), &mut *io.obs);
        let FedPkdState {
            server_model,
            server_optimizer,
            server_rng,
            global_prototypes,
            generator,
            ..
        } = self;
        let phase_started = Instant::now();
        // Generated samples of a class no client has seen carry no
        // teachable signal (Eq. 10 has no target): drop them outright
        // instead of keeping an index-order θ fraction.
        let drop_uncovered = config.distill_source == DistillSource::Generated;
        let selected: Vec<usize> = if config.use_filter && config.use_prototypes {
            let server_features = eval::features_on(server_model, transfer);
            // The statistics cost a global sort of the distances: only
            // when the uncovered-class accounting or an observer consumes
            // them.
            if drop_uncovered || obs.enabled() {
                let (selected, stats) = filter_public_opts(
                    &server_features,
                    pseudo,
                    global_prototypes,
                    config.theta,
                    drop_uncovered,
                );
                obs.record(&TelemetryEvent::FilterOutcome {
                    round,
                    kept: stats.kept(),
                    dropped: stats.dropped(),
                    kept_per_class: stats.kept_per_class,
                    total_per_class: stats.total_per_class,
                    distance_quantiles: stats.distance_quantiles,
                    dropped_uncovered: stats.dropped_uncovered,
                });
                selected
            } else {
                filter_public(&server_features, pseudo, global_prototypes, config.theta)
            }
        } else {
            (0..transfer.len()).collect()
        };
        emit_phase_timing(obs, round, Phase::Filter, phase_started);
        let global_prototypes: &[Option<Tensor>] = global_prototypes;
        // Data-free mode: refine the generator against the round's
        // aggregated ensemble with the pre-distill server as its critic —
        // the FedGen alternation. Refine never steps the critic's params,
        // never moves its buffers and leaves its gradients at zero, so a copy
        // of the pre-distill server, built and dropped where the refine
        // runs, is as good a critic, and the refine runs beside the
        // distillation below, wherever the budget puts it. The copy's
        // initial weights are overwritten at once, so they come from a
        // throwaway stream, never the server's or the generator's.
        let refine_job = generator.as_mut().zip(latents).map(|(gs, latents)| {
            let GeneratorState {
                generator: net,
                optimizer,
                critic_spec,
                ..
            } = gs;
            let critic_state = state_vector(server_model);
            move || {
                let mut critic = critic_spec.build(&mut Rng::seed_from_u64(0));
                load_state_vector(&mut critic, &critic_state)
                    .expect("the copy is built from the server's own spec");
                let stats = generator::refine(
                    net,
                    optimizer,
                    &mut critic,
                    latents,
                    transfer.labels(),
                    Some(aggregated),
                    global_prototypes,
                    input_moments,
                    config.temperature,
                    config.generator_epochs,
                );
                TelemetryEvent::GeneratorRefined {
                    round,
                    ensemble_loss: stats.ensemble_loss,
                    ce_loss: stats.ce_loss,
                    proto_loss: stats.proto_loss,
                    moment_loss: stats.moment_loss,
                }
            }
        });
        let subset_features = transfer
            .features()
            .select_rows(&selected)
            .expect("filter indices are in range");
        // `aggregated` is already a probability mixture (Eq. 6 over the
        // simplex); the filtered rows are the server's teacher targets.
        let teacher_probs = aggregated
            .select_rows(&selected)
            .expect("filter indices are in range");
        let subset_pseudo: Vec<usize> = selected.iter().map(|&i| pseudo[i]).collect();
        let delta = if config.use_prototypes {
            config.delta
        } else {
            1.0 // the prototype loss term is removed (ablation w/o Pro)
        };
        let phase_started = Instant::now();
        // With an empty subset nothing trains, but the refinement still
        // happens, so later rounds produce usable batches.
        let (distill_stats, refined) = train_server_with_workers(
            server_model,
            &subset_features,
            &teacher_probs,
            &subset_pseudo,
            global_prototypes,
            delta,
            config.temperature,
            config.server_epochs,
            config.batch_size,
            server_optimizer,
            server_rng,
            workers,
            refine_job,
        );
        if let Some(refined) = refined {
            obs.record(&refined);
        }
        if selected.is_empty() {
            return None;
        }
        obs.record(&TelemetryEvent::ServerDistill {
            round,
            kd_loss: distill_stats.kd_loss,
            proto_loss: distill_stats.proto_loss,
            combined_loss: distill_stats.combined_loss,
            batches: distill_stats.batches,
        });
        emit_phase_timing(obs, round, Phase::ServerDistill, phase_started);
        Some(selected)
    }

    /// Phase 4: server knowledge downlink + client public training
    /// (Eqs. 14–15, [`session::digest`] on [`digest`]), survivors only. Only
    /// the `selected` subset's logits travel (θ% of the public set), which
    /// is FedPKD's downlink saving.
    fn downlink(
        &mut self,
        env: &RoundEnv<'_>,
        io: &mut RoundIo<'_>,
        start: &[Message],
        selected: &[usize],
    ) {
        let (config, scenario, transfer) = (env.config, env.scenario, env.transfer);
        let server_logits = eval::logits_on(&mut self.server_model, &transfer.subset(selected));
        let ids: Vec<u32> = selected.iter().map(|&i| i as u32).collect();
        // Every survivor receives the same three messages: the subset's
        // logits, the global prototypes, the selection.
        let mut downlink = vec![Message::Logits {
            sample_ids: ids.clone(),
            num_classes: scenario.num_classes as u32,
            values: server_logits.into_vec(),
        }];
        if config.use_prototypes {
            let entries = global_to_wire_entries(&self.global_prototypes);
            downlink.push(Message::Prototypes { entries });
        }
        downlink.push(Message::SampleSelection { ids });
        let bills: Vec<usize> = downlink.iter().map(Wire::encoded_len).collect();
        digest(&mut self.clients, scenario, io, &bills, |state| {
            session::digest(config, &scenario.public, state, start, &downlink)
                .expect("the server built this round's messages from its own state")
        });
    }
}

impl Federation for FedPkd {
    fn name(&self) -> &'static str {
        "FedPKD"
    }

    fn num_clients(&self) -> usize {
        self.state.clients.len()
    }

    fn run_round(
        &mut self,
        round: usize,
        ctx: &RoundContext,
        ledger: &mut CommLedger,
        obs: &mut dyn RoundObserver,
    ) {
        let public_len = self.scenario.public.len();
        if ctx.cohort().num_active() == 0 {
            // Zero survivors: nobody trains, nothing travels, no model or
            // prototype changes. The driver still frames the round with
            // telemetry and evaluation.
            return;
        }

        // What every survivor receives before it trains, built once. First,
        // in data-free mode, this round's transfer set, drawn from the
        // dedicated latent stream at the public set's size so uplink logit
        // traffic (and comm-budget comparisons) stays identical; zero-survivor
        // rounds returned above, so the stream advances only on rounds that
        // run. Last, after round 0, the global prototypes.
        let mut start = Vec::new();
        let mut latents = None;
        if let Some(gs) = self.state.generator.as_mut() {
            let (z, labels) = gs.generator.draw_batch(public_len, &mut gs.rng);
            let features = gs.generator.synthesize(&z, &labels);
            start.push(Message::SyntheticBatch {
                sample_dim: features.cols() as u32,
                labels: labels.iter().map(|&y| y as u32).collect(),
                values: features.into_vec(),
            });
            latents = Some(z);
        }
        if round > 0 && self.config.use_prototypes {
            // Unbilled: Eq. 16 reads the server's current prototypes, also
            // in a client that missed the downlink that carried them.
            let entries = global_to_wire_entries(&self.state.global_prototypes);
            start.push(Message::Prototypes { entries });
        }
        // The server reads the transfer set the clients read.
        let transfer = session::transfer_set(&self.scenario.public, &start)
            .expect("the server built the round-start messages from its own state");
        let env = RoundEnv {
            config: &self.config,
            scenario: &self.scenario,
            transfer: &transfer,
        };
        let io = &mut RoundIo::new(round, ctx, ledger, obs);
        let state = &mut self.state;

        let (uplink, input_moments) = state.client_phase(&env, io, &start);
        let Some((aggregated, pseudo)) = state.aggregate(&env, io, uplink) else {
            return;
        };
        let Some(selected) = state.filter_and_distill(
            &env,
            io,
            &aggregated,
            &pseudo,
            &input_moments,
            latents.as_ref(),
        ) else {
            return;
        };
        state.downlink(&env, io, &start, &selected);
    }

    fn server_accuracy(&mut self) -> Option<f64> {
        Some(eval::accuracy(
            &mut self.state.server_model,
            &self.scenario.global_test,
        ))
    }

    fn client_accuracies(&mut self) -> Vec<f64> {
        pooled_client_accuracies(&mut self.state.clients, &self.scenario)
    }

    fn driver(&self) -> &DriverState {
        &self.state.driver
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.state.driver
    }

    fn write_state(&self, w: &mut dyn StateSink) {
        snapshot::write_pool(w, &self.state.clients);
        snapshot::write_model(w, &self.state.server_model);
        snapshot::write_adam(w, &self.state.server_optimizer);
        snapshot::write_rng(w, &self.state.server_rng);
        snapshot::write_opt_tensors(w, &self.state.global_prototypes);
        // The stale-prototype cache: per client an optional
        // (upload round, per-class optional prototype) entry.
        w.put_usize(self.state.cached_prototypes.len());
        for entry in &self.state.cached_prototypes {
            w.put_bool(entry.is_some());
            if let Some((round, protos)) = entry {
                w.put_usize(*round);
                snapshot::write_prototypes(w, protos);
            }
        }
        // Data-free state: presence-tagged so a restore into a
        // differently-configured instance fails typed instead of
        // misaligning the byte stream.
        w.put_bool(self.state.generator.is_some());
        if let Some(gs) = &self.state.generator {
            snapshot::write_model(w, gs.generator.net());
            snapshot::write_adam(w, &gs.optimizer);
            snapshot::write_rng(w, &gs.rng);
        }
        snapshot::write_quarantine(w, &self.state.quarantine);
        snapshot::write_driver(w, &self.state.driver);
    }

    fn read_state(&mut self, r: &mut dyn StateSource) -> Result<(), SnapshotError> {
        snapshot::read_pool(r, &mut self.state.clients)?;
        snapshot::read_model(r, &mut self.state.server_model)?;
        snapshot::read_adam(
            r,
            &mut self.state.server_optimizer,
            &self.state.server_model,
        )?;
        self.state.server_rng = snapshot::read_rng(r)?;
        let num_classes = self.state.global_prototypes.len();
        let proto_dim = self.state.server_model.feature_dim();
        let global_prototypes = snapshot::read_opt_tensors(r)?;
        if global_prototypes.len() != num_classes {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {} classes of global prototypes, instance has {num_classes}",
                global_prototypes.len(),
            )));
        }
        if let Some(p) = global_prototypes
            .iter()
            .flatten()
            .find(|p| p.shape() != [proto_dim])
        {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has a global prototype of shape {:?}, server features are {proto_dim} wide",
                p.shape()
            )));
        }
        let cache_len = r.take_usize()?;
        if cache_len != self.state.cached_prototypes.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot caches prototypes for {cache_len} clients, instance has {}",
                self.state.cached_prototypes.len()
            )));
        }
        // The cache holds admitted uploads only, and feeds Eq. 8 without
        // another look: a restored entry must pass the gate a live one
        // passed.
        let policy = AdmissionPolicy;
        let mut cached_prototypes = Vec::with_capacity(cache_len);
        for client in 0..cache_len {
            cached_prototypes.push(if r.take_bool()? {
                let round = r.take_usize()?;
                let protos = snapshot::read_prototypes(r)?;
                policy
                    .check_prototypes(&protos, num_classes, proto_dim)
                    .map_err(|reason| {
                        SnapshotError::Malformed(format!(
                            "cached prototypes of client {client} fail admission: {}",
                            reason.name()
                        ))
                    })?;
                Some((round, protos))
            } else {
                None
            });
        }
        let has_generator = r.take_bool()?;
        if has_generator != self.state.generator.is_some() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot {} generator state but the instance's distill source is {}",
                if has_generator { "carries" } else { "has no" },
                if self.state.generator.is_some() {
                    "Generated"
                } else {
                    "Public"
                },
            )));
        }
        if let Some(gs) = self.state.generator.as_mut() {
            snapshot::read_model(r, gs.generator.net_mut())?;
            snapshot::read_adam(r, &mut gs.optimizer, gs.generator.net())?;
            gs.rng = snapshot::read_rng(r)?;
        }
        snapshot::read_quarantine(r, &mut self.state.quarantine)?;
        let driver = snapshot::read_driver(r)?;
        // Eq. 8 ages a cached upload by `round - uploaded`: it must come
        // from a round already driven.
        let driven = driver.rounds_driven();
        let undriven = |e: &Option<(usize, _)>| e.as_ref().is_some_and(|e| e.0 >= driven);
        if let Some(client) = cached_prototypes.iter().position(undriven) {
            return Err(SnapshotError::Malformed(format!(
                "client {client} cached prototypes from a round not yet driven ({driven})"
            )));
        }
        self.state.global_prototypes = global_prototypes;
        self.state.cached_prototypes = cached_prototypes;
        self.state.driver = driver;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::NullObserver;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_netsim::Cohort;
    use fedpkd_tensor::models::DepthTier;

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

    fn fast_config() -> FedPkdConfig {
        FedPkdConfig {
            client_private_epochs: 2,
            client_public_epochs: 1,
            server_epochs: 3,
            learning_rate: 0.003,
            ..FedPkdConfig::default()
        }
    }

    fn spec(tier: DepthTier) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier,
        }
    }

    #[test]
    fn constructor_validates_wiring() {
        let scenario = tiny_scenario(1);
        // Wrong spec count.
        let err = FedPkd::new(
            scenario.clone(),
            vec![spec(DepthTier::T11); 2],
            spec(DepthTier::T56),
            fast_config(),
            0,
        );
        assert!(matches!(err, Err(CoreError::ClientSpecMismatch { .. })));
        // Wrong class count.
        let bad_spec = ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 5,
            tier: DepthTier::T11,
        };
        let err = FedPkd::new(
            scenario,
            vec![bad_spec; 3],
            spec(DepthTier::T56),
            fast_config(),
            0,
        );
        assert!(matches!(err, Err(CoreError::ClassCountMismatch { .. })));
    }

    #[test]
    fn two_rounds_produce_metrics_and_traffic() {
        let mut algo = FedPkd::new(
            tiny_scenario(2),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            7,
        )
        .unwrap();
        let result = crate::driver::Driver::rounds(2).run_silent(&mut algo);
        assert_eq!(result.history.len(), 2);
        assert!(result.last().server_accuracy.is_some());
        assert_eq!(result.last().client_accuracies.len(), 3);
        assert!(!result.ledger.is_empty());
        // Uplink and downlink both happen.
        assert!(
            result
                .ledger
                .direction_bytes(fedpkd_netsim::Direction::Uplink)
                > 0
        );
        assert!(
            result
                .ledger
                .direction_bytes(fedpkd_netsim::Direction::Downlink)
                > 0
        );
    }

    #[test]
    fn learns_above_chance_quickly() {
        let mut algo = FedPkd::new(
            tiny_scenario(3),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            11,
        )
        .unwrap();
        let result = crate::driver::Driver::rounds(3).run_silent(&mut algo);
        let server = result.best_server_accuracy().unwrap();
        let client = result.best_client_accuracy();
        assert!(server > 0.25, "server accuracy {server} vs chance 0.1");
        assert!(client > 0.3, "client accuracy {client} vs chance 0.1");
    }

    #[test]
    fn heterogeneous_client_models_work() {
        let mut algo = FedPkd::new(
            tiny_scenario(4),
            vec![
                spec(DepthTier::T11),
                spec(DepthTier::T20),
                spec(DepthTier::T29),
            ],
            spec(DepthTier::T56),
            fast_config(),
            13,
        )
        .unwrap();
        let result = crate::driver::Driver::rounds(2).run_silent(&mut algo);
        assert!(result.last().server_accuracy.unwrap() > 0.15);
    }

    #[test]
    fn prototypes_populate_after_first_round() {
        let mut algo = FedPkd::new(
            tiny_scenario(5),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            17,
        )
        .unwrap();
        assert!(algo.global_prototypes().iter().all(Option::is_none));
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(Cohort::full(3)),
            &mut ledger,
            &mut NullObserver,
        );
        let present = algo
            .global_prototypes()
            .iter()
            .filter(|p| p.is_some())
            .count();
        assert!(present >= 8, "{present}/10 prototypes after round 0");
    }

    #[test]
    fn filter_reduces_downlink_traffic() {
        // With the filter on, downlink logits cover θ% of the public set; a
        // filtered run must ship fewer downlink bytes than an unfiltered one.
        let run = |use_filter: bool| {
            let cfg = FedPkdConfig {
                use_filter,
                theta: 0.5,
                ..fast_config()
            };
            let mut algo = FedPkd::new(
                tiny_scenario(6),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                cfg,
                19,
            )
            .unwrap();
            crate::driver::Driver::rounds(1)
                .run_silent(&mut algo)
                .ledger
                .direction_bytes(fedpkd_netsim::Direction::Downlink)
        };
        let filtered = run(true);
        let unfiltered = run(false);
        assert!(
            filtered < unfiltered,
            "filtered {filtered} !< unfiltered {unfiltered}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut algo = FedPkd::new(
                tiny_scenario(7),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                fast_config(),
                23,
            )
            .unwrap();
            let result = crate::driver::Driver::rounds(1).run_silent(&mut algo);
            (
                result.last().server_accuracy,
                result.last().client_accuracies.clone(),
                result.ledger.total_bytes(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn data_free_mode_charges_broadcast_and_learns() {
        let cfg = FedPkdConfig {
            distill_source: DistillSource::Generated,
            ..fast_config()
        };
        let mut algo = FedPkd::new(
            tiny_scenario(15),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            cfg,
            47,
        )
        .unwrap();
        let mut log = crate::telemetry::EventLog::new();
        let result = crate::driver::Driver::rounds(3).run(&mut algo, &mut log);
        // The synthetic-batch broadcast makes generated-mode downlink
        // strictly heavier than the public-mode baseline's.
        let mut baseline = FedPkd::new(
            tiny_scenario(15),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            47,
        )
        .unwrap();
        let public = crate::driver::Driver::rounds(3).run_silent(&mut baseline);
        assert!(
            result
                .ledger
                .direction_bytes(fedpkd_netsim::Direction::Downlink)
                > public
                    .ledger
                    .direction_bytes(fedpkd_netsim::Direction::Downlink)
        );
        // The generator refines every round.
        let refines = log
            .events()
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::GeneratorRefined { .. }))
            .count();
        assert_eq!(refines, 3);
        // Private training still happens on real data, so clients learn
        // even though the distillation rides synthetic samples.
        assert!(result.best_client_accuracy() > 0.25);
    }

    #[test]
    fn data_free_mode_is_deterministic_under_seed() {
        let run = || {
            let cfg = FedPkdConfig {
                distill_source: DistillSource::Generated,
                ..fast_config()
            };
            let mut algo = FedPkd::new(
                tiny_scenario(16),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                cfg,
                53,
            )
            .unwrap();
            let result = crate::driver::Driver::rounds(2).run_silent(&mut algo);
            (
                result.last().server_accuracy,
                result.last().client_accuracies.clone(),
                result.ledger.total_bytes(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn uncovered_generated_classes_are_dropped_and_reported() {
        // Force zero coverage: prototypes on, but prototype uploads are
        // rejected by a zero-tolerance admission policy... simpler: run a
        // generated-mode round where only a narrow Dirichlet slice of
        // classes has data, and check the filter telemetry accounts for
        // every sample of the uncovered classes.
        let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(2)
            .samples(120)
            .public_size(100)
            .global_test_size(60)
            // Shards with 1 class per client: at most 2 of 10 classes are
            // ever covered, so most generated classes have no prototype.
            .partition(Partition::Shards {
                shard_size: 6,
                shards_per_client: 2,
                classes_per_client: 1,
            })
            .seed(21)
            .build()
            .unwrap();
        let cfg = FedPkdConfig {
            distill_source: DistillSource::Generated,
            ..fast_config()
        };
        let mut algo = FedPkd::new(
            scenario,
            vec![spec(DepthTier::T11); 2],
            spec(DepthTier::T20),
            cfg,
            59,
        )
        .unwrap();
        let mut log = crate::telemetry::EventLog::new();
        crate::driver::Driver::rounds(1).run(&mut algo, &mut log);
        let covered = algo
            .global_prototypes()
            .iter()
            .filter(|p| p.is_some())
            .count();
        assert!(covered <= 2, "shards cap coverage at 2, got {covered}");
        let outcome = log
            .events()
            .iter()
            .find_map(|e| match e {
                TelemetryEvent::FilterOutcome {
                    dropped_uncovered,
                    kept_per_class,
                    total_per_class,
                    ..
                } => Some((
                    *dropped_uncovered,
                    kept_per_class.clone(),
                    total_per_class.clone(),
                )),
                _ => None,
            })
            .expect("filter telemetry present");
        let (dropped_uncovered, kept_per_class, total_per_class) = outcome;
        // Every sample whose pseudo-class lacks a prototype was dropped
        // and reported, and no uncovered class contributes kept samples.
        let uncovered_total: usize = (0..10)
            .filter(|&c| algo.global_prototypes()[c].is_none())
            .map(|c| total_per_class[c])
            .sum();
        assert_eq!(dropped_uncovered, uncovered_total);
        assert!(uncovered_total > 0, "some pseudo-labels must be uncovered");
        for (c, &kept) in kept_per_class.iter().enumerate() {
            if algo.global_prototypes()[c].is_none() {
                assert_eq!(kept, 0, "uncovered class {c} kept samples");
            }
        }
    }

    #[test]
    fn dropped_client_contributes_cached_prototypes_within_staleness() {
        let build = || {
            FedPkd::new(
                tiny_scenario(9),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                fast_config(),
                37,
            )
            .unwrap()
        };
        let mut algo = build();
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(Cohort::full(3)),
            &mut ledger,
            &mut NullObserver,
        );
        // Client 2 misses round 1; its round-0 prototypes (age 1 ≤ 2) must
        // still be cached for aggregation.
        let cohort = Cohort::from_causes(vec![None, None, Some(fedpkd_netsim::DropCause::Crash)]);
        algo.run_round(
            1,
            &RoundContext::benign(cohort),
            &mut ledger,
            &mut NullObserver,
        );
        assert!(algo.state.cached_prototypes[2]
            .as_ref()
            .is_some_and(|&(uploaded, _)| uploaded == 0));
        // No round-1 uplink bytes for the dropped client.
        assert_eq!(ledger.round_client_uplinks(1, 3)[2], 0);
        assert!(ledger.round_client_uplinks(1, 3)[0] > 0);
    }

    /// A cached upload from a round not yet driven would underflow Eq. 8's
    /// age `round - uploaded` the next time its client is absent: such a
    /// snapshot must not restore.
    #[test]
    fn a_cached_round_not_yet_driven_is_malformed() {
        let build = || {
            FedPkd::new(
                tiny_scenario(9),
                vec![spec(DepthTier::T11); 3],
                spec(DepthTier::T20),
                fast_config(),
                37,
            )
            .unwrap()
        };
        let mut algo = build();
        crate::driver::Driver::rounds(2).run_silent(&mut algo);
        let driven = algo.state.driver.rounds_driven();
        for (uploaded, restores) in [(driven - 1, true), (driven, false), (1 << 40, false)] {
            algo.state.cached_prototypes[0].as_mut().unwrap().0 = uploaded;
            let mut snapshot = Vec::new();
            algo.snapshot_to(&mut snapshot).unwrap();
            let restored = build().restore_from(&mut snapshot.as_slice());
            match restored {
                Ok(()) => assert!(restores, "cached round {uploaded} restored"),
                Err(SnapshotError::Malformed(_)) => assert!(!restores, "round {uploaded}"),
                Err(other) => panic!("cached round {uploaded}: {other:?}"),
            }
        }
    }

    #[test]
    fn zero_survivor_round_is_a_noop() {
        let mut algo = FedPkd::new(
            tiny_scenario(10),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            41,
        )
        .unwrap();
        let mut ledger = CommLedger::new();
        algo.run_round(
            0,
            &RoundContext::benign(Cohort::full(3)),
            &mut ledger,
            &mut NullObserver,
        );
        let bytes_after_r0 = ledger.total_bytes();
        let protos_before: Vec<bool> = algo
            .global_prototypes()
            .iter()
            .map(Option::is_some)
            .collect();
        let empty = Cohort::from_causes(vec![Some(fedpkd_netsim::DropCause::Dropout); 3]);
        algo.run_round(
            1,
            &RoundContext::benign(empty),
            &mut ledger,
            &mut NullObserver,
        );
        assert_eq!(ledger.total_bytes(), bytes_after_r0, "no traffic charged");
        let protos_after: Vec<bool> = algo
            .global_prototypes()
            .iter()
            .map(Option::is_some)
            .collect();
        assert_eq!(protos_before, protos_after);
    }

    /// The per-client readout costs O(cohort): on a 64-client fleet with 4
    /// sampled per round, round 0 evaluates everyone, each later round only
    /// the clients whose slot was written (the cohort), and the round after
    /// a restore everyone again — while every round's accuracies equal an
    /// uncached sweep of the whole fleet bit for bit.
    #[test]
    fn sampled_fleet_evaluates_only_written_clients() {
        const FLEET: usize = 64;
        const COHORT: usize = 4;
        let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(FLEET)
            .samples(FLEET * 24)
            .public_size(60)
            .global_test_size(60)
            .partition(Partition::Iid)
            .seed(9)
            .build()
            .unwrap();
        let build = || {
            FedPkd::new(
                scenario.clone(),
                vec![spec(DepthTier::T11); FLEET],
                spec(DepthTier::T20),
                FedPkdConfig {
                    client_private_epochs: 1,
                    server_epochs: 1,
                    ..fast_config()
                },
                31,
            )
            .unwrap()
        };
        let uncached = |algo: &FedPkd| -> Vec<f64> {
            (0..FLEET)
                .map(|i| {
                    let mut client = algo.state.clients.materialize(i);
                    eval::accuracy(&mut client.model, &algo.scenario.clients[i].test)
                })
                .collect()
        };
        let mut one_round = crate::driver::DriverBuilder::new()
            .rounds(1)
            .cohort(fedpkd_netsim::CohortPolicy::Sample {
                size: COHORT,
                seed: 5,
            })
            .build();
        // Drives one round; returns how many clients it evaluated.
        let mut step = |algo: &mut FedPkd| -> u64 {
            let before = algo.state.clients.evaluations();
            let result = one_round.run_silent(algo);
            assert_eq!(result.last().client_accuracies, uncached(algo));
            algo.state.clients.evaluations() - before
        };

        let mut algo = build();
        assert_eq!(step(&mut algo), FLEET as u64, "cold cache: full sweep");
        for round in 1..4 {
            assert_eq!(step(&mut algo), COHORT as u64, "round {round}");
        }
        let mut snapshot = Vec::new();
        algo.snapshot_to(&mut snapshot).unwrap();
        let mut restored = build();
        restored.restore_from(&mut snapshot.as_slice()).unwrap();
        assert_eq!(
            step(&mut restored),
            FLEET as u64,
            "cold again after restore"
        );
        assert_eq!(step(&mut restored), COHORT as u64);
        // Restoring over a warm cache drops it too.
        algo.restore_from(&mut snapshot.as_slice()).unwrap();
        assert_eq!(step(&mut algo), FLEET as u64, "restore invalidates");
    }

    #[test]
    fn ablation_switches_change_traffic_shape() {
        let cfg = FedPkdConfig {
            use_prototypes: false,
            ..fast_config()
        };
        let mut algo = FedPkd::new(
            tiny_scenario(8),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            cfg,
            29,
        )
        .unwrap();
        let no_proto = crate::driver::Driver::rounds(1).run_silent(&mut algo);
        let mut algo_full = FedPkd::new(
            tiny_scenario(8),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            fast_config(),
            29,
        )
        .unwrap();
        let full = crate::driver::Driver::rounds(1).run_silent(&mut algo_full);
        // Without prototypes no prototype messages are sent.
        assert!(no_proto.ledger.total_bytes() < full.ledger.total_bytes());
    }
}
