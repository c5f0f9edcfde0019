//! The checkpoint/resume oracle.
//!
//! For FedPKD and all seven baselines: running `2R` rounds straight must be
//! bit-identical to running `R` rounds, snapshotting *through the byte
//! codec* (`snapshot_to` → `restore_from`, as a checkpoint file would
//! travel) into a fresh same-config instance, and running `R` more — identical
//! round history, identical lifetime ledger, and an identical telemetry
//! event stream for the resumed rounds. The oracle runs under an active
//! fault plan with dropout, an outage, and Byzantine adversaries, so the
//! snapshot also has to carry the fault-evaluation position and the
//! quarantine/caching state those features feed on.
//!
//! A second family of tests checks the failure contract: corrupt,
//! truncated, or foreign snapshot bytes surface as typed
//! [`SnapshotError`]s — never a panic, never a silent half-restore that
//! runs anyway.

use fedpkd::core::clients::ClientState;
use fedpkd::core::cow::ClientPool;
use fedpkd::core::snapshot::{self, SnapshotError, SnapshotStreamWriter, StateSink};
use fedpkd::core::train::train_supervised;
use fedpkd::data::DataMode;
use fedpkd::prelude::*;
use fedpkd::tensor::nn::Layer;
use fedpkd::tensor::optim::Adam;

/// Rounds before the interruption; the full run drives `2 * R`.
const R: usize = 2;

fn scenario() -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(3)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(240)
        .public_size(80)
        .global_test_size(80)
        .seed(19)
        .build()
        .expect("valid scenario")
}

fn client_spec() -> ModelSpec {
    ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T11,
    }
}

fn server_spec() -> ModelSpec {
    ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T20,
    }
}

/// The client [`hostile_plan`] turns into a permanent straggler.
const STRAGGLER: usize = 0;

/// An adversarial fault plan exercising every snapshot-sensitive feature:
/// random dropout (advances the plan's round position), a scheduled outage
/// spanning the snapshot boundary, two Byzantine clients whose attacks
/// cover both knowledge types and the parameter uplink, and a straggler
/// that any upload at all (≥ 2 bytes) puts past the deadline: it sends in
/// round 0 and is deadline-dropped from then on, so at the snapshot
/// boundary its size estimate is older than the previous round. (The
/// seed's dropout draws leave the straggler alone until the last round.)
fn hostile_plan() -> FaultPlan {
    FaultPlan::new(30)
        .with_dropout(0.3)
        .with_outage(1, R, 1)
        .with_slowdown(STRAGGLER, 1e9)
        .with_deadline(LinkModel::new(1e9, 0.0), 1.0)
        .with_adversary(0, Attack::LogitScale(-2.5))
        .with_adversary(2, Attack::PrototypeNoise(0.4))
}

/// Strips wall-clock noise and snapshot framing so two event streams can
/// be compared for semantic equality: only events from `from_round` on,
/// snapshot markers dropped, elapsed seconds zeroed.
fn normalized(events: &[TelemetryEvent], from_round: usize) -> Vec<TelemetryEvent> {
    events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                TelemetryEvent::SnapshotTaken { .. } | TelemetryEvent::SnapshotRestored { .. }
            )
        })
        .filter(|e| e.round() >= from_round)
        .cloned()
        .map(|mut e| {
            match &mut e {
                TelemetryEvent::PhaseTiming { seconds, .. }
                | TelemetryEvent::RoundEnd { seconds, .. } => *seconds = 0.0,
                _ => {}
            }
            e
        })
        .collect()
}

/// A driver for `rounds` rounds under an optional fault plan, at a worker
/// budget of 2 so that FedPKD's server step runs on its step worker
/// whatever the machine's core count.
fn driver(rounds: usize, plan: Option<&FaultPlan>) -> Driver {
    let mut builder = DriverBuilder::new().rounds(rounds).workers(2);
    if let Some(plan) = plan {
        builder = builder.faults(plan.clone());
    }
    builder.build()
}

/// `algo`'s snapshot, held in memory.
fn snapshot_of<A: Federation>(algo: &A) -> Vec<u8> {
    let mut bytes = Vec::new();
    algo.snapshot_to(&mut bytes).expect("stream out");
    bytes
}

/// The bare payload inside `algo`'s snapshot.
fn payload_of<A: Federation>(algo: &A) -> Vec<u8> {
    let mut payload = Vec::new();
    algo.write_state(&mut payload);
    payload
}

/// A crafted `payload` framed as a well-formed snapshot of `name`, so that
/// the envelope decodes and the payload readers must catch the damage.
fn stream_of(name: &str, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = SnapshotStreamWriter::new(&mut bytes, name);
    w.put_raw(payload);
    w.finish().expect("a Vec sink cannot fail");
    bytes
}

/// The oracle: straight `2R`-round run vs. `R` rounds + snapshot (through
/// the byte codec) + fresh instance + `R` resumed rounds.
fn assert_resumes_bit_identically<A: Federation>(make: impl Fn() -> A, plan: Option<&FaultPlan>) {
    let mut full_log = EventLog::new();
    let full = driver(2 * R, plan).run(&mut make(), &mut full_log);
    if plan.is_some() {
        let dropped_before_boundary = full_log.of_kind("client_dropped").any(|e| {
            matches!(e, TelemetryEvent::ClientDropped { round, client, cause }
                if (*round, *client, *cause) == (R - 1, STRAGGLER, DropCause::Deadline))
        });
        assert!(
            dropped_before_boundary,
            "the plan must deadline-drop the straggler in the round before the snapshot"
        );
    }

    let mut interrupted_log = EventLog::new();
    let mut first_half = make();
    let _ = driver(R, plan).run(&mut first_half, &mut interrupted_log);
    let bytes = Driver::snapshot(&first_half, &mut interrupted_log);
    drop(first_half); // the "kill" — only the serialized bytes survive

    let mut resumed_log = EventLog::new();
    let mut resumed_algo = make();
    resumed_algo
        .restore_from(&mut bytes.as_slice())
        .expect("restore into a same-config instance succeeds");
    assert_eq!(
        snapshot_of(&resumed_algo),
        bytes,
        "a restored instance writes the bytes it was restored from"
    );
    let resumed = driver(R, plan).run(&mut resumed_algo, &mut resumed_log);

    assert_eq!(
        resumed.history,
        full.history[R..].to_vec(),
        "resumed rounds must replay the uninterrupted run's metrics"
    );
    assert_eq!(
        resumed.ledger, full.ledger,
        "lifetime ledger must survive the snapshot"
    );
    assert_eq!(
        normalized(resumed_log.events(), R),
        normalized(full_log.events(), R),
        "resumed telemetry must match the uninterrupted stream"
    );
}

fn fedpkd_config() -> FedPkdConfig {
    FedPkdConfig {
        client_private_epochs: 1,
        client_public_epochs: 1,
        server_epochs: 1,
        learning_rate: 0.003,
        ..FedPkdConfig::default()
    }
}

fn fedpkd_with(mutate: impl FnOnce(&mut FedPkdConfig)) -> FedPkd {
    let mut config = fedpkd_config();
    mutate(&mut config);
    FedPkd::new(
        scenario(),
        vec![client_spec(); 3],
        server_spec(),
        config,
        23,
    )
    .expect("valid federation")
}

fn fedpkd() -> FedPkd {
    fedpkd_with(|_| {})
}

fn fedpkd_data_free() -> FedPkd {
    fedpkd_with(|c| c.distill_source = DistillSource::Generated)
}

/// FedPKD on the conv family (`examples/conv_vision`'s shapes: 3 × 8 × 8
/// images, T11 clients, a T20 server): its parked deltas are conv kernels,
/// which no other resume test sends through `write_pool` / `read_pool`.
fn fedpkd_conv() -> FedPkd {
    let classes = 6;
    let data = SyntheticConfig {
        num_classes: classes,
        modes_per_class: 1,
        mode: DataMode::Image {
            channels: 3,
            size: 8,
        },
        ..SyntheticConfig::cifar10_like()
    };
    let scenario = ScenarioBuilder::new(data)
        .clients(3)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(240)
        .public_size(80)
        .global_test_size(60)
        .seed(5)
        .build()
        .expect("valid scenario");
    let spec = |tier| ModelSpec::ConvNet {
        in_channels: 3,
        image_size: 8,
        num_classes: classes,
        tier,
    };
    FedPkd::new(
        scenario,
        vec![spec(DepthTier::T11); 3],
        spec(DepthTier::T20),
        fedpkd_config(),
        11,
    )
    .expect("valid federation")
}

fn baseline_config() -> BaselineConfig {
    BaselineConfig {
        local_epochs: 1,
        digest_epochs: 1,
        server_epochs: 1,
        learning_rate: 0.003,
        ..BaselineConfig::default()
    }
}

#[test]
fn fedpkd_resumes_bit_identically() {
    assert_resumes_bit_identically(fedpkd, None);
    assert_resumes_bit_identically(fedpkd_conv, None);
}

#[test]
fn fedpkd_resumes_bit_identically_under_hostile_faults() {
    assert_resumes_bit_identically(fedpkd, Some(&hostile_plan()));
}

#[test]
fn fedpkd_data_free_resumes_bit_identically_under_hostile_faults() {
    // Data-free mode adds the generator (parameters + Adam + its private
    // RNG stream) to the snapshot; losing any of the three would desync
    // the synthetic transfer batches after restore.
    assert_resumes_bit_identically(fedpkd_data_free, Some(&hostile_plan()));
}

#[test]
fn fedavg_resumes_bit_identically_under_hostile_faults() {
    assert_resumes_bit_identically(
        || FedAvg::new(scenario(), client_spec(), baseline_config(), 29).unwrap(),
        Some(&hostile_plan()),
    );
}

#[test]
fn fedprox_resumes_bit_identically_under_hostile_faults() {
    assert_resumes_bit_identically(
        || FedProx::new(scenario(), client_spec(), baseline_config(), 31).unwrap(),
        Some(&hostile_plan()),
    );
}

#[test]
fn fedmd_resumes_bit_identically_under_hostile_faults() {
    assert_resumes_bit_identically(
        || FedMd::new(scenario(), vec![client_spec(); 3], baseline_config(), 37).unwrap(),
        Some(&hostile_plan()),
    );
}

#[test]
fn dsfl_resumes_bit_identically_under_hostile_faults() {
    assert_resumes_bit_identically(
        || DsFl::new(scenario(), vec![client_spec(); 3], baseline_config(), 43).unwrap(),
        Some(&hostile_plan()),
    );
}

#[test]
fn feddf_resumes_bit_identically_under_hostile_faults() {
    assert_resumes_bit_identically(
        || FedDf::new(scenario(), client_spec(), baseline_config(), 47).unwrap(),
        Some(&hostile_plan()),
    );
}

#[test]
fn naive_kd_resumes_bit_identically_under_hostile_faults() {
    assert_resumes_bit_identically(
        || {
            NaiveKd::new(
                scenario(),
                vec![client_spec(); 3],
                server_spec(),
                baseline_config(),
                53,
            )
            .unwrap()
        },
        Some(&hostile_plan()),
    );
}

#[test]
fn fedet_resumes_bit_identically_under_hostile_faults() {
    assert_resumes_bit_identically(
        || {
            FedEt::new(
                scenario(),
                vec![client_spec(); 3],
                server_spec(),
                baseline_config(),
                59,
            )
            .unwrap()
        },
        Some(&hostile_plan()),
    );
}

#[test]
fn snapshot_telemetry_reports_the_length_of_the_stream() {
    // `SnapshotTaken.bytes` / `SnapshotRestored.bytes` are the size of the
    // byte stream this build writes and reads — what a checkpoint file of
    // the same state weighs — not of some other encoding of it.
    fn check<A: Federation>(make: impl Fn() -> A) {
        let mut algo = make();
        let _ = Driver::rounds(1).run_silent(&mut algo);
        let written = snapshot_of(&algo).len();
        let mut log = EventLog::new();
        let bytes = Driver::snapshot(&algo, &mut log);
        let _ = Driver::rounds(1)
            .resume(&mut make(), &bytes, &mut log)
            .expect("restore succeeds");
        assert_eq!(
            log.events()[..2],
            [
                TelemetryEvent::SnapshotTaken {
                    round: 1,
                    bytes: written
                },
                TelemetryEvent::SnapshotRestored {
                    round: 1,
                    bytes: written
                },
            ]
        );
    }
    check(fedpkd);
    check(|| FedAvg::new(scenario(), client_spec(), baseline_config(), 29).unwrap());
}

// ---- Streaming envelope: snapshot_to / restore_from. -------------------

#[test]
fn streaming_snapshot_round_trips_bit_identically() {
    let mut algo = fedpkd();
    let _ = Driver::rounds(1).run_silent(&mut algo);
    // Stream to an io::Write sink — no whole-fleet Vec<u8> staging beyond
    // the sink itself (which here is the test's capture buffer).
    let mut streamed = Vec::new();
    algo.snapshot_to(&mut streamed).expect("stream out");
    let mut revived = fedpkd();
    revived
        .restore_from(&mut streamed.as_slice())
        .expect("stream back");
    // The revived instance must be bit-identical: it writes the bytes it
    // was restored from, and carries on as the donor does.
    assert_eq!(snapshot_of(&revived), streamed);
    let full = Driver::rounds(1).run_silent(&mut algo);
    let resumed = Driver::rounds(1).run_silent(&mut revived);
    assert_eq!(resumed.history, full.history);
}

#[test]
fn v1_snapshot_bytes_are_an_unsupported_version() {
    let mut algo = fedpkd();
    let _ = Driver::rounds(1).run_silent(&mut algo);
    // The buffered envelope this codebase once wrote: magic, version 1,
    // name, one length-prefixed payload (the checksum is never reached).
    let mut v1_bytes = b"FPKD".to_vec();
    v1_bytes.extend_from_slice(&1u32.to_le_bytes());
    for field in [b"FedPKD".as_slice(), &payload_of(&algo)] {
        v1_bytes.extend_from_slice(&(field.len() as u64).to_le_bytes());
        v1_bytes.extend_from_slice(field);
    }
    assert_eq!(
        fedpkd().restore_from(&mut v1_bytes.as_slice()),
        Err(SnapshotError::UnsupportedVersion {
            found: 1,
            supported: snapshot::SNAPSHOT_STREAM_VERSION,
        })
    );
}

#[test]
fn streamed_snapshot_is_a_v2_envelope_and_smaller_machinery_rejects_damage() {
    let mut algo = fedpkd();
    let _ = Driver::rounds(1).run_silent(&mut algo);
    let mut bytes = Vec::new();
    algo.snapshot_to(&mut bytes).expect("stream out");
    assert_eq!(&bytes[..4], b"FPKD");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        snapshot::SNAPSHOT_STREAM_VERSION
    );
    // A payload bit-flip must surface at the trailing checksum.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert!(fedpkd().restore_from(&mut corrupt.as_slice()).is_err());
    // Every truncation must be a typed error, never a panic.
    for len in (0..bytes.len()).step_by(257) {
        let err = fedpkd()
            .restore_from(&mut bytes[..len].as_ref())
            .unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated
                    | SnapshotError::ChecksumMismatch
                    | SnapshotError::Malformed(_)
            ),
            "prefix of {len} bytes gave {err:?}"
        );
    }
}

#[test]
fn streamed_foreign_snapshot_is_rejected_by_name() {
    let mut donor = FedAvg::new(scenario(), client_spec(), baseline_config(), 61).unwrap();
    let _ = Driver::rounds(1).run_silent(&mut donor);
    let mut bytes = Vec::new();
    donor.snapshot_to(&mut bytes).expect("stream out");
    match fedpkd().restore_from(&mut bytes.as_slice()) {
        Err(SnapshotError::AlgorithmMismatch { expected, found }) => {
            assert_eq!(expected, "FedPKD");
            assert_eq!(found, "FedAvg");
        }
        other => panic!("expected AlgorithmMismatch, got {other:?}"),
    }
}

// ---- Failure contract: corrupt bytes yield typed errors, never panics. --

#[test]
fn every_truncation_of_a_real_snapshot_is_a_typed_error() {
    let mut algo = fedpkd();
    let _ = Driver::rounds(1).run_silent(&mut algo);
    let mut bytes = Vec::new();
    algo.snapshot_to(&mut bytes).expect("stream out");
    // Stride through prefixes (byte-by-byte would be slow on a model-sized
    // payload), then every cut inside the sentinel and checksum. Whatever
    // precedes a cut is valid, so the reader must run dry — never find
    // something malformed, never panic.
    let tail = bytes.len() - 16;
    for len in (0..tail).step_by(257).chain(tail..bytes.len()) {
        assert_eq!(
            fedpkd().restore_from(&mut bytes[..len].as_ref()),
            Err(SnapshotError::Truncated),
            "prefix of {len} bytes"
        );
    }
}

#[test]
fn bit_flips_in_a_real_snapshot_are_detected() {
    let mut algo = fedpkd();
    let _ = Driver::rounds(1).run_silent(&mut algo);
    let mut bytes = Vec::new();
    algo.snapshot_to(&mut bytes).expect("stream out");
    // The version, the name length, a payload byte, the checksum itself.
    for pos in [4, 8, bytes.len() / 2, bytes.len() - 1] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        // Most flips land in the payload and surface at the checksum;
        // flips inside the length fields can also surface as Truncated
        // or Malformed. All are typed; none may panic or restore.
        assert!(
            fedpkd().restore_from(&mut corrupt.as_slice()).is_err(),
            "flip at byte {pos} restored"
        );
    }
}

#[test]
fn corrupt_payload_restores_as_typed_error_not_panic() {
    let mut algo = fedpkd();
    let _ = Driver::rounds(1).run_silent(&mut algo);
    let good = payload_of(&algo);
    // Truncate the *payload* (then re-frame it correctly), so the envelope
    // decodes fine and the per-field readers must catch the damage.
    let clipped = stream_of("FedPKD", &good[..good.len() / 2]);
    let mut victim = fedpkd();
    let err = victim.restore_from(&mut clipped.as_slice()).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Truncated | SnapshotError::Malformed(_)),
        "got {err:?}"
    );
}

#[test]
fn foreign_snapshot_is_rejected_by_name() {
    let mut donor = FedAvg::new(scenario(), client_spec(), baseline_config(), 61).unwrap();
    let _ = Driver::rounds(1).run_silent(&mut donor);
    // Through the driver: the mismatch surfaces and nothing runs.
    let mut victim = fedpkd();
    let mut log = EventLog::new();
    match Driver::rounds(1).resume(&mut victim, &snapshot_of(&donor), &mut log) {
        Err(SnapshotError::AlgorithmMismatch { expected, found }) => {
            assert_eq!(expected, "FedPKD");
            assert_eq!(found, "FedAvg");
        }
        other => panic!("expected AlgorithmMismatch, got {other:?}"),
    }
    assert!(log.events().is_empty());
}

// ---- Version sniff: the data-free mode's state is presence-tagged. -----
//
// A snapshot that carries generator state must not restore through a
// public-mode configuration, nor a public-mode snapshot through a
// data-free one: the reader surfaces a typed error before consuming the
// payload, never a panic, never a silently half-applied restore.

/// Restoring `donor`'s one-round snapshot into `victim` must fail typed.
fn assert_cross_mode_restore_is_malformed(mut donor: FedPkd, mut victim: FedPkd) {
    let _ = Driver::rounds(1).run_silent(&mut donor);
    let bytes = snapshot_of(&donor);
    let err = victim.restore_from(&mut bytes.as_slice()).unwrap_err();
    assert!(matches!(err, SnapshotError::Malformed(_)), "got {err:?}");
}

#[test]
fn generated_snapshot_into_public_config_is_malformed_not_a_panic() {
    assert_cross_mode_restore_is_malformed(fedpkd_data_free(), fedpkd());
}

#[test]
fn public_snapshot_into_generated_config_is_malformed_not_a_panic() {
    assert_cross_mode_restore_is_malformed(fedpkd(), fedpkd_data_free());
}

#[test]
fn new_mode_snapshots_still_reject_foreign_algorithms_by_name() {
    let mut donor = FedAvg::new(scenario(), client_spec(), baseline_config(), 61).unwrap();
    let _ = Driver::rounds(1).run_silent(&mut donor);
    let mut bytes = Vec::new();
    donor.snapshot_to(&mut bytes).expect("stream out");
    for victim in [fedpkd(), fedpkd_data_free()] {
        let mut victim = victim;
        match victim.restore_from(&mut bytes.as_slice()) {
            Err(SnapshotError::AlgorithmMismatch { expected, found }) => {
                assert_eq!(expected, "FedPKD");
                assert_eq!(found, "FedAvg");
            }
            other => panic!("expected AlgorithmMismatch, got {other:?}"),
        }
    }
}

#[test]
fn truncations_of_a_new_mode_snapshot_are_typed_errors() {
    let mut donor = fedpkd_data_free();
    let _ = Driver::rounds(1).run_silent(&mut donor);
    let mut bytes = Vec::new();
    donor.snapshot_to(&mut bytes).expect("stream out");
    for len in (0..bytes.len()).step_by(257) {
        let err = fedpkd_data_free()
            .restore_from(&mut bytes[..len].as_ref())
            .unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated
                    | SnapshotError::ChecksumMismatch
                    | SnapshotError::Malformed(_)
            ),
            "prefix of {len} bytes gave {err:?}"
        );
    }
}

#[test]
fn wrong_fleet_size_is_rejected_as_malformed() {
    let mut donor = fedpkd();
    let _ = Driver::rounds(1).run_silent(&mut donor);
    let bytes = snapshot_of(&donor);
    // Same algorithm, different client count.
    let small = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(2)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(160)
        .public_size(80)
        .global_test_size(80)
        .seed(19)
        .build()
        .unwrap();
    let config = FedPkdConfig {
        client_private_epochs: 1,
        client_public_epochs: 1,
        server_epochs: 1,
        ..FedPkdConfig::default()
    };
    let mut victim = FedPkd::new(small, vec![client_spec(); 2], server_spec(), config, 23).unwrap();
    assert!(matches!(
        victim.restore_from(&mut bytes.as_slice()),
        Err(SnapshotError::Malformed(_))
    ));
}

// ---- Optimizer state is checked against the model it drives. -----------
//
// A checksum-valid snapshot whose Adam moments were taken for another
// architecture (another tier's client, a crafted payload) must fail the
// restore with a typed error. Before the check it restored fine and then
// trained a prefix of each weight against misaligned moments.

fn tier_spec(tier: DepthTier) -> ModelSpec {
    ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier,
    }
}

/// One client of `tier`, trained for an epoch so its optimizer carries
/// moments and a step count.
fn trained_client(tier: DepthTier) -> ClientState {
    let mut client = ClientPool::new(&[tier_spec(tier)], 0.003, 5).materialize(0);
    let data = &scenario().clients[0].train;
    train_supervised(
        &mut client.model,
        data,
        1,
        32,
        &mut client.optimizer,
        &mut client.rng,
    );
    assert!(client.optimizer.step_count() > 0);
    client
}

/// A fleet payload in `write_pool`'s layout, every client parked: the
/// count, the target pool's seed and learning rate, then per client its
/// flag, state, Adam state and RNG words.
fn fleet_bytes(seed: u64, learning_rate: f32, clients: &[ClientState]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.put_usize(clients.len());
    bytes.put_u64(seed);
    bytes.put_f32(learning_rate);
    for client in clients {
        bytes.put_bool(true);
        snapshot::write_model(&mut bytes, &client.model);
        snapshot::write_adam(&mut bytes, &client.optimizer);
        snapshot::write_rng(&mut bytes, &client.rng);
    }
    bytes
}

#[test]
fn another_tiers_optimizer_state_is_malformed_for_an_owned_client() {
    let mut chimera = trained_client(DepthTier::T11);
    chimera.optimizer = trained_client(DepthTier::T20).optimizer;
    let mut pool = ClientPool::new(&[tier_spec(DepthTier::T11)], 0.003, 5);
    let read = |mut bytes: &[u8], pool: &mut ClientPool| snapshot::read_pool(&mut bytes, pool);
    assert!(matches!(
        read(&fleet_bytes(5, 0.003, &[chimera]), &mut pool),
        Err(SnapshotError::Malformed(_))
    ));
    assert_eq!(pool.resident_clients(), 0, "slot untouched");
    // The same bytes with the client's own optimizer restore.
    read(
        &fleet_bytes(5, 0.003, &[trained_client(DepthTier::T11)]),
        &mut pool,
    )
    .unwrap();
    assert_eq!(pool.resident_clients(), 1);
}

#[test]
fn another_tiers_optimizer_state_is_malformed_for_a_pooled_fleet() {
    // FedPKD's payload, and every baseline's, opens with its fleet; client
    // 1 carries a T20 client's moments.
    let pool = ClientPool::new(&vec![client_spec(); 3], 0.001, 23);
    let mut fleet: Vec<_> = (0..3).map(|i| pool.materialize(i)).collect();
    fleet[1].optimizer = trained_client(DepthTier::T20).optimizer;
    let bytes = fleet_bytes(23, 0.003, &fleet);
    assert!(matches!(
        fedpkd().restore_from(&mut stream_of("FedPKD", &bytes).as_slice()),
        Err(SnapshotError::Malformed(_))
    ));
    let mut fedmd = FedMd::new(scenario(), vec![client_spec(); 3], baseline_config(), 23).unwrap();
    assert!(matches!(
        fedmd.restore_from(&mut stream_of("FedMD", &bytes).as_slice()),
        Err(SnapshotError::Malformed(_))
    ));
}

// ---- Restored prototypes pass the gate live uploads pass. --------------

/// Forwards to a payload buffer, except that the first counted
/// prototype vector it sees — `true, count, rank 1, dim, values`, the
/// entry layout of the stale-prototype cache; a global prototype has no
/// count — loses its last coordinate, in shape and data alike, so the
/// tensor itself still decodes; or, with `huge_count`, keeps its vector and
/// has its count replaced by `usize::MAX`.
#[derive(Default)]
struct ShortenOnePrototype {
    out: Vec<u8>,
    huge_count: bool,
    /// `put_usize` calls since the last other call, held back so the
    /// dimension can still be rewritten when the values arrive.
    held: Vec<usize>,
    after_true: bool,
    shortened: bool,
}

impl ShortenOnePrototype {
    fn flush(&mut self) {
        for v in self.held.drain(..) {
            self.out.put_usize(v);
        }
    }

    fn into_bytes(mut self) -> Vec<u8> {
        self.flush();
        self.out
    }
}

impl StateSink for ShortenOnePrototype {
    fn put_raw(&mut self, bytes: &[u8]) {
        self.flush();
        self.after_true = false;
        self.out.put_raw(bytes);
    }

    fn put_usize(&mut self, v: usize) {
        self.held.push(v);
    }

    fn put_bool(&mut self, v: bool) {
        self.flush();
        self.after_true = v;
        self.out.put_bool(v);
    }

    fn put_f32s(&mut self, mut vs: &[f32]) {
        let counted_vector = self.after_true
            && self.held.len() == 3
            && self.held[1] == 1
            && self.held[2] == vs.len();
        if counted_vector && !self.shortened {
            self.shortened = true;
            if self.huge_count {
                self.held[0] = usize::MAX;
            } else {
                self.held[2] -= 1;
                vs = &vs[..vs.len() - 1];
            }
        }
        self.flush();
        self.after_true = false;
        self.out.put_f32s(vs);
    }
}

#[test]
fn a_cached_prototype_of_the_wrong_width_is_malformed() {
    let mut algo = fedpkd();
    let _ = Driver::rounds(1).run_silent(&mut algo);
    // The sink forwards faithfully when it has nothing to shorten...
    let mut faithful = ShortenOnePrototype {
        shortened: true,
        ..Default::default()
    };
    algo.write_state(&mut faithful);
    assert_eq!(faithful.into_bytes(), payload_of(&algo));
    // ...and one short vector in the cache fails the restore: it would
    // otherwise enter Eq. 8 without meeting admission.
    let mut sink = ShortenOnePrototype::default();
    algo.write_state(&mut sink);
    assert!(sink.shortened, "round 0 cached somebody's prototypes");
    let crafted = stream_of("FedPKD", &sink.into_bytes());
    let err = fedpkd().restore_from(&mut crafted.as_slice()).unwrap_err();
    assert!(matches!(err, SnapshotError::Malformed(_)), "got {err:?}");
}

/// A restored count wider than the wire's `u32` would overflow Eq. 8's
/// per-class total at the next fold.
#[test]
fn a_cached_prototype_count_past_the_wire_width_is_malformed() {
    let mut algo = fedpkd();
    let _ = Driver::rounds(1).run_silent(&mut algo);
    let mut sink = ShortenOnePrototype {
        huge_count: true,
        ..Default::default()
    };
    algo.write_state(&mut sink);
    assert!(sink.shortened, "round 0 cached somebody's prototypes");
    let crafted = stream_of("FedPKD", &sink.into_bytes());
    let err = fedpkd().restore_from(&mut crafted.as_slice()).unwrap_err();
    assert!(matches!(err, SnapshotError::Malformed(_)), "got {err:?}");
}

#[test]
fn miscounted_moments_and_wrapping_step_counts_are_malformed() {
    let client = trained_client(DepthTier::T11);
    let (m, v) = client.optimizer.moments();
    // `write_adam`'s layout, with the fields under test substituted.
    let adam_bytes = |t: u64, m: &[Tensor], v: &[Tensor]| {
        let mut bytes = Vec::new();
        bytes.put_f32(0.003);
        bytes.put_u64(t);
        bytes.put_usize(m.len());
        for tensor in m.iter().chain(v) {
            snapshot::write_tensor(&mut bytes, tensor);
        }
        bytes
    };
    let read = |mut bytes: &[u8]| {
        let mut opt = Adam::new(0.5);
        snapshot::read_adam(&mut bytes, &mut opt, &client.model)
    };
    let t = client.optimizer.step_count();
    read(&adam_bytes(t, m, v)).unwrap();
    // A never-stepped optimizer has no moments at all.
    read(&adam_bytes(0, &[], &[])).unwrap();
    // One pair short: every later slot would meet the wrong moments.
    let short = m.len() - 1;
    assert!(matches!(
        read(&adam_bytes(t, &m[..short], &v[..short])),
        Err(SnapshotError::Malformed(_))
    ));
    // Right count, one pair in another parameter's shape.
    let mut swapped = m.to_vec();
    swapped.swap(0, 1);
    assert_ne!(swapped[0].shape(), m[0].shape());
    assert!(matches!(
        read(&adam_bytes(t, &swapped, v)),
        Err(SnapshotError::Malformed(_))
    ));
    // A step count the bias correction's `i32` power would wrap.
    for t in [i32::MAX as u64, 1 << 40, u64::MAX] {
        assert!(matches!(
            read(&adam_bytes(t, m, v)),
            Err(SnapshotError::Malformed(_))
        ));
    }
    assert_eq!(client.model.slot_count(), m.len());
}
