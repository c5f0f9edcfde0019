//! In-process serving tests: the engine, real clients, real sockets —
//! everything short of separate processes (which `tests/chaos.rs` covers).

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fleet::FleetSim;
use fedpkd_core::runtime::Federation;
use fedpkd_core::telemetry::{EventLog, NullObserver, TelemetryEvent};
use fedpkd_netsim::{CohortPolicy, Message, Wire};
use fedpkd_serve::client::{run_client, ClientConfig};
use fedpkd_serve::frame::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};
use fedpkd_serve::protocol::{Codec, Request, Response, KIND_UPLOAD};
use fedpkd_serve::server::{serve, ServeConfig};
use fedpkd_serve::transport::{Conn, Listener, Target};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedpkd-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn exchange(conn: &mut Conn, req: &Request) -> Response {
    write_frame(conn, req.kind(), &req.to_bytes()).unwrap();
    let (kind, body) = read_frame(conn, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
    Response::decode(kind, &body).unwrap().unwrap()
}

/// The core promise: a run served over a Unix socket to real (threaded)
/// clients commits byte-identical history, ledger, and model state to the
/// in-process simulation at the same seed.
#[test]
fn uds_served_run_is_bit_identical_to_in_process() {
    let rounds = 4;
    let build = || {
        DriverBuilder::new()
            .rounds(rounds)
            .cohort(CohortPolicy::Sample { size: 6, seed: 3 })
    };
    let mut reference_fed = FleetSim::new(8, 4, 8, 42);
    let reference = build().build().run_silent(&mut reference_fed);

    let dir = temp_dir("identity");
    let sock = dir.join("serve.sock");
    let listener = Listener::bind_uds(&sock).unwrap();
    let target = Target::Uds(sock.clone());

    let clients: Vec<_> = (0..8)
        .map(|client| {
            let target = target.clone();
            std::thread::spawn(move || {
                let replica = FleetSim::new(8, 4, 8, 42);
                let cfg = ClientConfig::new(client);
                let payload = |round: u64, client: usize| {
                    replica.client_payload(round as usize, client).to_bytes()
                };
                run_client(&target, &cfg, &payload, &mut NullObserver)
            })
        })
        .collect();

    let mut fed = FleetSim::new(8, 4, 8, 42);
    let cfg = ServeConfig {
        rounds,
        ..ServeConfig::default()
    };
    let mut log = EventLog::default();
    let report = serve(&mut fed, &build(), listener, &cfg, &mut log).unwrap();
    for client in clients {
        client.join().unwrap().unwrap();
    }

    assert_eq!(report.rounds_driven, rounds);
    assert_eq!(report.history, reference.history);
    assert_eq!(fed.driver().ledger(), &reference.ledger);
    assert_eq!(fed.centroids(), reference_fed.centroids());

    // The engine narrated its connections.
    let events = log.events();
    assert!(events.iter().any(
        |e| matches!(e, TelemetryEvent::ConnAccepted { transport, .. } if transport == "uds")
    ));
    assert!(events
        .iter()
        .any(|e| matches!(e, TelemetryEvent::ConnClosed { .. })));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Shedding: with one connection slot taken, a second connection gets one
/// `Overloaded` frame, and the engine emits `ServerOverloaded`.
#[test]
fn overloaded_connections_are_shed_with_a_retry_hint() {
    let dir = temp_dir("shed");
    let sock = dir.join("serve.sock");
    let listener = Listener::bind_uds(&sock).unwrap();
    let target = Target::Uds(sock.clone());

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let probe = {
        let target = target.clone();
        std::thread::spawn(move || {
            // Occupy the only slot.
            let mut held = target.connect().unwrap();
            held.set_io_deadline(Duration::from_secs(2)).unwrap();
            let resp = exchange(&mut held, &Request::Hello { client: 0 });
            assert!(matches!(resp, Response::Assignment { .. }));

            // The next connection is shed before any request.
            let mut shed = target.connect().unwrap();
            shed.set_io_deadline(Duration::from_secs(2)).unwrap();
            let (kind, body) = read_frame(&mut shed, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
            match Response::decode(kind, &body).unwrap().unwrap() {
                Response::Overloaded { retry_ms } => assert_eq!(retry_ms, 100),
                other => panic!("expected Overloaded, got {other:?}"),
            }
            drop(shed);

            // Finish the round over the held connection so serve returns.
            let replica = FleetSim::new(1, 4, 8, 9);
            let upload = Request::Upload {
                round: 0,
                client: 0,
                codec: Codec::Raw,
                payload: replica.client_payload(0, 0).to_bytes(),
            };
            assert!(matches!(
                exchange(&mut held, &upload),
                Response::Ack { round: 0 }
            ));
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        })
    };

    let mut fed = FleetSim::new(1, 4, 8, 9);
    let cfg = ServeConfig {
        rounds: 1,
        max_conns: 1,
        drain: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let mut log = EventLog::default();
    serve(
        &mut fed,
        &DriverBuilder::new().rounds(1),
        listener,
        &cfg,
        &mut log,
    )
    .unwrap();
    done_tx.send(()).unwrap();
    probe.join().unwrap();

    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, TelemetryEvent::ServerOverloaded { limit: 1, .. })));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission front door: corrupt frames, unknown kinds, and inadmissible
/// payloads are rejected with typed telemetry while the server keeps
/// serving honest clients.
#[test]
fn hostile_frames_and_payloads_are_rejected_and_narrated() {
    let dir = temp_dir("hostile");
    let sock = dir.join("serve.sock");
    let listener = Listener::bind_uds(&sock).unwrap();
    let target = Target::Uds(sock.clone());

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let probe = {
        let target = target.clone();
        std::thread::spawn(move || {
            // A frame with a corrupted checksum: typed rejection, then the
            // server drops the connection.
            let mut evil = target.connect().unwrap();
            evil.set_io_deadline(Duration::from_secs(2)).unwrap();
            let hello = Request::Hello { client: 0 };
            let mut frame = Vec::new();
            write_frame(&mut frame, hello.kind(), &hello.to_bytes()).unwrap();
            let last = frame.len() - 1;
            frame[last] ^= 0xFF;
            std::io::Write::write_all(&mut evil, &frame).unwrap();
            let (kind, body) = read_frame(&mut evil, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
            match Response::decode(kind, &body).unwrap().unwrap() {
                Response::Rejected { reason } => assert_eq!(reason, "checksum_mismatch"),
                other => panic!("expected Rejected, got {other:?}"),
            }
            drop(evil);

            // An intact frame with an unknown kind byte: rejected, but the
            // connection survives for a follow-up request.
            let mut odd = target.connect().unwrap();
            odd.set_io_deadline(Duration::from_secs(2)).unwrap();
            write_frame(&mut odd, 250, b"what").unwrap();
            let (kind, body) = read_frame(&mut odd, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
            match Response::decode(kind, &body).unwrap().unwrap() {
                Response::Rejected { reason } => assert_eq!(reason, "unknown_kind"),
                other => panic!("expected Rejected, got {other:?}"),
            }
            assert!(matches!(
                exchange(&mut odd, &Request::Hello { client: 0 }),
                Response::Assignment { .. }
            ));

            // An upload under a codec byte other than `Codec::Raw`'s is an
            // unknown request, and the connection survives it. The reply is
            // checked after the run, so a wrong one cannot stall the round.
            let mut body = Vec::new();
            body.extend_from_slice(&0u64.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
            body.push(1);
            body.extend_from_slice(&FleetSim::new(1, 4, 8, 5).client_payload(0, 0).to_bytes());
            write_frame(&mut odd, KIND_UPLOAD, &body).unwrap();
            let (kind, body) = read_frame(&mut odd, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
            let unknown_codec = Response::decode(kind, &body).unwrap().unwrap();
            assert!(matches!(
                exchange(&mut odd, &Request::Hello { client: 0 }),
                Response::Assignment { .. }
            ));

            // An inadmissible payload: wrong message kind for FleetSim.
            let upload = Request::Upload {
                round: 0,
                client: 0,
                codec: Codec::Raw,
                payload: Message::SampleSelection { ids: vec![1] }.to_bytes(),
            };
            match exchange(&mut odd, &upload) {
                Response::Rejected { reason } => assert_eq!(reason, "unexpected_payload"),
                other => panic!("expected Rejected, got {other:?}"),
            }

            // The honest upload still lands and completes the round —
            // and the rejected payload was not billed.
            let replica = FleetSim::new(1, 4, 8, 5);
            let upload = Request::Upload {
                round: 0,
                client: 0,
                codec: Codec::Raw,
                payload: replica.client_payload(0, 0).to_bytes(),
            };
            assert!(matches!(
                exchange(&mut odd, &upload),
                Response::Ack { round: 0 }
            ));
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
            unknown_codec
        })
    };

    let mut fed = FleetSim::new(1, 4, 8, 5);
    let cfg = ServeConfig {
        rounds: 1,
        drain: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let mut log = EventLog::default();
    let report = serve(
        &mut fed,
        &DriverBuilder::new().rounds(1),
        listener,
        &cfg,
        &mut log,
    )
    .unwrap();
    done_tx.send(()).unwrap();
    let unknown_codec = probe.join().unwrap();
    assert_eq!(
        unknown_codec,
        Response::Rejected {
            reason: "unknown_kind".to_string()
        }
    );

    use fedpkd_core::telemetry::FrameRejectCause;
    let causes: Vec<FrameRejectCause> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::FrameRejected { cause, .. } => Some(*cause),
            _ => None,
        })
        .collect();
    assert!(causes.contains(&FrameRejectCause::ChecksumMismatch));
    // The unknown kind byte and the unknown codec byte.
    assert_eq!(
        causes
            .iter()
            .filter(|&&c| c == FrameRejectCause::UnknownKind)
            .count(),
        2,
        "{causes:?}"
    );
    assert!(causes.contains(&FrameRejectCause::Inadmissible));
    // Only the honest upload was billed.
    let expected = FleetSim::new(1, 4, 8, 5).client_payload(0, 0).encoded_len();
    assert_eq!(report.total_bytes, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful degradation: with a round timeout, the round commits with
/// whichever cohort uploaded; the absent client is a `Deadline` drop.
#[test]
fn round_timeout_commits_with_partial_cohort() {
    let dir = temp_dir("degrade");
    let sock = dir.join("serve.sock");
    let listener = Listener::bind_uds(&sock).unwrap();
    let target = Target::Uds(sock.clone());

    // Clients 0..3 of 4 participate; client 3 never shows up.
    let clients: Vec<_> = (0..3)
        .map(|client| {
            let target = target.clone();
            std::thread::spawn(move || {
                let replica = FleetSim::new(4, 4, 8, 11);
                let cfg = ClientConfig::new(client);
                let payload = |round: u64, client: usize| {
                    replica.client_payload(round as usize, client).to_bytes()
                };
                run_client(&target, &cfg, &payload, &mut NullObserver)
            })
        })
        .collect();

    let mut fed = FleetSim::new(4, 4, 8, 11);
    let cfg = ServeConfig {
        rounds: 2,
        round_timeout: Some(Duration::from_millis(400)),
        ..ServeConfig::default()
    };
    let report = serve(
        &mut fed,
        &DriverBuilder::new().rounds(2),
        listener,
        &cfg,
        &mut NullObserver,
    )
    .unwrap();
    for client in clients {
        client.join().unwrap().unwrap();
    }

    assert_eq!(report.history.len(), 2);
    for metrics in &report.history {
        assert!(
            (metrics.participation_rate - 0.75).abs() < 1e-9,
            "round {} participation {}",
            metrics.round,
            metrics.participation_rate
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
