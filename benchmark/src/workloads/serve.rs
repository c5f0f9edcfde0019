//! `serve_uds`: a [`FleetSim`] federation served by `fedpkd_serve::serve`
//! over a Unix socket to two benchmark-owned lock-step clients, with the
//! history file and periodic snapshots on, then restart-from-snapshot
//! probes. Transport, codec, admission, fold, commit and fsync do all the
//! work and the tensor stack none — writes (history, snapshots) beside
//! reads (restore, repair).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fedpkd::prototypes::Prototype;
use fedpkd_core::fleet::FleetSim;
use fedpkd_core::remote::RemoteFederation;
use fedpkd_core::runtime::{Federation, RoundMetrics};
use fedpkd_core::telemetry::{RoundObserver, TelemetryEvent};
use fedpkd_netsim::{Message, Wire};
use fedpkd_serve::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_PAYLOAD};
use fedpkd_serve::history::{
    canonical_rounds, ledger_fingerprint, metrics_line, repair_history_file,
};
use fedpkd_serve::protocol::{Codec, Request, Response};
use fedpkd_serve::server::{serve, ServeConfig, ServeReport};
use fedpkd_serve::transport::{Conn, Listener, Target};
use fedpkd_tensor::Tensor;

use super::{
    history_fnv, measured_setup, peak_rss_mb, set_phase_metrics, set_round_metrics, trace_overhead,
    traced_rounds, Outcome, RunArgs, Scratch,
};
use crate::probes::{self, Prober, Upload};
use crate::span::{RoundClock, RoundSample, SpanRecorder};
use crate::stats::{median, percentile_sorted, sorted, tail_percentile};

/// Fleet size: both clients are invited every round.
const CLIENTS: usize = 2;
/// Prototype classes per upload.
const CLASSES: usize = 100;
/// Prototype width — about 26 KB per upload, `pkd_hetero`'s per-client uplink.
const DIMS: usize = 128;
/// Snapshot cadence of the served run.
const SNAPSHOT_EVERY: usize = 25;
/// Rounds a restarted server re-drives: the run stops this far past its
/// last snapshot, as a crash would.
const PAST_SNAPSHOT: usize = 10;
/// Restart-from-snapshot probes per run.
const RECOVERY_PROBES: usize = 15;
/// Turns the quiet and the traced server each take in a traced run.
const TRACE_CHUNKS: usize = 4;
/// How long an uninvited client waits before asking again.
const POLL: Duration = Duration::from_micros(200);

fn fleet(seed: u64) -> FleetSim {
    FleetSim::new(CLIENTS, CLASSES, DIMS, seed)
}

/// Total rounds: a whole number of snapshot periods plus [`PAST_SNAPSHOT`].
fn rounds(args: &RunArgs) -> usize {
    let periods = (args.rounds(600.0, 2 * SNAPSHOT_EVERY) / SNAPSHOT_EVERY).max(1);
    periods * SNAPSHOT_EVERY + PAST_SNAPSHOT
}

/// What one socket client saw.
#[derive(Debug, Default)]
struct ClientLog {
    /// Seconds of every Hello → Assignment exchange.
    hello: Vec<f64>,
    /// Seconds of every Upload → Ack exchange.
    upload: Vec<f64>,
    /// Hellos answered "not invited" (the client then sleeps [`POLL`]).
    polls: usize,
    /// Exchanges that failed, were rejected, or had to reconnect.
    failed: usize,
}

fn exchange(conn: &mut Conn, req: &Request) -> Result<Response, FrameError> {
    write_frame(conn, req.kind(), &req.to_bytes())?;
    match read_frame(conn, DEFAULT_MAX_PAYLOAD)? {
        None => Err(FrameError::Truncated),
        Some((kind, body)) => Response::decode(kind, &body)?.ok_or(FrameError::Truncated),
    }
}

/// A client before its first request: its config-only replica of the
/// federation and an open connection to the server's socket.
struct ClientStart {
    replica: FleetSim,
    conn: Conn,
}

impl ClientStart {
    fn new(sock: &Path, seed: u64) -> Self {
        Self {
            replica: fleet(seed),
            conn: Target::Uds(sock.to_path_buf())
                .connect()
                .expect("connect to the bound socket"),
        }
    }
}

/// One lock-step client: Hello, upload when invited, repeat until `done`.
fn client_loop(sock: &Path, start: ClientStart, client: usize) -> ClientLog {
    let ClientStart { replica, conn } = start;
    let target = Target::Uds(sock.to_path_buf());
    let mut log = ClientLog::default();
    let mut ready = Some(conn);
    'reconnect: loop {
        let mut conn = match ready.take().map_or_else(|| target.connect(), Ok) {
            Ok(conn) => conn,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        let _ = conn.set_io_deadline(Duration::from_secs(2));
        loop {
            let started = Instant::now();
            let hello = Request::Hello {
                client: client as u32,
            };
            let round = match exchange(&mut conn, &hello) {
                Ok(Response::Assignment { done: true, .. }) => return log,
                Ok(Response::Assignment {
                    invited: true,
                    round,
                    ..
                }) => {
                    log.hello.push(started.elapsed().as_secs_f64());
                    round
                }
                Ok(Response::Assignment { .. }) => {
                    log.hello.push(started.elapsed().as_secs_f64());
                    log.polls += 1;
                    std::thread::sleep(POLL);
                    continue;
                }
                Ok(_) | Err(_) => {
                    log.failed += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue 'reconnect;
                }
            };
            let upload = Request::Upload {
                round,
                client: client as u32,
                codec: Codec::Raw,
                payload: replica.client_payload(round as usize, client).to_bytes(),
            };
            let started = Instant::now();
            match exchange(&mut conn, &upload) {
                Ok(Response::Ack { .. }) => log.upload.push(started.elapsed().as_secs_f64()),
                Ok(Response::Stale { .. }) => log.failed += 1,
                Ok(_) | Err(_) => {
                    log.failed += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue 'reconnect;
                }
            }
        }
    }
}

/// One served run's yield.
struct Served {
    report: ServeReport,
    /// Rounds as the observer saw them, re-based so a round lasts from the
    /// previous commit to its own (what a client waits for).
    rounds: Vec<RoundSample>,
    /// Listener bound → last commit, in seconds.
    wall: f64,
    logs: Vec<ClientLog>,
    rejected: usize,
}

/// Everything a served run has in place before round 0, built the way
/// the `fedpkd-serve` and `fedpkd-client` binaries start: the federation,
/// a look for a snapshot to restore and a history to repair (neither is
/// there on a fresh start), the bound socket, and every client connected.
struct Deployment {
    fed: FleetSim,
    listener: Listener,
    sock: PathBuf,
    clients: Vec<ClientStart>,
}

impl Deployment {
    fn start(cfg: &ServeConfig, sock: PathBuf, seed: u64) -> Self {
        let mut fed = fleet(seed);
        let snapshot = cfg.snapshot_path.as_ref().expect("snapshots are on");
        if let Ok(mut file) = std::fs::File::open(snapshot) {
            fed.restore_from(&mut file).expect("restore snapshot");
        }
        let history = cfg.history_path.as_ref().expect("history is on");
        repair_history_file(history).expect("repair history");
        Self::around(fed, sock, seed)
    }

    /// Binds `sock` and connects every client around an existing federation.
    fn around(fed: FleetSim, sock: PathBuf, seed: u64) -> Self {
        let listener = Listener::bind_uds(&sock).expect("bind uds");
        let clients = (0..CLIENTS)
            .map(|_| ClientStart::new(&sock, seed))
            .collect();
        Self {
            fed,
            listener,
            sock,
            clients,
        }
    }
}

/// Serves `cfg.rounds` rounds of a started deployment, returning what
/// the run yielded and the federation it left.
fn serve_run(
    deployment: Deployment,
    cfg: &ServeConfig,
    clock: &mut RoundClock<'_>,
) -> (Served, FleetSim) {
    let Deployment {
        mut fed,
        listener,
        sock,
        clients,
    } = deployment;
    let (fed_ref, sock_ref) = (&mut fed, sock.as_path());
    let builder = DriverBuilder::new().rounds(cfg.rounds);
    let began = Instant::now();
    let (report, logs) = std::thread::scope(|scope| {
        let clients: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, start)| scope.spawn(move || client_loop(sock_ref, start, c)))
            .collect();
        let report = serve(fed_ref, &builder, listener, cfg, clock).expect("serve");
        let logs = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        (report, logs)
    });
    let mut rounds = std::mem::take(&mut clock.rounds);
    let mut previous = began;
    for round in &mut rounds {
        round.start = previous;
        previous = round.end;
    }
    let served = Served {
        report,
        wall: previous.duration_since(began).as_secs_f64(),
        rounds,
        logs,
        rejected: clock.rejected,
    };
    (served, fed)
}

/// A served run that advances a chunk of rounds at a time: each chunk is
/// one `serve` call that picks the federation up where the last left it,
/// on a fresh socket with freshly connected clients.
struct Leg {
    dir: PathBuf,
    chunks: usize,
    fed: Option<FleetSim>,
    served: Option<Served>,
}

impl Leg {
    fn new(dir: PathBuf) -> Self {
        std::fs::create_dir_all(&dir).expect("create leg directory");
        Self {
            dir,
            chunks: 0,
            fed: None,
            served: None,
        }
    }

    /// Serves on until `upto` rounds have committed.
    fn advance(&mut self, upto: usize, seed: u64, clock: &mut RoundClock<'_>) {
        let cfg = serve_config(&self.dir, upto);
        self.chunks += 1;
        let sock = self.dir.join(format!("s{}.sock", self.chunks));
        let deployment = match self.fed.take() {
            None => Deployment::start(&cfg, sock, seed),
            Some(fed) => Deployment::around(fed, sock, seed),
        };
        let (chunk, fed) = serve_run(deployment, &cfg, clock);
        self.fed = Some(fed);
        self.served = Some(match self.served.take() {
            None => chunk,
            Some(mut so_far) => {
                so_far.report.history.extend(chunk.report.history);
                so_far.report = ServeReport {
                    history: so_far.report.history,
                    ..chunk.report
                };
                so_far.rounds.extend(chunk.rounds);
                so_far.logs.extend(chunk.logs);
                so_far.wall += chunk.wall;
                so_far.rejected = chunk.rejected;
                so_far
            }
        });
    }

    fn finish(self) -> (Served, FleetSim) {
        (
            self.served.expect("at least one chunk"),
            self.fed.expect("at least one chunk"),
        )
    }
}

fn serve_config(dir: &Path, rounds: usize) -> ServeConfig {
    ServeConfig {
        rounds,
        snapshot_every: Some(SNAPSHOT_EVERY),
        snapshot_path: Some(dir.join("fleet.snap")),
        history_path: Some(dir.join("history.jsonl")),
        ..ServeConfig::default()
    }
}

/// The in-process driver over the same federation: the oracle.
struct Reference {
    lines: Vec<String>,
    ledger_fnv: u64,
    seconds: f64,
}

fn reference(seed: u64, rounds: usize) -> Reference {
    let started = Instant::now();
    let result = DriverBuilder::new()
        .rounds(rounds)
        .build()
        .run_silent(&mut fleet(seed));
    Reference {
        seconds: started.elapsed().as_secs_f64(),
        lines: result.history.iter().map(metrics_line).collect(),
        ledger_fnv: ledger_fingerprint(&result.ledger),
    }
}

/// Records only when the first round commits.
struct FirstCommit(Option<Instant>);

impl RoundObserver for FirstCommit {
    fn record(&mut self, event: &TelemetryEvent) {
        if self.0.is_none() && matches!(event, TelemetryEvent::RoundEnd { .. }) {
            self.0 = Some(Instant::now());
        }
    }

    fn enabled(&self) -> bool {
        false
    }
}

/// What the restart probes measured.
#[derive(Default)]
struct Recovery {
    /// Restart → first committed round, per probe.
    seconds: Vec<f64>,
    /// `restore_from` alone.
    restore: Vec<f64>,
    /// `repair_history_file` alone (one torn line to drop).
    repair: Vec<f64>,
    /// Probes whose re-driven history was canonical and equal to the oracle.
    canonical: usize,
    failed: usize,
}

/// Restarts the served run from its last snapshot [`RECOVERY_PROBES`]
/// times. Each probe recreates the crash: the history as it stood when the
/// snapshot was written, plus a torn final line.
fn recovery_probes(dir: &Path, seed: u64, total: usize, oracle: &Reference) -> Recovery {
    let cfg = serve_config(dir, total);
    let snapshot = cfg.snapshot_path.clone().expect("snapshots are on");
    let history = cfg.history_path.clone().expect("history is on");
    let crashed_at = total - PAST_SNAPSHOT;
    let full = std::fs::read_to_string(&history).expect("served history");
    let survived: String = full
        .lines()
        .take(crashed_at)
        .flat_map(|line| [line, "\n"])
        .collect::<String>()
        + "{\"round\":";
    let mut out = Recovery::default();
    for probe in 0..RECOVERY_PROBES {
        std::fs::write(&history, &survived).expect("recreate crashed history");
        let sock = dir.join(format!("r{probe}.sock"));
        let restarted = Instant::now();
        let mut fed = fleet(seed);
        fed.restore_from(&mut std::io::BufReader::new(
            std::fs::File::open(&snapshot).expect("open snapshot"),
        ))
        .expect("restore snapshot");
        out.restore.push(restarted.elapsed().as_secs_f64());
        let repairing = Instant::now();
        let torn = repair_history_file(&history).expect("repair history");
        out.repair.push(repairing.elapsed().as_secs_f64());
        let listener = Listener::bind_uds(&sock).expect("bind uds");
        let builder = DriverBuilder::new().rounds(total);
        let mut first = FirstCommit(None);
        let (report, failed) = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let sock = sock.as_path();
                    scope.spawn(move || client_loop(sock, ClientStart::new(sock, seed), c))
                })
                .collect();
            let report = serve(&mut fed, &builder, listener, &cfg, &mut first).expect("serve");
            let failed: usize = clients
                .into_iter()
                .map(|c| c.join().expect("client thread").failed)
                .sum();
            (report, failed)
        });
        out.failed += failed;
        if let Some(at) = first.0 {
            out.seconds.push(at.duration_since(restarted).as_secs_f64());
        }
        let text = std::fs::read_to_string(&history).expect("resumed history");
        let canonical = canonical_rounds(&text).is_ok_and(|lines| lines == oracle.lines);
        if torn && canonical && report.ledger_fnv == oracle.ledger_fnv {
            out.canonical += 1;
        }
    }
    out
}

fn exchange_fields(out: &mut Outcome, logs: &[ClientLog], rounds: usize) -> Exchanges {
    let hello: Vec<f64> = logs.iter().flat_map(|l| l.hello.iter().copied()).collect();
    let upload: Vec<f64> = logs.iter().flat_map(|l| l.upload.iter().copied()).collect();
    let all: Vec<f64> = hello.iter().chain(&upload).copied().collect();
    let polls: usize = logs.iter().map(|l| l.polls).sum();
    let ex = Exchanges {
        p50_ms: median(&all) * 1e3,
        tail: tail_percentile(&all).map(|(p, v)| (p, v * 1e3)),
        hello_p50_ms: median(&hello) * 1e3,
        upload_p50_ms: median(&upload) * 1e3,
        upload_p99_ms: percentile_sorted(&sorted(&upload), 9_900) * 1e3,
        polls_per_round: polls as f64 / rounds as f64,
        useful_ratio: (all.len() - polls) as f64 / all.len().max(1) as f64,
        count: all.len(),
    };
    out.field("exchanges", ex.count);
    out.field("exchange_p50_ms", ex.p50_ms);
    if let Some((p, value)) = ex.tail {
        out.field("exchange_tail_percentile", p);
        out.field("exchange_tail_ms", value);
    }
    ex
}

struct Exchanges {
    p50_ms: f64,
    tail: Option<(f64, f64)>,
    hello_p50_ms: f64,
    upload_p50_ms: f64,
    upload_p99_ms: f64,
    polls_per_round: f64,
    useful_ratio: f64,
    count: usize,
}

fn served_matches(report: &ServeReport, oracle: &Reference) -> bool {
    report
        .history
        .iter()
        .map(metrics_line)
        .eq(oracle.lines.iter().cloned())
        && report.ledger_fnv == oracle.ledger_fnv
}

/// Timed `serve_uds`.
pub fn timed(args: &RunArgs) -> Outcome {
    let total = rounds(args);
    let scratch = Scratch::new("serve");
    let dir = scratch.0.clone();
    let cfg = serve_config(&dir, total);
    let mut attempt = 0usize;
    let mut out = Outcome::default();
    let deployment = measured_setup(&mut out, || {
        attempt += 1;
        Deployment::start(&cfg, dir.join(format!("s{attempt}.sock")), args.seed)
    });
    let oracle = reference(args.seed, total);

    let mut clock = RoundClock::timed();
    let (served, _) = serve_run(deployment, &cfg, &mut clock);
    let rss = peak_rss_mb();
    let recovery = recovery_probes(&dir, args.seed, total, &oracle);

    set_round_metrics(
        &mut out,
        &[&served.rounds],
        served.wall,
        served.report.total_bytes,
    );
    out.metrics.set("peak_rss_mb", rss);
    out.metrics.set(
        "final_accuracy",
        served
            .report
            .history
            .last()
            .and_then(|m| m.server_accuracy)
            .unwrap_or(0.0),
    );
    let ex = exchange_fields(&mut out, &served.logs, total);
    out.attempted = (ex.count + RECOVERY_PROBES) as u64;
    out.failed += (served.logs.iter().map(|l| l.failed).sum::<usize>()
        + served.rejected
        + recovery.failed) as u64;
    out.gate(
        "served_matches_in_process",
        served_matches(&served.report, &oracle),
    );
    out.gate(
        "resumed_probes_canonical",
        recovery.canonical == RECOVERY_PROBES,
    );
    out.field("recovery_p50_ms", median(&recovery.seconds) * 1e3);
    out.field("recovery_samples", recovery.seconds.len());
    out.field("in_process_s", oracle.seconds);
    out.field(
        "history_fnv",
        history_fnv(&served.report.history, served.report.ledger_fnv),
    );
    out.field(
        "history_prefix_fnv",
        history_fnv(&served.report.history[..traced_rounds(total)], 0),
    );
    out
}

/// Traced `serve_uds`.
pub fn traced(args: &RunArgs, spans: &mut SpanRecorder) -> Outcome {
    let total = rounds(args);
    let traced_total = traced_rounds(total);
    let scratch = Scratch::new("serve-trace");
    let dir = scratch.0.clone();
    let mut out = Outcome::default();
    let oracle = reference(args.seed, traced_total);

    // The same rounds served twice, observer off and on, the two servers
    // taking turns a chunk of rounds at a time so both see the same host
    // weather (see `alternate` for the in-process version of this).
    let run = spans.open("run");
    let mut quiet_leg = Leg::new(dir.join("quiet"));
    let mut traced_leg = Leg::new(dir.join("traced"));
    let mut quiet_clock = RoundClock::timed();
    let mut traced_clock = RoundClock::traced(spans);
    for chunk in 1..=TRACE_CHUNKS {
        let upto = traced_total * chunk / TRACE_CHUNKS;
        // Take turns going first, as `alternate` does.
        if chunk % 2 == 1 {
            quiet_leg.advance(upto, args.seed, &mut quiet_clock);
            traced_leg.advance(upto, args.seed, &mut traced_clock);
        } else {
            traced_leg.advance(upto, args.seed, &mut traced_clock);
            quiet_leg.advance(upto, args.seed, &mut quiet_clock);
        }
    }
    let (quiet, _) = quiet_leg.finish();
    let (served, fed) = traced_leg.finish();
    out.gate(
        "observer_transparent",
        served_matches(&served.report, &oracle) && served_matches(&quiet.report, &oracle),
    );

    set_phase_metrics(&mut out.metrics, &[&served.rounds]);
    out.metrics.set(
        "bench.trace_overhead_frac",
        trace_overhead(&[&quiet.rounds], &[&served.rounds]),
    );
    let ex = exchange_fields(&mut out, &served.logs, traced_total);
    out.metrics.set("serve.exchange.p50_ms", ex.p50_ms);
    out.metrics
        .set("serve.exchange.tail_ms", ex.tail.map_or(0.0, |(_, v)| v));
    out.metrics
        .set("serve.exchange.hello_p50_ms", ex.hello_p50_ms);
    out.metrics
        .set("serve.exchange.upload_p50_ms", ex.upload_p50_ms);
    out.metrics
        .set("serve.exchange.upload_p99_ms", ex.upload_p99_ms);
    out.metrics
        .set("serve.client.polls_per_round", ex.polls_per_round);
    out.metrics
        .set("serve.client.useful_exchange_ratio", ex.useful_ratio);
    out.metrics.set(
        "serve.overhead_x",
        served.wall / traced_total as f64 / (oracle.seconds / traced_total as f64),
    );
    out.metrics
        .set("core.admission.rejected", served.rejected as f64);

    // Restart probes need a run that stopped past its last snapshot.
    let probe_total = (traced_total / SNAPSHOT_EVERY).max(1) * SNAPSHOT_EVERY + PAST_SNAPSHOT;
    let probe_oracle = reference(args.seed, probe_total);
    let probe_dir = dir.join("crash");
    std::fs::create_dir_all(&probe_dir).expect("create probe directory");
    {
        let cfg = serve_config(&probe_dir, probe_total);
        let deployment = Deployment::start(&cfg, probe_dir.join("s.sock"), args.seed);
        serve_run(deployment, &cfg, &mut RoundClock::timed());
    }
    let recovery = spans.scope("probe.serve.recovery", |_| {
        recovery_probes(&probe_dir, args.seed, probe_total, &probe_oracle)
    });
    out.gate(
        "resumed_probes_canonical",
        recovery.canonical == RECOVERY_PROBES,
    );
    out.metrics
        .set("serve.recovery.p50_ms", median(&recovery.seconds) * 1e3);
    out.metrics
        .set("serve.recovery.restore_ms", median(&recovery.restore) * 1e3);
    out.metrics
        .set("serve.history.repair_ms", median(&recovery.repair) * 1e3);
    out.attempted = (ex.count
        + quiet
            .logs
            .iter()
            .map(|l| l.hello.len() + l.upload.len())
            .sum::<usize>()
        + RECOVERY_PROBES) as u64;
    out.failed += (served
        .logs
        .iter()
        .chain(&quiet.logs)
        .map(|l| l.failed)
        .sum::<usize>()
        + served.rejected
        + quiet.rejected
        + recovery.failed) as u64;

    let mut p = Prober::new(spans, &mut out.metrics, args.smoke);
    let payload = fed.client_payload(0, 0);
    let upload = Upload {
        logits: Tensor::zeros(&[0, CLASSES]),
        prototypes: prototypes_of(&payload),
    };
    probes::admission_probes(&mut p, &upload, CLASSES);
    probes::netsim_probes(&mut p, &upload, fed.driver().ledger(), CLIENTS);
    serve_probes(&mut p, &payload, &fed, &dir, served.report.history.last());
    spans.close(run);

    out.field("rounds", traced_total);
    out.field("history_fnv", history_fnv(&served.report.history, 0));
    out
}

/// The prototypes a wire payload carries, in the form the server folds.
fn prototypes_of(payload: &Message) -> Vec<Option<Prototype>> {
    let Message::Prototypes { entries } = payload else {
        panic!("FleetSim uploads prototypes");
    };
    let mut protos: Vec<Option<Prototype>> = vec![None; CLASSES];
    for entry in entries {
        protos[entry.class as usize] = Some(Prototype {
            count: entry.count as usize,
            vector: Tensor::from_vec(entry.vector.clone(), &[entry.vector.len()])
                .expect("one-dimensional vector"),
        });
    }
    protos
}

/// `serve.frame/protocol/transport/history/persist`: the pieces under one
/// exchange and one commit.
fn serve_probes(
    p: &mut Prober<'_>,
    payload: &Message,
    fed: &FleetSim,
    dir: &Path,
    last_round: Option<&RoundMetrics>,
) {
    let request = Request::Upload {
        round: 0,
        client: 0,
        codec: Codec::Raw,
        payload: payload.to_bytes(),
    };
    p.measure("serve.protocol.encode_us", 1e6, || request.to_bytes());
    let body = request.to_bytes();
    p.measure("serve.protocol.decode_us", 1e6, || {
        Request::decode(request.kind(), &body).expect("own encoding")
    });
    let mut framed = Vec::with_capacity(body.len() + 64);
    p.measure("serve.frame.write_us", 1e6, || {
        framed.clear();
        write_frame(&mut framed, request.kind(), &body).expect("write to memory");
    });
    p.measure("serve.frame.read_us", 1e6, || {
        read_frame(&mut framed.as_slice(), DEFAULT_MAX_PAYLOAD).expect("own frame")
    });

    // One small frame there and back across a real Unix socket, against a
    // peer that only echoes: the floor under every exchange.
    let sock = dir.join("echo.sock");
    let listener = Listener::bind_uds(&sock).expect("bind uds");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut conn = listener.accept().expect("accept echo peer");
            while let Ok(Some((kind, body))) = read_frame(&mut conn, DEFAULT_MAX_PAYLOAD) {
                if write_frame(&mut conn, kind, &body).is_err() {
                    break;
                }
            }
        });
        let mut conn = Target::Uds(sock.clone())
            .connect()
            .expect("connect echo peer");
        let hello = Request::Hello { client: 0 };
        let hello_body = hello.to_bytes();
        p.measure("serve.transport.frame_rtt_us", 1e6, || {
            write_frame(&mut conn, hello.kind(), &hello_body).expect("send");
            read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).expect("echo")
        });
        // Dropping `conn` ends the echo thread's read loop.
    });

    // What every commit appends and syncs, and what every snapshot period
    // streams, syncs and renames — as the engine does them.
    let line = last_round.map(metrics_line).unwrap_or_default();
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("probe-history.jsonl"))
        .expect("open probe history");
    p.measure("serve.history.line_us", 1e6, || {
        history.write_all(line.as_bytes()).expect("append");
        history.write_all(b"\n").expect("append");
        history.sync_all().expect("fsync history");
    });
    let (tmp, path) = (dir.join("probe.snap-tmp"), dir.join("probe.snap"));
    p.measure("serve.persist.snapshot_fsync_ms", 1e3, || {
        let mut file = std::fs::File::create(&tmp).expect("create snapshot");
        fed.snapshot_to(&mut file).expect("stream snapshot");
        file.sync_all().expect("fsync snapshot");
        std::fs::rename(&tmp, &path).expect("rename snapshot");
    });
}
