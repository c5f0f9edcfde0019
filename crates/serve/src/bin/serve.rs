//! `fedpkd-serve` — serve a FleetSim federation over TCP or a Unix
//! domain socket.
//!
//! ```text
//! fedpkd-serve --uds /tmp/fedpkd.sock --rounds 6 --fleet 8 --classes 4 \
//!     --dims 8 --seed 42 --snapshot /tmp/fedpkd.snap --snapshot-every 2 \
//!     --history /tmp/fedpkd-history.jsonl
//! ```
//!
//! On startup the server repairs the history file (dropping a partial
//! line a killed predecessor left mid-write) and, if the snapshot file
//! exists, restores it and continues from the captured round — the
//! `kill -9` recovery path is just "run the same command again".

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fleet::FleetSim;
use fedpkd_core::runtime::Federation;
use fedpkd_core::telemetry::{JsonlSink, NullObserver, RoundObserver};
use fedpkd_netsim::{CohortPolicy, Deadline};
use fedpkd_serve::history::repair_history_file;
use fedpkd_serve::server::{serve, ServeConfig};
use fedpkd_serve::transport::Listener;

struct Args {
    uds: Option<PathBuf>,
    tcp: Option<String>,
    rounds: usize,
    fleet: usize,
    classes: usize,
    dims: usize,
    seed: u64,
    cohort_size: Option<usize>,
    cohort_seed: u64,
    snapshot: Option<PathBuf>,
    snapshot_every: Option<usize>,
    history: Option<PathBuf>,
    io_deadline_secs: f64,
    max_conns: usize,
    round_timeout_ms: Option<u64>,
    telemetry: Option<PathBuf>,
}

const USAGE: &str = "fedpkd-serve (--uds PATH | --tcp ADDR) --rounds N \
    [--fleet N] [--classes N] [--dims N] [--seed N] \
    [--cohort-size N] [--cohort-seed N] \
    [--snapshot PATH] [--snapshot-every N] [--history PATH] \
    [--io-deadline SECS] [--max-conns N] [--round-timeout-ms N] \
    [--telemetry PATH]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        uds: None,
        tcp: None,
        rounds: 0,
        fleet: 8,
        classes: 4,
        dims: 8,
        seed: 42,
        cohort_size: None,
        cohort_seed: 7,
        snapshot: None,
        snapshot_every: None,
        history: None,
        io_deadline_secs: 2.0,
        max_conns: 64,
        round_timeout_ms: None,
        telemetry: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\nusage: {USAGE}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
        }
        match flag.as_str() {
            "--uds" => args.uds = Some(PathBuf::from(value()?)),
            "--tcp" => args.tcp = Some(value()?),
            "--rounds" => args.rounds = num(&flag, value()?)?,
            "--fleet" => args.fleet = num(&flag, value()?)?,
            "--classes" => args.classes = num(&flag, value()?)?,
            "--dims" => args.dims = num(&flag, value()?)?,
            "--seed" => args.seed = num(&flag, value()?)?,
            "--cohort-size" => args.cohort_size = Some(num(&flag, value()?)?),
            "--cohort-seed" => args.cohort_seed = num(&flag, value()?)?,
            "--snapshot" => args.snapshot = Some(PathBuf::from(value()?)),
            "--snapshot-every" => args.snapshot_every = Some(num(&flag, value()?)?),
            "--history" => args.history = Some(PathBuf::from(value()?)),
            "--io-deadline" => args.io_deadline_secs = num(&flag, value()?)?,
            "--max-conns" => args.max_conns = num(&flag, value()?)?,
            "--round-timeout-ms" => args.round_timeout_ms = Some(num(&flag, value()?)?),
            "--telemetry" => args.telemetry = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag}\nusage: {USAGE}")),
        }
    }
    if args.rounds == 0 {
        return Err(format!("--rounds must be positive\nusage: {USAGE}"));
    }
    if args.uds.is_some() == args.tcp.is_some() {
        return Err(format!("pass exactly one of --uds / --tcp\nusage: {USAGE}"));
    }
    // What `Deadline::from_secs` and the socket timeouts built from it
    // would otherwise panic on: NaN, ≤ 0, beyond `Duration`'s range.
    if !Duration::try_from_secs_f64(args.io_deadline_secs).is_ok_and(|d| !d.is_zero()) {
        return Err(format!(
            "--io-deadline must be a positive number of seconds\nusage: {USAGE}"
        ));
    }
    // With no connection slot every client is shed and no round can commit.
    if args.max_conns == 0 {
        return Err(format!("--max-conns must be at least 1\nusage: {USAGE}"));
    }
    // A zero round timeout commits every round degraded before any upload
    // can land: the run would complete having served nothing.
    if args.round_timeout_ms == Some(0) {
        return Err(format!(
            "--round-timeout-ms must be at least 1\nusage: {USAGE}"
        ));
    }
    // A cadence with nowhere to write would run to completion having
    // persisted nothing, while the operator believes the run is crash-safe.
    if args.snapshot_every.is_some() && args.snapshot.is_none() {
        return Err(format!(
            "--snapshot-every needs --snapshot PATH\nusage: {USAGE}"
        ));
    }
    // Nor may a cadence of 0: no round past the first is a multiple of it,
    // so the run would never write a snapshot.
    if args.snapshot_every == Some(0) {
        return Err(format!(
            "--snapshot-every must be at least 1\nusage: {USAGE}"
        ));
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    let mut fleet = FleetSim::new(args.fleet, args.classes, args.dims, args.seed);
    if let Some(snapshot) = &args.snapshot {
        match std::fs::File::open(snapshot) {
            Ok(mut file) => {
                fleet
                    .restore_from(&mut file)
                    .map_err(|e| format!("restoring {}: {e}", snapshot.display()))?;
                eprintln!(
                    "fedpkd-serve: restored snapshot at round {}",
                    fleet.driver().rounds_driven()
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("opening {}: {e}", snapshot.display())),
        }
    }
    if let Some(history) = &args.history {
        if repair_history_file(history).map_err(|e| e.to_string())? {
            eprintln!("fedpkd-serve: dropped a partial history line left by a crash");
        }
    }

    let mut builder = DriverBuilder::new().rounds(args.rounds);
    if let Some(size) = args.cohort_size {
        builder = builder.cohort(CohortPolicy::Sample {
            size,
            seed: args.cohort_seed,
        });
    }

    let cfg = ServeConfig {
        rounds: args.rounds,
        snapshot_every: args.snapshot_every,
        snapshot_path: args.snapshot.clone(),
        history_path: args.history.clone(),
        io_deadline: Deadline::from_secs(args.io_deadline_secs),
        max_conns: args.max_conns,
        round_timeout: args.round_timeout_ms.map(Duration::from_millis),
        ..ServeConfig::default()
    };

    let listener = match (&args.uds, &args.tcp) {
        (Some(path), None) => {
            Listener::bind_uds(path).map_err(|e| format!("binding {}: {e}", path.display()))?
        }
        (None, Some(addr)) => {
            Listener::bind_tcp(addr).map_err(|e| format!("binding {addr}: {e}"))?
        }
        _ => unreachable!("parse_args enforces exactly one transport"),
    };

    let mut telemetry = match &args.telemetry {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            Some(JsonlSink::new(file))
        }
        None => None,
    };
    let obs: &mut dyn RoundObserver = match &mut telemetry {
        Some(sink) => sink,
        None => &mut NullObserver,
    };

    let report = serve(&mut fleet, &builder, listener, &cfg, obs).map_err(|e| e.to_string())?;
    eprintln!(
        "fedpkd-serve: run complete at round {} ({} bytes, ledger fnv {:016x})",
        report.rounds_driven, report.total_bytes, report.ledger_fnv
    );
    // A failed write does not stop the run (the sink counts the events it
    // drops from then on), but the trace asked for is incomplete, so the
    // command fails with that count.
    if let (Some(sink), Some(path)) = (telemetry, &args.telemetry) {
        sink.into_inner()
            .map_err(|e| format!("--telemetry {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fedpkd-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
