//! `fedpkd-client` — one client of the served `FleetSim` federation over
//! TCP or a Unix domain socket (FedPKD itself crossing the socket is
//! ROADMAP item 1b-ii).
//!
//! ```text
//! fedpkd-client --uds /tmp/fedpkd.sock --client 3 --fleet 8 --classes 4 \
//!     --dims 8 --seed 42
//! ```
//!
//! The fleet/classes/dims/seed flags must match the server's: they build
//! the config-only [`FleetSim`] replica whose
//! [`client_payload`](fedpkd_core::fleet::FleetSim::client_payload)
//! is a pure function of `(seed, round, client)`, which is why this
//! process can compute the exact bytes the in-process simulation would
//! have charged. The client rides out server restarts with seeded
//! exponential backoff and exits when the server answers `done`.

use std::path::PathBuf;
use std::process::ExitCode;

use fedpkd_core::fleet::FleetSim;
use fedpkd_core::telemetry::NullObserver;
use fedpkd_netsim::Wire;
use fedpkd_serve::client::{run_client, ClientConfig};
use fedpkd_serve::transport::Target;

const USAGE: &str = "fedpkd-client (--uds PATH | --tcp ADDR) --client N \
    [--fleet N] [--classes N] [--dims N] [--seed N] [--max-attempts N] \
    [--poll-ms N]";

struct Args {
    uds: Option<PathBuf>,
    tcp: Option<String>,
    client: Option<usize>,
    fleet: usize,
    classes: usize,
    dims: usize,
    seed: u64,
    max_attempts: u32,
    poll_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        uds: None,
        tcp: None,
        client: None,
        fleet: 8,
        classes: 4,
        dims: 8,
        seed: 42,
        max_attempts: 40,
        poll_ms: 20,
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
            "--client" => args.client = Some(num(&flag, value()?)?),
            "--fleet" => args.fleet = num(&flag, value()?)?,
            "--classes" => args.classes = num(&flag, value()?)?,
            "--dims" => args.dims = num(&flag, value()?)?,
            "--seed" => args.seed = num(&flag, value()?)?,
            "--max-attempts" => args.max_attempts = num(&flag, value()?)?,
            "--poll-ms" => args.poll_ms = num(&flag, value()?)?,
            _ => return Err(format!("unknown flag {flag}\nusage: {USAGE}")),
        }
    }
    if args.uds.is_some() == args.tcp.is_some() {
        return Err(format!("pass exactly one of --uds / --tcp\nusage: {USAGE}"));
    }
    if args.client.is_none() {
        return Err(format!("--client is required\nusage: {USAGE}"));
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let client = args.client.expect("validated");
    let target = match (&args.uds, &args.tcp) {
        (Some(path), None) => Target::Uds(path.clone()),
        (None, Some(addr)) => Target::Tcp(addr.clone()),
        _ => unreachable!("parse_args enforces exactly one transport"),
    };
    // Config-only replica: never runs a round, only answers
    // client_payload — the pure function that makes remote compute safe.
    let replica = FleetSim::new(args.fleet, args.classes, args.dims, args.seed);
    let mut cfg = ClientConfig::new(client);
    cfg.seed = args.seed ^ client as u64;
    cfg.max_attempts = args.max_attempts;
    cfg.poll = std::time::Duration::from_millis(args.poll_ms);
    let payload =
        |round: u64, client: usize| replica.client_payload(round as usize, client).to_bytes();
    let report =
        run_client(&target, &cfg, &payload, &mut NullObserver).map_err(|e| e.to_string())?;
    eprintln!(
        "fedpkd-client {client}: done ({} acked, {} reconnects, {} overloads)",
        report.uploads_acked, report.reconnects, report.overloaded
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fedpkd-client: {msg}");
            ExitCode::FAILURE
        }
    }
}
