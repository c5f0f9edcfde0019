//! Process-level chaos: `kill -9` the server at seeded points mid-run,
//! restart it, and prove the completed run is bit-identical to an
//! uninterrupted in-process simulation.
//!
//! Real `fedpkd-serve` / `fedpkd-client` binaries over a Unix domain
//! socket. The oracle is threefold:
//!
//! 1. [`canonical_rounds`] over the (repaired, deduplicated) history file
//!    equals the reference run's [`metrics_line`]s — and any round a
//!    restart re-committed must have appended *byte-identical* duplicate
//!    lines, or canonicalization itself fails.
//! 2. The final `run_complete` line's ledger fingerprint equals
//!    [`ledger_fingerprint`] of the reference ledger: every transfer, in
//!    order, at the same byte size.
//! 3. Every client process exits cleanly — backoff rode out every outage.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fleet::FleetSim;
use fedpkd_serve::history::{canonical_rounds, ledger_fingerprint, metrics_line};

const FLEET: usize = 6;
const CLASSES: usize = 4;
const DIMS: usize = 8;
const SEED: u64 = 42;
const ROUNDS: usize = 6;
const SNAPSHOT_EVERY: usize = 2;

fn spawn_server(sock: &Path, snapshot: &Path, history: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_fedpkd-serve"))
        .args([
            "--uds",
            &sock.display().to_string(),
            "--rounds",
            &ROUNDS.to_string(),
            "--fleet",
            &FLEET.to_string(),
            "--classes",
            &CLASSES.to_string(),
            "--dims",
            &DIMS.to_string(),
            "--seed",
            &SEED.to_string(),
            "--snapshot",
            &snapshot.display().to_string(),
            "--snapshot-every",
            &SNAPSHOT_EVERY.to_string(),
            "--history",
            &history.display().to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fedpkd-serve")
}

fn spawn_client(sock: &Path, client: usize) -> Child {
    Command::new(env!("CARGO_BIN_EXE_fedpkd-client"))
        .args([
            "--uds",
            &sock.display().to_string(),
            "--client",
            &client.to_string(),
            "--fleet",
            &FLEET.to_string(),
            "--classes",
            &CLASSES.to_string(),
            "--dims",
            &DIMS.to_string(),
            "--seed",
            &SEED.to_string(),
            // Pace rounds so the kill watcher can land mid-run, and give
            // backoff plenty of attempts to ride out three outages.
            "--poll-ms",
            "150",
            "--max-attempts",
            "400",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fedpkd-client")
}

/// Blocks until the history file contains a committed line for `round`.
fn await_round(history: &Path, round: usize) {
    let needle = format!("{{\"round\":{round},");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(text) = std::fs::read_to_string(history) {
            if text.lines().any(|l| l.starts_with(&needle)) {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "round {round} never committed to {}",
            history.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn kill_nine(server: &mut Child) {
    // Child::kill is SIGKILL on Unix: no destructors, no flushes — the
    // genuine article.
    server.kill().expect("kill server");
    let _ = server.wait();
}

#[test]
fn killed_and_restarted_run_is_bit_identical_to_in_process() {
    let dir = std::env::temp_dir().join(format!("fedpkd-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("serve.sock");
    let snapshot = dir.join("fleet.snap");
    let history = dir.join("history.jsonl");

    // The uninterrupted reference, serialized exactly as the server does.
    let mut reference_fed = FleetSim::new(FLEET, CLASSES, DIMS, SEED);
    let reference = DriverBuilder::new()
        .rounds(ROUNDS)
        .build()
        .run_silent(&mut reference_fed);
    let reference_lines: Vec<String> = reference.history.iter().map(metrics_line).collect();
    let reference_fnv = ledger_fingerprint(&reference.ledger);

    // Kill point 1: before any round can commit. Only 5 of 6 clients are
    // up, so round 0 has staged-but-uncommitted uploads — the most
    // fragile state there is, and the snapshot file does not even exist.
    let mut server = spawn_server(&sock, &snapshot, &history);
    let mut clients: Vec<Child> = (0..FLEET - 1).map(|c| spawn_client(&sock, c)).collect();
    std::thread::sleep(Duration::from_millis(900));
    kill_nine(&mut server);

    // Restart; complete the cohort. From here rounds can commit.
    let mut server = spawn_server(&sock, &snapshot, &history);
    clients.push(spawn_client(&sock, FLEET - 1));

    // Kill point 2: after round 1 is in the history (the server is then
    // inside round 2; the round-2 snapshot may or may not have landed).
    await_round(&history, 1);
    kill_nine(&mut server);
    let mut server = spawn_server(&sock, &snapshot, &history);

    // Kill point 3: after round 3 commits.
    await_round(&history, 3);
    kill_nine(&mut server);
    let server = spawn_server(&sock, &snapshot, &history);

    // Let the run finish: server exits 0 after draining, clients exit 0
    // once told `done`.
    let status = wait_timeout(server, Duration::from_secs(120));
    assert!(status.success(), "final server run failed: {status:?}");
    for (idx, client) in clients.into_iter().enumerate() {
        let status = wait_timeout(client, Duration::from_secs(60));
        assert!(status.success(), "client {idx} failed: {status:?}");
    }

    // Oracle 1: canonical history equals the reference, and the re-driven
    // duplicate lines were byte-identical (canonical_rounds asserts it).
    let text = std::fs::read_to_string(&history).unwrap();
    let canonical = canonical_rounds(&text).expect("restarted commits must be byte-identical");
    assert_eq!(
        canonical, reference_lines,
        "served history diverged from the in-process run"
    );
    // The kills really did force re-commits: raw lines exceed unique ones.
    let raw_round_lines = text
        .lines()
        .filter(|l| l.starts_with("{\"round\":"))
        .count();
    assert!(
        raw_round_lines >= canonical.len(),
        "history shorter than the run itself"
    );

    // Oracle 2: the final run_complete line carries the reference
    // ledger's fingerprint and byte total.
    let complete = text
        .lines()
        .rfind(|l| l.contains("\"event\":\"run_complete\""))
        .expect("run_complete line");
    assert!(
        complete.contains(&format!("\"rounds\":{ROUNDS}")),
        "bad run_complete: {complete}"
    );
    assert!(
        complete.contains(&format!(
            "\"total_bytes\":{}",
            reference.ledger.total_bytes()
        )),
        "total bytes diverged: {complete}"
    );
    assert!(
        complete.contains(&format!("\"ledger_fnv\":\"{reference_fnv:016x}\"")),
        "ledger fingerprint diverged: {complete}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag value the server cannot run with is a usage error (exit 1), not
/// a panic deep in `Deadline::from_secs` (exit 101) — nor, for a zero
/// connection cap, a server that sheds every client for ever, or, for a
/// snapshot cadence with no path or a cadence of 0, a run that persists
/// nothing.
#[test]
fn unusable_flag_values_get_the_usage_error() {
    use std::io::Read;
    let sock = std::env::temp_dir().join(format!("fedpkd-flags-{}.sock", std::process::id()));
    let snap = std::env::temp_dir().join(format!("fedpkd-flags-{}.snap", std::process::id()));
    let snap = snap.display().to_string();
    for args in [
        &["--io-deadline", "nan"][..],
        &["--io-deadline", "0"],
        &["--io-deadline", "-1"],
        &["--io-deadline", "1e30"],
        &["--max-conns", "0"],
        // Every round would commit degraded before any upload could land.
        &["--round-timeout-ms", "0"],
        // A snapshot cadence with no `--snapshot PATH` to write to.
        &["--snapshot-every", "1"],
        // A cadence no round past the first is a multiple of, with a path
        // so the check above does not catch it first.
        &["--snapshot", &snap, "--snapshot-every", "0"],
    ] {
        let case = args.join(" ");
        let mut server = Command::new(env!("CARGO_BIN_EXE_fedpkd-serve"))
            .args(["--uds", &sock.display().to_string(), "--rounds", "1"])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fedpkd-serve");
        let mut stderr = server.stderr.take().expect("piped stderr");
        let status = wait_timeout(server, Duration::from_secs(10));
        let mut said = String::new();
        stderr.read_to_string(&mut said).expect("read stderr");
        assert_eq!(status.code(), Some(1), "{case}: {said}");
        assert!(said.contains("usage:"), "{case}: {said}");
        assert!(!said.contains("panicked"), "{case}: {said}");
    }
    let _ = std::fs::remove_file(&sock);

    // A `--uds` path that names a regular file (a `--history` or
    // `--snapshot` path passed by mistake) is refused, not unlinked.
    let file = std::env::temp_dir().join(format!("fedpkd-flags-{}.jsonl", std::process::id()));
    std::fs::write(&file, b"{\"round\":0}\n").expect("write the file");
    let mut server = Command::new(env!("CARGO_BIN_EXE_fedpkd-serve"))
        .args(["--uds", &file.display().to_string(), "--rounds", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fedpkd-serve");
    let mut stderr = server.stderr.take().expect("piped stderr");
    let status = wait_timeout(server, Duration::from_secs(10));
    let mut said = String::new();
    stderr.read_to_string(&mut said).expect("read stderr");
    assert_eq!(status.code(), Some(1), "--uds <file>: {said}");
    assert!(said.contains("binding"), "--uds <file>: {said}");
    assert_eq!(
        std::fs::read(&file).expect("the file survives"),
        b"{\"round\":0}\n"
    );
    let _ = std::fs::remove_file(&file);
}

/// `--telemetry` writes one JSON line per event, and a sink whose writes
/// fail fails the command with the number of events it lost instead of
/// exiting 0 with an empty trace.
#[test]
fn telemetry_write_failures_fail_the_command() {
    use std::io::Read;
    let dir = std::env::temp_dir().join(format!("fedpkd-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = dir.join("serve.sock");
    let run = |trace: &Path| {
        let mut server = Command::new(env!("CARGO_BIN_EXE_fedpkd-serve"))
            .args(["--uds", &sock.display().to_string(), "--rounds", "1"])
            .args(["--round-timeout-ms", "50"])
            .args(["--telemetry", &trace.display().to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fedpkd-serve");
        let mut stderr = server.stderr.take().expect("piped stderr");
        let status = wait_timeout(server, Duration::from_secs(10));
        let mut said = String::new();
        stderr.read_to_string(&mut said).expect("read stderr");
        (status, said)
    };

    // No client connects, so the one round commits degraded at its timeout.
    let trace = dir.join("trace.jsonl");
    let (status, said) = run(&trace);
    assert!(status.success(), "{said}");
    let text = std::fs::read_to_string(&trace).expect("the trace");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines
            .first()
            .is_some_and(|l| l.starts_with("{\"event\":\"round_start\",")),
        "{text}"
    );
    assert!(
        lines
            .last()
            .is_some_and(|l| l.starts_with("{\"event\":\"round_end\",")),
        "{text}"
    );
    for line in &lines {
        assert!(
            line.starts_with("{\"event\":\"") && line.ends_with('}'),
            "{line}"
        );
    }

    let full = Path::new("/dev/full");
    if full.exists() {
        let (status, said) = run(full);
        assert_eq!(status.code(), Some(1), "{said}");
        assert!(said.contains("telemetry write failed"), "{said}");
        // The first event's write failed; every later one was dropped.
        let dropped = format!("; {} later event(s) dropped", lines.len() - 1);
        assert!(said.contains(&dropped), "{said}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn wait_timeout(mut child: Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("wait child") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("child did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
