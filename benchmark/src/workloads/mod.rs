//! The five workloads and what they share: run arguments, the outcome a
//! run reports, and the helpers that drive a federation under the
//! benchmark's observer.

pub mod baselines;
pub mod fleet;
pub mod pkd;
pub mod serve;

use std::path::PathBuf;
use std::time::Instant;

use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::runtime::{Federation, RoundMetrics, RunResult};
use fedpkd_netsim::CommLedger;
use fedpkd_serve::history::metrics_line;

use crate::json::Json;
use crate::metrics::MetricSet;
use crate::span::{RoundClock, RoundSample, SpanRecorder, PHASES};
use crate::stats::{median, quartiles, tail_percentile};

/// The timed length `BENCHMARK.json` declares; round counts below are
/// calibrated so a timed run takes about this long on the 2-core target.
pub const RUN_SECONDS: f64 = 12.0;

/// Seed of every workload's dataset. The data — class geometry, samples,
/// the split across clients — is part of the workload, as a benchmark's
/// dataset is; `--seed` seeds everything stochastic in the *run*: model
/// initialisation, batch order, the server's and the generator's streams,
/// cohort draws, the synthetic federation's uploads. Drawing a new task per
/// seed moved `pkd_hetero`'s settled accuracy between 0.56 and 0.75 over
/// ten seeds (quartile spread 0.19); on one task, seeds land within
/// 0.63–0.73.
pub const DATA_SEED: u64 = 707;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Set-ups that take microseconds (`serve_uds`: a socket and two
/// connections) repeat until they have filled this long, up to
/// [`MAX_SETUP_REPS`], so their median is as settled as the slow ones'.
const MIN_SETUP_TIME: std::time::Duration = std::time::Duration::from_millis(20);

/// Most set-ups per run.
const MAX_SETUP_REPS: usize = 400;

/// What the driver (or `all`) asks of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seeds the models, the training streams and every cohort draw.
    pub seed: u64,
    /// Requested timed length; scales the round counts linearly.
    pub seconds: f64,
    /// Shrink every workload to under two seconds, same code paths.
    pub smoke: bool,
}

impl RunArgs {
    /// Rounds for a workload that sustains `per_second` rounds a second at
    /// full size: fixed work derived from `--seconds`, so two commits run
    /// the same rounds and a faster one simply finishes sooner.
    pub fn rounds(&self, per_second: f64, smoke_rounds: usize) -> usize {
        if self.smoke {
            smoke_rounds
        } else {
            ((self.seconds * per_second).round() as usize).max(3)
        }
    }
}

/// Rounds a traced run drives: a third of the timed run's, but never fewer
/// than three — a median of two rounds resolves nothing.
pub fn traced_rounds(timed_rounds: usize) -> usize {
    (timed_rounds / 3).max(3).min(timed_rounds)
}

/// One workload: a name, why it exists, and its two run kinds.
pub struct Workload {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// One line on which layers it stresses.
    pub why: &'static str,
    /// The timed run: end-to-end metrics, tracing off.
    pub timed: fn(&RunArgs) -> Outcome,
    /// The traced run: per-layer metrics from spans and probes.
    pub traced: fn(&RunArgs, &mut SpanRecorder) -> Outcome,
}

/// The workloads, in the order every report lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pkd_hetero",
        why: "FedPKD, 5 heterogeneous clients, T56 server: server_distill is 80% of the round, so distill and tensor work shows here",
        timed: pkd::hetero_timed,
        traced: pkd::hetero_traced,
    },
    Workload {
        name: "baselines_homo",
        why: "FedAvg, FedProx, FedDF, FedMD, DS-FL back to back on T20: client training and aggregation dominate; a distill-only change predicts no change",
        timed: baselines::timed,
        traced: baselines::traced,
    },
    Workload {
        name: "pkd_datafree_c100",
        why: "FedPKD with a generated transfer set, 100 classes: 10x wider logits and the generator path no phase timing covers",
        timed: pkd::datafree_timed,
        traced: pkd::datafree_traced,
    },
    Workload {
        name: "fleet_cow",
        why: "FedPKD over a 1000-client fleet, 16 sampled per round, one snapshot and restore mid-run: copy-on-write memory, cohort sampling, O(fleet) evaluation",
        timed: fleet::timed,
        traced: fleet::traced,
    },
    Workload {
        name: "serve_uds",
        why: "FleetSim served over a Unix socket with history fsync and snapshots: transport, codec, admission, fold and commit do the work, the tensor stack none",
        timed: serve::timed,
        traced: serve::traced,
    },
];

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics (end-to-end for a timed run, per-layer for a traced).
    pub metrics: MetricSet,
    /// Rounds or exchanges attempted.
    pub attempted: u64,
    /// Of those, how many failed, were rejected, or failed a check.
    pub failed: u64,
    /// Correctness gates by name; the run is correct when all passed.
    pub gates: Vec<(&'static str, bool)>,
    /// Everything else worth keeping in the result file: fingerprints,
    /// sample counts, quartiles.
    pub fields: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Records a gate; a failed gate also counts as one failed check.
    pub fn gate(&mut self, name: &'static str, passed: bool) {
        if !passed {
            self.failed += 1;
        }
        self.gates.push((name, passed));
    }

    /// Whether every gate passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|&(_, ok)| ok)
    }

    /// Adds a result-file field.
    pub fn field(&mut self, name: &'static str, value: impl Into<Json>) {
        self.fields.push((name, value.into()));
    }
}

/// Where the benchmark may write: `benchmark/out`, relative to the checkout
/// root when run from there (keeps Unix-socket paths short), else beside
/// the manifest this binary was built from.
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A scratch directory under [`out_dir`], removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `out/<label>-<pid>`.
    pub fn new(label: &str) -> Self {
        let dir = out_dir().join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the workload at least [`SETUP_REPS`] times, files the median
/// build time as `setup_s` (with the sample count and quartiles as
/// fields), and returns the last build.
pub fn measured_setup<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let began = Instant::now();
    while samples.len() < SETUP_REPS
        || (began.elapsed() < MIN_SETUP_TIME && samples.len() < MAX_SETUP_REPS)
    {
        drop(last.take());
        let started = Instant::now();
        last = Some(std::hint::black_box(build()));
        samples.push(started.elapsed().as_secs_f64());
    }
    out.metrics.set("setup_s", median(&samples));
    out.field("setup_samples", samples.len());
    out.field("setup_quartiles_s", Json::nums(&quartiles(&samples)));
    last.expect("at least one build")
}

/// Drives `algo` under `builder` with the benchmark's observer attached,
/// returning the result and the wall-clock seconds the call took.
pub fn drive<F: Federation>(
    algo: &mut F,
    builder: DriverBuilder,
    clock: &mut RoundClock<'_>,
) -> (RunResult, f64) {
    let started = Instant::now();
    let result = builder.build().run(algo, clock);
    (result, started.elapsed().as_secs_f64())
}

/// Advances two runs of the same rounds in lock step — `quiet` one round,
/// `traced` one round, `rounds` times — and returns each leg's history and
/// final ledger. On this box one leg run after the other differs by ±8%
/// from host noise alone; alternating round by round puts both legs under
/// the same weather (and taking turns going first), so the gap between
/// their round times is what the enabled observer costs.
pub fn alternate(
    rounds: usize,
    mut quiet: impl FnMut() -> RunResult,
    mut traced: impl FnMut() -> RunResult,
) -> (RunResult, RunResult) {
    let empty = || RunResult {
        history: Vec::with_capacity(rounds),
        ledger: CommLedger::new(),
    };
    let (mut quiet_run, mut traced_run) = (empty(), empty());
    for round in 0..rounds {
        let mut legs = [
            (&mut quiet_run, &mut quiet as &mut dyn FnMut() -> RunResult),
            (&mut traced_run, &mut traced),
        ];
        // Whoever goes second finds the caches warm: take turns going first.
        if round % 2 == 1 {
            legs.reverse();
        }
        for (leg, step) in legs {
            let result = step();
            leg.history.extend(result.history);
            leg.ledger = result.ledger;
        }
    }
    (quiet_run, traced_run)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// FNV-1a64, the fingerprint every layer of the product already uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fingerprint of a run: every round's history line, then the ledger's
/// transfer-by-transfer fingerprint (`0` for a prefix of a run, whose
/// ledger is not the run's). Equal digests mean equal bits.
pub fn history_fnv(history: &[RoundMetrics], ledger_fnv: u64) -> String {
    let mut fnv = Fnv::default();
    for round in history {
        fnv.update(metrics_line(round).as_bytes());
        fnv.update(b"\n");
    }
    fnv.update(&ledger_fnv.to_le_bytes());
    fnv.hex()
}

/// Round durations in seconds.
pub fn round_seconds(rounds: &[RoundSample]) -> Vec<f64> {
    rounds.iter().map(RoundSample::seconds).collect()
}

/// Wall time from the first `RoundStart` to the first round whose server
/// accuracy reaches `target`.
pub fn time_to_target(rounds: &[RoundSample], target: f64) -> Option<f64> {
    let origin = rounds.first()?.start;
    rounds
        .iter()
        .find(|r| r.server_accuracy.is_some_and(|a| a >= target))
        .map(|r| r.end.duration_since(origin).as_secs_f64())
}

/// The typical value of `f` over a run made of several algorithms' rounds:
/// the mean over groups of each group's median. With one group this is the
/// plain median; with five back-to-back baselines every algorithm moves
/// the number, where a pooled median would only ever see the middle one.
pub fn typical(groups: &[&[RoundSample]], f: impl Fn(&RoundSample) -> f64) -> f64 {
    let medians: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(&g.iter().map(&f).collect::<Vec<_>>()))
        .collect();
    if medians.is_empty() {
        0.0
    } else {
        medians.iter().sum::<f64>() / medians.len() as f64
    }
}

/// The accuracy a run settled at: the mean of `accuracy` over its last
/// third of rounds. One round's test accuracy jumps by several points from
/// round to round; the mean over the tail is what `final_accuracy` reports
/// and what the accuracy floors gate.
pub fn settled_accuracy(rounds: &[RoundSample], accuracy: impl Fn(&RoundSample) -> f64) -> f64 {
    let tail = &rounds[rounds.len() - rounds.len().div_ceil(3)..];
    if tail.is_empty() {
        0.0
    } else {
        tail.iter().map(accuracy).sum::<f64>() / tail.len() as f64
    }
}

/// Sets the end-to-end metrics every workload derives the same way, and
/// the sample-count / quartile fields that go with them. `groups` holds
/// one slice of rounds per algorithm the run drove.
pub fn set_round_metrics(
    out: &mut Outcome,
    groups: &[&[RoundSample]],
    wall_seconds: f64,
    total_bytes: usize,
) {
    let seconds: Vec<f64> = groups.iter().flat_map(|g| round_seconds(g)).collect();
    let rounds = seconds.len();
    out.metrics
        .set("rounds_per_s", rounds as f64 / wall_seconds);
    out.metrics
        .set("round_p50_ms", typical(groups, RoundSample::seconds) * 1e3);
    out.metrics
        .set("bytes_per_round", total_bytes as f64 / rounds as f64);
    out.field("rounds", rounds);
    out.field("wall_s", wall_seconds);
    if rounds >= 2 {
        out.field(
            "round_quartiles_ms",
            Json::nums(&quartiles(&seconds).map(|q| q * 1e3)),
        );
    }
    if let Some((p, value)) = tail_percentile(&seconds) {
        out.field("round_tail_percentile", p);
        out.field("round_tail_ms", value * 1e3);
    }
}

/// Sets `core.phase.*_s` (typical per-round seconds), the unattributed
/// remainder and `core.driver.round_drift_x` from a traced run's samples.
pub fn set_phase_metrics(metrics: &mut MetricSet, groups: &[&[RoundSample]]) {
    for (i, phase) in PHASES.iter().enumerate() {
        metrics.set(
            &format!("core.phase.{}_s", phase.name()),
            typical(groups, |r| r.phase_seconds[i]),
        );
    }
    metrics.set(
        "core.phase.unattributed_s",
        typical(groups, RoundSample::unattributed_seconds),
    );
    let drifts: Vec<f64> = groups
        .iter()
        .map(|g| round_drift(&round_seconds(g)))
        .collect();
    metrics.set(
        "core.driver.round_drift_x",
        drifts.iter().sum::<f64>() / drifts.len().max(1) as f64,
    );
}

/// Last-quarter over first-quarter round median: above 1 when rounds slow
/// down as the run (and its ledger) grows.
pub fn round_drift(seconds: &[f64]) -> f64 {
    let quarter = (seconds.len() / 4).max(1);
    let first = median(&seconds[..quarter.min(seconds.len())]);
    let last = median(&seconds[seconds.len().saturating_sub(quarter)..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// What the enabled observer costs: the median, over rounds, of the traced
/// leg's round time over the quiet leg's time for the *same* round, minus
/// one (mean over groups). Pairing by round cancels what rounds differ in —
/// a cold first round, a growing ledger — and leaves the observer.
pub fn trace_overhead(quiet: &[&[RoundSample]], traced: &[&[RoundSample]]) -> f64 {
    let ratios: Vec<f64> = quiet
        .iter()
        .zip(traced)
        .map(|(q, t)| {
            let paired: Vec<f64> = q
                .iter()
                .zip(t.iter())
                .filter(|(q, _)| q.seconds() > 0.0)
                .map(|(q, t)| t.seconds() / q.seconds())
                .collect();
            median(&paired)
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_scale_with_seconds_and_smoke_overrides() {
        let args = RunArgs {
            seed: 1,
            seconds: 12.0,
            smoke: false,
        };
        assert_eq!(args.rounds(1.25, 2), 15);
        assert_eq!(
            RunArgs {
                seconds: 24.0,
                ..args
            }
            .rounds(1.25, 2),
            30
        );
        assert_eq!(
            RunArgs {
                seconds: 0.5,
                ..args
            }
            .rounds(1.25, 2),
            3
        );
        assert_eq!(
            RunArgs {
                smoke: true,
                ..args
            }
            .rounds(1.25, 2),
            2
        );
    }

    #[test]
    fn drift_compares_the_outer_quarters() {
        assert_eq!(round_drift(&[1.0, 1.0, 5.0, 5.0, 2.0, 2.0, 3.0, 3.0]), 3.0);
        assert_eq!(round_drift(&[2.0]), 1.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut fnv = Fnv::default();
        assert_eq!(fnv.hex(), "cbf29ce484222325");
        fnv.update(b"a");
        assert_eq!(fnv.hex(), "af63dc4c8601ec8c");
    }

    /// `--smoke`: every workload, both run kinds, same code paths. A run
    /// that sets an undeclared metric panics in `MetricSet::set`; one that
    /// misses an end-to-end metric panics in `end_to_end_json`.
    #[test]
    fn every_workload_smokes_with_declared_metrics_and_passing_gates() {
        let args = RunArgs {
            seed: 11,
            seconds: RUN_SECONDS,
            smoke: true,
        };
        for workload in WORKLOADS {
            let started = Instant::now();
            let timed = (workload.timed)(&args);
            let timed_seconds = started.elapsed().as_secs_f64();
            assert!(
                timed.correct(),
                "{} timed: {:?}",
                workload.name,
                timed.gates
            );
            assert!(timed.attempted >= 1);
            let metrics = timed.metrics.end_to_end_json();
            for (name, value) in metrics.as_obj().expect("object") {
                let v = value.get("value").and_then(Json::as_f64).expect("number");
                // Three smoke rounds teach a 100-class model nothing yet.
                let floor = if name == "final_accuracy" { -1.0 } else { 0.0 };
                assert!(v > floor && v.is_finite(), "{} {name} = {v}", workload.name);
            }
            let mut spans = SpanRecorder::new();
            let traced = (workload.traced)(&args, &mut spans);
            assert!(
                traced.correct(),
                "{} traced: {:?}",
                workload.name,
                traced.gates
            );
            assert!(traced.metrics.get("bench.trace_overhead_frac").is_some());
            let run = &spans.spans()[0];
            assert_eq!((run.name.as_str(), run.parent), ("run", None));
            assert!(spans
                .spans()
                .iter()
                .any(|s| s.name == "round" && s.parent == Some(0)));
            assert!(spans.spans().iter().any(|s| s.name.starts_with("probe.")));
            // Generous: the test profile is unoptimised for this crate.
            assert!(
                timed_seconds < 20.0,
                "{} smoke took {timed_seconds:.1}s",
                workload.name
            );
        }
    }

    #[test]
    fn workload_names_are_unique() {
        let names: std::collections::BTreeSet<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
