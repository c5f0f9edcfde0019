//! `baselines_homo`: FedAvg, FedProx, FedDF, FedMD and DS-FL back to back
//! on the same data, every model a T20. Client training, parameter and
//! logit aggregation and the baselines' billing plumbing dominate;
//! `server_distill` exists only in FedDF — the workload a distill-only
//! optimisation must leave unchanged.

use fedpkd_baselines::{BaselineConfig, DsFl, FedAvg, FedDf, FedMd, FedProx};
use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::runtime::RunResult;
use fedpkd_data::{FederatedScenario, ScenarioBuilder};
use fedpkd_serve::history::ledger_fingerprint;
use fedpkd_tensor::models::{DepthTier, ModelSpec};

use super::pkd::{c10, shards};
use super::{
    alternate, drive, history_fnv, measured_setup, peak_rss_mb, set_phase_metrics,
    set_round_metrics, settled_accuracy, trace_overhead, traced_rounds, Fnv, Outcome, RunArgs,
    DATA_SEED,
};
use crate::json::Json;
use crate::probes::{self, Prober, Shapes};
use crate::span::{RoundClock, RoundSample, SpanRecorder};
use crate::stats::median;

/// Accuracy each baseline must settle above at full size.
const ACCURACY_FLOOR: f64 = 0.30;

/// One of the five baselines, so they can share a run loop.
// Five values a run, each built once: boxing the larger ones buys nothing.
#[allow(clippy::large_enum_variant)]
enum Algo {
    FedAvg(FedAvg),
    FedProx(FedProx),
    FedDf(FedDf),
    FedMd(FedMd),
    DsFl(DsFl),
}

impl Algo {
    fn drive(&mut self, builder: DriverBuilder, clock: &mut RoundClock<'_>) -> (RunResult, f64) {
        match self {
            Self::FedAvg(a) => drive(a, builder, clock),
            Self::FedProx(a) => drive(a, builder, clock),
            Self::FedDf(a) => drive(a, builder, clock),
            Self::FedMd(a) => drive(a, builder, clock),
            Self::DsFl(a) => drive(a, builder, clock),
        }
    }
}

struct Shape {
    clients: usize,
    samples: usize,
    public: usize,
    test: usize,
    config: BaselineConfig,
    /// Rounds per algorithm.
    rounds: usize,
}

fn shape(args: &RunArgs) -> Shape {
    let quick = BaselineConfig {
        local_epochs: 3,
        server_epochs: 5,
        digest_epochs: 2,
        learning_rate: 0.002,
        ..BaselineConfig::default()
    };
    if args.smoke {
        Shape {
            clients: 3,
            samples: 360,
            public: 120,
            test: 150,
            config: BaselineConfig {
                local_epochs: 1,
                server_epochs: 1,
                digest_epochs: 1,
                ..quick
            },
            rounds: 3,
        }
    } else {
        Shape {
            clients: 5,
            samples: 1_500,
            public: 600,
            test: 600,
            config: quick,
            rounds: args.rounds(5.5, 3),
        }
    }
}

impl Shape {
    fn spec(&self) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier: DepthTier::T20,
        }
    }

    fn scenario_builder(&self) -> ScenarioBuilder {
        ScenarioBuilder::new(c10())
            .clients(self.clients)
            .samples(self.samples)
            .public_size(self.public)
            .global_test_size(self.test)
            .partition(shards(self.samples, self.clients, 3))
            .seed(DATA_SEED)
    }

    /// The scenario and all five algorithms over copies of it.
    fn build(&self, seed: u64) -> (FederatedScenario, Vec<(&'static str, Algo)>) {
        let scenario = self
            .scenario_builder()
            .build()
            .expect("workload scenario is valid");
        let (spec, specs) = (self.spec(), vec![self.spec(); self.clients]);
        let cfg = || self.config.clone();
        let wired = "workload wiring is valid";
        let algos = vec![
            (
                "fedavg",
                Algo::FedAvg(
                    FedAvg::new(scenario.clone(), spec.clone(), cfg(), seed).expect(wired),
                ),
            ),
            (
                "fedprox",
                Algo::FedProx(
                    FedProx::new(scenario.clone(), spec.clone(), cfg(), seed).expect(wired),
                ),
            ),
            (
                "feddf",
                Algo::FedDf(FedDf::new(scenario.clone(), spec, cfg(), seed).expect(wired)),
            ),
            (
                "fedmd",
                Algo::FedMd(FedMd::new(scenario.clone(), specs.clone(), cfg(), seed).expect(wired)),
            ),
            (
                "dsfl",
                Algo::DsFl(DsFl::new(scenario.clone(), specs, cfg(), seed).expect(wired)),
            ),
        ];
        (scenario, algos)
    }
}

/// A round's accuracy: the server model's where the method has one, else
/// the mean over clients (FedMD and DS-FL train no server model).
fn accuracy(sample: &RoundSample) -> f64 {
    sample
        .server_accuracy
        .unwrap_or(sample.mean_client_accuracy)
}

/// What running all five algorithms for `rounds` each produced.
#[derive(Default)]
struct Pass {
    /// `(name, result, samples)` per algorithm.
    runs: Vec<(&'static str, RunResult, Vec<RoundSample>)>,
    wall: f64,
    rejected: usize,
}

impl Pass {
    /// Each algorithm's rounds.
    fn groups(&self) -> Vec<&[RoundSample]> {
        self.runs.iter().map(|(_, _, s)| s.as_slice()).collect()
    }

    fn total_bytes(&self) -> usize {
        self.runs
            .iter()
            .map(|(_, r, _)| r.ledger.total_bytes())
            .sum()
    }

    /// Fingerprint over every algorithm's history and ledger, in order —
    /// or, with `prefix`, over just the first `prefix` rounds of each
    /// history (what a shorter run of the same seed must reproduce).
    fn fnv(&self, prefix: Option<usize>) -> String {
        let mut fnv = Fnv::default();
        for (_, result, _) in &self.runs {
            let digest = match prefix {
                Some(rounds) => history_fnv(&result.history[..rounds], 0),
                None => history_fnv(&result.history, ledger_fingerprint(&result.ledger)),
            };
            fnv.update(digest.as_bytes());
        }
        fnv.hex()
    }
}

/// Runs all five algorithms back to back, `rounds` each, observer off.
fn run_all(algos: Vec<(&'static str, Algo)>, rounds: usize) -> Pass {
    let mut pass = Pass::default();
    for (name, mut algo) in algos {
        let mut clock = RoundClock::timed();
        let (result, wall) = algo.drive(DriverBuilder::new().rounds(rounds), &mut clock);
        pass.wall += wall;
        pass.rejected += clock.rejected;
        pass.runs.push((name, result, clock.rounds));
    }
    pass
}

/// Runs two copies of the five algorithms, one with the observer off and
/// one recording into `spans`, alternating round by round (see
/// [`alternate`]). Returns `(quiet, traced)`.
fn run_alternating(
    quiet_algos: Vec<(&'static str, Algo)>,
    traced_algos: Vec<(&'static str, Algo)>,
    rounds: usize,
    spans: &mut SpanRecorder,
) -> (Pass, Pass) {
    let (mut quiet, mut traced) = (Pass::default(), Pass::default());
    let one_round = || DriverBuilder::new().rounds(1);
    for ((name, mut quiet_algo), (_, mut traced_algo)) in quiet_algos.into_iter().zip(traced_algos)
    {
        let mut quiet_clock = RoundClock::timed();
        let mut clock = RoundClock::traced(spans);
        let (quiet_result, result) = alternate(
            rounds,
            || quiet_algo.drive(one_round(), &mut quiet_clock).0,
            || traced_algo.drive(one_round(), &mut clock).0,
        );
        traced.rejected += clock.rejected;
        quiet.runs.push((name, quiet_result, quiet_clock.rounds));
        traced.runs.push((name, result, clock.rounds));
    }
    (quiet, traced)
}

/// Timed `baselines_homo`.
pub fn timed(args: &RunArgs) -> Outcome {
    let shape = shape(args);
    let mut out = Outcome::default();
    let (_, algos) = measured_setup(&mut out, || shape.build(args.seed));
    let pass = run_all(algos, shape.rounds);
    let rss = peak_rss_mb();

    set_round_metrics(&mut out, &pass.groups(), pass.wall, pass.total_bytes());
    out.metrics.set("peak_rss_mb", rss);
    let settled: Vec<(&str, f64)> = pass
        .runs
        .iter()
        .map(|(name, _, samples)| (*name, settled_accuracy(samples, accuracy)))
        .collect();
    out.metrics.set(
        "final_accuracy",
        settled.iter().map(|&(_, acc)| acc).sum::<f64>() / settled.len() as f64,
    );
    out.attempted = (shape.rounds * pass.runs.len()) as u64;
    out.failed += pass.rejected as u64;
    out.gate(
        "accuracy_floor",
        args.smoke || settled.iter().all(|&(_, acc)| acc >= ACCURACY_FLOOR),
    );
    out.field(
        "final_accuracy_by_algorithm",
        Json::obj(settled.iter().map(|&(name, acc)| (name, Json::Num(acc)))),
    );
    out.field(
        "round_p50_ms_by_algorithm",
        Json::obj(pass.runs.iter().map(|(name, _, samples)| {
            (
                *name,
                Json::Num(median(&super::round_seconds(samples)) * 1e3),
            )
        })),
    );
    out.field("history_fnv", pass.fnv(None));
    out.field(
        "history_prefix_fnv",
        pass.fnv(Some(traced_rounds(shape.rounds))),
    );
    out
}

/// Traced `baselines_homo`.
pub fn traced(args: &RunArgs, spans: &mut SpanRecorder) -> Outcome {
    let shape = shape(args);
    let rounds = traced_rounds(shape.rounds);
    let mut out = Outcome::default();

    let run = spans.open("run");
    let (scenario, algos) = shape.build(args.seed);
    let (quiet, pass) = run_alternating(shape.build(args.seed).1, algos, rounds, spans);
    out.gate(
        "observer_transparent",
        pass.runs
            .iter()
            .zip(&quiet.runs)
            .all(|((_, traced, _), (_, timed, _))| traced == timed),
    );
    out.attempted = (2 * rounds * pass.runs.len()) as u64;
    out.failed += pass.rejected as u64;

    set_phase_metrics(&mut out.metrics, &pass.groups());
    out.metrics.set(
        "bench.trace_overhead_frac",
        trace_overhead(&quiet.groups(), &pass.groups()),
    );
    for (name, _, samples) in &pass.runs {
        out.metrics.set(
            &format!("baselines.{name}.round_p50_ms"),
            median(&super::round_seconds(samples)) * 1e3,
        );
    }
    out.metrics
        .set("core.admission.rejected", pass.rejected as f64);

    let spec = shape.spec();
    let mut p = Prober::new(spans, &mut out.metrics, args.smoke);
    // FedAvg's ledger is the largest of the five: the worst case for the
    // per-round scans.
    probes::model_probes(
        &mut p,
        &Shapes {
            scenario: &scenario,
            client_spec: &spec,
            server_spec: &spec,
            server_width: DepthTier::T20.width(),
            cohort: shape.clients,
            delta: 1.0,
            theta: 0.7,
            gamma: shape.config.gamma,
            temperature: shape.config.temperature,
            learning_rate: shape.config.learning_rate,
        },
        &pass.runs[0].1.ledger,
        &shape.scenario_builder(),
        args.seed,
    );
    spans.close(run);

    out.field("rounds_per_algorithm", rounds);
    out.field("history_fnv", pass.fnv(Some(rounds)));
    out
}
