//! `pkd_hetero` and `pkd_datafree_c100`: real FedPKD runs (Eqs. 5–16)
//! through the in-process driver.

use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fedpkd::{DistillSource, FedPkd, FedPkdConfig};
use fedpkd_core::runtime::RunResult;
use fedpkd_data::{FederatedScenario, Partition, ScenarioBuilder, SyntheticConfig};
use fedpkd_serve::history::ledger_fingerprint;
use fedpkd_tensor::models::{DepthTier, ModelSpec};

use super::{
    alternate, drive, history_fnv, measured_setup, peak_rss_mb, set_phase_metrics,
    set_round_metrics, settled_accuracy, time_to_target, trace_overhead, Outcome, RunArgs,
    DATA_SEED,
};
use crate::json::Json;
use crate::probes::{self, Prober, Shapes};
use crate::span::{RoundClock, RoundSample, SpanRecorder, PHASES};
use crate::stats::median;

/// Everything that defines one FedPKD workload.
pub struct PkdShape {
    /// Synthetic dataset preset.
    pub data: SyntheticConfig,
    /// Input feature width.
    pub input_dim: usize,
    /// Client model tiers, assigned round-robin.
    pub tiers: &'static [DepthTier],
    /// Server model tier.
    pub server_tier: DepthTier,
    /// Number of clients.
    pub clients: usize,
    /// Private samples across clients.
    pub samples: usize,
    /// Public (or generated) transfer-set size.
    pub public: usize,
    /// Global test-set size.
    pub test: usize,
    /// How the private pool is split across clients.
    pub partition: Partition,
    /// Algorithm hyperparameters.
    pub config: FedPkdConfig,
    /// Rounds this run drives.
    pub rounds: usize,
    /// Floor the settled server accuracy must reach (full size only).
    pub accuracy_floor: f64,
    /// Server accuracy `time_to_target_s` waits for.
    pub target: f64,
}

/// The 10-class task, slightly noisier than the library default so methods
/// have headroom (the experiment harness's CIFAR-10 stand-in).
pub fn c10() -> SyntheticConfig {
    SyntheticConfig {
        sample_noise: 1.5,
        label_noise: 0.05,
        ..SyntheticConfig::cifar10_like()
    }
}

/// The paper's highly non-IID shard split: every client draws equally many
/// shards of 10 samples from `classes_per_client` classes, classes rotating
/// across clients. About 80% of each client's even share is dealt, as in the
/// experiment harness. Client sizes are equal and every class is held by
/// someone, so no client idles a worker and no class goes unseen — which a
/// Dirichlet(0.1) draw over five clients does not promise.
pub fn shards(samples: usize, clients: usize, classes_per_client: usize) -> Partition {
    const SHARD: usize = 10;
    Partition::Shards {
        shard_size: SHARD,
        shards_per_client: (samples / clients * 4 / 5 / SHARD).max(classes_per_client.min(2)),
        classes_per_client,
    }
}

/// The experiment harness's quick-profile epochs and learning rate.
fn quick_config() -> FedPkdConfig {
    FedPkdConfig {
        client_private_epochs: 4,
        client_public_epochs: 3,
        server_epochs: 20,
        learning_rate: 0.002,
        temperature: 1.0,
        ..FedPkdConfig::default()
    }
}

/// Epochs small enough that `--smoke` rounds take tens of milliseconds.
fn smoke_config() -> FedPkdConfig {
    FedPkdConfig {
        client_private_epochs: 2,
        client_public_epochs: 1,
        server_epochs: 3,
        ..quick_config()
    }
}

/// Fig. 7 shape: C10-like, Dirichlet α = 0.1, T11/T20/T29 clients, T56 server.
pub fn hetero_shape(args: &RunArgs) -> PkdShape {
    let full = PkdShape {
        data: c10(),
        input_dim: 32,
        tiers: &[DepthTier::T11, DepthTier::T20, DepthTier::T29],
        server_tier: DepthTier::T56,
        clients: 5,
        samples: 1_500,
        public: 600,
        test: 600,
        partition: shards(1_500, 5, 3),
        config: quick_config(),
        rounds: args.rounds(1.25, 3),
        accuracy_floor: 0.50,
        target: 0.60,
    };
    if args.smoke {
        PkdShape {
            clients: 3,
            samples: 360,
            public: 120,
            test: 150,
            partition: shards(360, 3, 3),
            config: smoke_config(),
            ..full
        }
    } else {
        full
    }
}

/// Data-free mode on the 100-class task: the server's generator replaces
/// the public pool, logits are 10× wider.
pub fn datafree_shape(args: &RunArgs) -> PkdShape {
    let full = PkdShape {
        data: SyntheticConfig {
            class_separation: 4.0,
            sample_noise: 1.2,
            label_noise: 0.03,
            ..SyntheticConfig::cifar100_like()
        },
        input_dim: 48,
        tiers: &[DepthTier::T20],
        server_tier: DepthTier::T56,
        clients: 5,
        samples: 3_000,
        public: 600,
        test: 600,
        partition: shards(3_000, 5, 30),
        config: FedPkdConfig {
            distill_source: DistillSource::Generated,
            ..quick_config()
        },
        rounds: args.rounds(0.6, 3),
        accuracy_floor: 0.22,
        target: 0.30,
    };
    if args.smoke {
        PkdShape {
            clients: 3,
            // Thirty samples a class: three whole shards each.
            samples: 3_000,
            public: 120,
            test: 150,
            partition: shards(3_000, 3, 30),
            config: FedPkdConfig {
                distill_source: DistillSource::Generated,
                generator_epochs: 3,
                ..smoke_config()
            },
            ..full
        }
    } else {
        full
    }
}

impl PkdShape {
    fn spec(&self, tier: DepthTier) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: self.input_dim,
            num_classes: self.data.num_classes,
            tier,
        }
    }

    /// Per-client model specs, tiers round-robin.
    pub fn client_specs(&self) -> Vec<ModelSpec> {
        (0..self.clients)
            .map(|i| self.spec(self.tiers[i % self.tiers.len()]))
            .collect()
    }

    /// The server model's spec.
    pub fn server_spec(&self) -> ModelSpec {
        self.spec(self.server_tier)
    }

    /// The workload's scenario recipe (see [`DATA_SEED`]).
    pub fn scenario_builder(&self) -> ScenarioBuilder {
        ScenarioBuilder::new(self.data.clone())
            .clients(self.clients)
            .samples(self.samples)
            .public_size(self.public)
            .global_test_size(self.test)
            .partition(self.partition)
            .seed(DATA_SEED)
    }

    /// Scenario plus models seeded by `seed`: everything before round 0.
    pub fn build(&self, seed: u64) -> FedPkd {
        let scenario = self
            .scenario_builder()
            .build()
            .expect("workload scenario is valid");
        FedPkd::new(
            scenario,
            self.client_specs(),
            self.server_spec(),
            self.config.clone(),
            seed,
        )
        .expect("workload wiring is valid")
    }
}

/// Best server accuracy any round reported.
pub fn best_accuracy(rounds: &[RoundSample]) -> f64 {
    rounds
        .iter()
        .filter_map(|r| r.server_accuracy)
        .fold(0.0, f64::max)
}

fn timed(shape: &PkdShape, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut algo = measured_setup(&mut out, || shape.build(args.seed));
    let mut clock = RoundClock::timed();
    let (result, wall) = drive(
        &mut algo,
        DriverBuilder::new().rounds(shape.rounds),
        &mut clock,
    );
    let rss = peak_rss_mb();

    set_round_metrics(
        &mut out,
        &[&clock.rounds],
        wall,
        result.ledger.total_bytes(),
    );
    out.metrics.set("peak_rss_mb", rss);
    let settled = settled_accuracy(&clock.rounds, |r| r.server_accuracy.unwrap_or(0.0));
    out.metrics.set("final_accuracy", settled);
    out.attempted = shape.rounds as u64;
    out.failed += clock.rejected as u64;
    out.gate(
        "accuracy_floor",
        args.smoke || settled >= shape.accuracy_floor,
    );
    out.field("best_accuracy", best_accuracy(&clock.rounds));
    out.field(
        "last_round_accuracy",
        result.last().server_accuracy.map_or(Json::Null, Json::Num),
    );
    out.field(
        "time_to_target_s",
        time_to_target(&clock.rounds, shape.target).map_or(Json::Null, Json::Num),
    );
    out.field(
        "history_fnv",
        history_fnv(&result.history, ledger_fingerprint(&result.ledger)),
    );
    let shared = super::traced_rounds(shape.rounds);
    out.field(
        "history_prefix_fnv",
        history_fnv(&result.history[..shared], 0),
    );
    out
}

/// What the two legs of a traced FedPKD run leave behind.
pub struct TracedLegs {
    /// The traced federation, after its rounds.
    pub algo: FedPkd,
    /// Its result.
    pub result: RunResult,
    /// Its rounds as the enabled observer saw them.
    pub samples: Vec<RoundSample>,
}

/// Drives the same `rounds` rounds of `shape` twice, observer off and on,
/// alternating round by round, and files what every traced FedPKD run
/// reports from that: the bit-identity gate, the phase metrics, what
/// tracing cost, and the rejection count.
pub fn traced_legs(
    shape: &PkdShape,
    seed: u64,
    rounds: usize,
    one_round: impl Fn() -> DriverBuilder,
    spans: &mut SpanRecorder,
    out: &mut Outcome,
) -> TracedLegs {
    let mut quiet = shape.build(seed);
    let mut quiet_clock = RoundClock::timed();
    let mut algo = shape.build(seed);
    let mut clock = RoundClock::traced(spans);
    let (quiet_result, result) = alternate(
        rounds,
        || drive(&mut quiet, one_round(), &mut quiet_clock).0,
        || drive(&mut algo, one_round(), &mut clock).0,
    );
    let (samples, rejected) = (clock.rounds, clock.rejected);
    out.gate("observer_transparent", result == quiet_result);
    out.attempted = 2 * rounds as u64;
    out.failed += rejected as u64;
    set_phase_metrics(&mut out.metrics, &[&samples]);
    out.metrics.set(
        "bench.trace_overhead_frac",
        trace_overhead(&[&quiet_clock.rounds], &[&samples]),
    );
    out.metrics.set("core.admission.rejected", rejected as f64);
    out.field("rounds", rounds);
    out.field("history_fnv", history_fnv(&result.history, 0));
    TracedLegs {
        algo,
        result,
        samples,
    }
}

impl PkdShape {
    /// The shapes the probes rebuild, borrowing the caller's specs.
    pub fn probe_shapes<'a>(
        &self,
        scenario: &'a FederatedScenario,
        client_spec: &'a ModelSpec,
        server_spec: &'a ModelSpec,
        cohort: usize,
    ) -> Shapes<'a> {
        Shapes {
            scenario,
            client_spec,
            server_spec,
            server_width: self.server_tier.width(),
            cohort,
            delta: self.config.delta,
            theta: self.config.theta,
            gamma: self.config.gamma,
            temperature: self.config.temperature,
            learning_rate: self.config.learning_rate,
        }
    }
}

fn traced(shape: &PkdShape, args: &RunArgs, spans: &mut SpanRecorder) -> Outcome {
    let rounds = super::traced_rounds(shape.rounds);
    let mut out = Outcome::default();
    let run = spans.open("run");
    let TracedLegs {
        algo,
        result,
        samples,
    } = traced_legs(
        shape,
        args.seed,
        rounds,
        || DriverBuilder::new().rounds(1),
        spans,
        &mut out,
    );

    let distill = PHASES
        .iter()
        .position(|p| p.name() == "server_distill")
        .expect("server_distill is a phase");
    let steps_per_s: Vec<f64> = samples
        .iter()
        .filter(|r| r.distill_batches > 0 && r.phase_seconds[distill] > 0.0)
        .map(|r| r.distill_batches as f64 / r.phase_seconds[distill])
        .collect();
    out.metrics
        .set("core.distill.steps_per_s", median(&steps_per_s));
    let keep: Vec<f64> = samples
        .iter()
        .filter_map(|r| r.filter)
        .map(|(kept, dropped)| kept as f64 / (kept + dropped).max(1) as f64)
        .collect();
    out.metrics.set("core.filter.keep_ratio", median(&keep));
    out.metrics.set(
        "core.driver.time_to_target_s",
        time_to_target(&samples, shape.target).unwrap_or(0.0),
    );

    let (server_spec, client_specs) = (shape.server_spec(), shape.client_specs());
    let shapes = shape.probe_shapes(
        algo.scenario(),
        &client_specs[client_specs.len() / 2],
        &server_spec,
        shape.clients,
    );
    let mut p = Prober::new(spans, &mut out.metrics, args.smoke);
    let (step_seconds, _) = probes::model_probes(
        &mut p,
        &shapes,
        &result.ledger,
        &shape.scenario_builder(),
        args.seed,
    );
    if shape.config.distill_source == DistillSource::Generated {
        probes::generator_probes(
            &mut p,
            &shapes,
            shape.config.generator_latent_dim,
            shape.config.generator_lr,
            args.seed,
        );
    }
    spans.close(run);

    // Do the step probes explain the phase? Steps per round × the pieces
    // of one step, over the phase's own typical seconds.
    let steps = median(
        &samples
            .iter()
            .map(|r| r.distill_batches as f64)
            .collect::<Vec<_>>(),
    );
    let phase = out
        .metrics
        .get("core.phase.server_distill_s")
        .unwrap_or(0.0);
    out.metrics.set(
        "bench.probe_coverage_frac",
        if phase > 0.0 {
            steps * step_seconds / phase
        } else {
            0.0
        },
    );
    out
}

/// Timed `pkd_hetero`.
pub fn hetero_timed(args: &RunArgs) -> Outcome {
    timed(&hetero_shape(args), args)
}

/// Traced `pkd_hetero`.
pub fn hetero_traced(args: &RunArgs, spans: &mut SpanRecorder) -> Outcome {
    traced(&hetero_shape(args), args, spans)
}

/// Timed `pkd_datafree_c100`.
pub fn datafree_timed(args: &RunArgs) -> Outcome {
    timed(&datafree_shape(args), args)
}

/// Traced `pkd_datafree_c100`.
pub fn datafree_traced(args: &RunArgs, spans: &mut SpanRecorder) -> Outcome {
    traced(&datafree_shape(args), args, spans)
}
