//! Fleet-scale runtime tests.
//!
//! Covers the two determinism contracts the event-driven scheduler makes:
//! seeded cohort sampling is a pure, replayable function of
//! `(seed, round, fleet, size)`, and a run's result does not depend on how
//! it was executed — the bit-identity gate matrix replays every algorithm
//! at worker budgets 1, 2 and the default.

use fedpkd::prelude::*;
use proptest::prelude::*;

const FLEET: usize = 10_000;
const ROUNDS: usize = 2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sampling is a pure function: the same `(seed, round)` always draws
    /// the same cohort, so replays and resumed runs invite the same fleet
    /// members.
    #[test]
    fn cohort_sampling_is_deterministic(
        seed in any::<u64>(),
        round in 0usize..1000,
        size in 1usize..512,
    ) {
        prop_assert_eq!(
            sample_cohort(seed, round, FLEET, size),
            sample_cohort(seed, round, FLEET, size)
        );
    }

    /// Sampled cohorts are sorted, duplicate-free, in range, and exactly
    /// the requested size (capped at the fleet).
    #[test]
    fn cohorts_are_duplicate_free_and_in_range(
        seed in any::<u64>(),
        round in 0usize..1000,
        size in 1usize..2048,
    ) {
        let cohort = sample_cohort(seed, round, FLEET, size);
        prop_assert_eq!(cohort.len(), size.min(FLEET));
        for pair in cohort.windows(2) {
            prop_assert!(pair[0] < pair[1], "sorted, duplicate-free");
        }
        if let Some(&last) = cohort.last() {
            prop_assert!(last < FLEET);
        }
    }

    /// Consecutive rounds and perturbed seeds draw different cohorts (with
    /// 64 picks from 10 000 a collision is astronomically unlikely), so
    /// the fleet actually rotates instead of re-inviting one clique.
    #[test]
    fn cohorts_vary_by_round_and_seed(seed in any::<u64>(), round in 0usize..1000) {
        let base = sample_cohort(seed, round, FLEET, 64);
        prop_assert_ne!(&base, &sample_cohort(seed, round + 1, FLEET, 64));
        prop_assert_ne!(&base, &sample_cohort(seed ^ 1, round, FLEET, 64));
    }

    /// A 10k-fleet run under a sampled cohort policy is bit-identical on
    /// replay — same `RunResult`, same server state — regardless of the
    /// worker budget, because uploads fold at the canonical commit point.
    /// Under a deadline too: a link slow enough that every invited client
    /// whose upload size is known misses the 1 s deadline and sits the
    /// round out.
    #[test]
    fn fleet_run_replays_identically(
        seed in any::<u64>(),
        cohort_seed in any::<u64>(),
        deadline in prop_oneof![Just(false), Just(true)],
    ) {
        let run = |workers: usize| {
            let mut fleet = FleetSim::new(FLEET, 6, 8, seed);
            let mut builder = DriverBuilder::new()
                .rounds(ROUNDS)
                .cohort(CohortPolicy::Sample { size: 64, seed: cohort_seed })
                .workers(workers);
            if deadline {
                let slow = FaultPlan::new(seed).with_deadline(LinkModel::new(100.0, 0.0), 1.0);
                builder = builder.faults(slow);
            }
            let result = builder.build().run_silent(&mut fleet);
            (result, fleet)
        };
        prop_assert_eq!(run(1), run(4));
    }
}

/// A fleet run interrupted by a snapshot resumes onto the same cohorts and
/// the same state as the uninterrupted run.
#[test]
fn fleet_resume_draws_identical_cohorts() {
    let builder = |rounds: usize| {
        DriverBuilder::new()
            .rounds(rounds)
            .cohort(CohortPolicy::Sample { size: 64, seed: 77 })
    };
    let mut straight = FleetSim::new(FLEET, 6, 8, 5);
    let mut full_log = EventLog::new();
    let full = builder(4).build().run(&mut straight, &mut full_log);

    let mut halted = FleetSim::new(FLEET, 6, 8, 5);
    let _ = builder(2).build().run_silent(&mut halted);
    let state = Driver::snapshot(&halted, &mut NullObserver);
    let mut resumed = FleetSim::new(FLEET, 6, 8, 5);
    let tail = builder(2)
        .build()
        .resume(&mut resumed, &state, &mut NullObserver)
        .expect("snapshot restores");

    assert_eq!(resumed, straight, "resumed server state matches");
    assert_eq!(tail.history, full.history[2..], "resumed metrics match");
}

// --- the bit-identity gate matrix, across every algorithm ----------------
//
// One `streaming_matches_legacy_for_*` test per algorithm: the names date
// from a two-configuration comparison and are what the test-floor list
// keys on; each now runs the whole matrix.

const CLIENTS: usize = 5;

fn scenario(seed: u64) -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(CLIENTS)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(300)
        .public_size(90)
        .global_test_size(90)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

fn res_mlp(tier: DepthTier) -> ModelSpec {
    ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier,
    }
}

fn client_spec() -> ModelSpec {
    res_mlp(DepthTier::T11)
}

/// T11/T20/T29 round-robin: two architectures repeat with others in
/// between, so the grouped plan seeds workers in an order other than the
/// input order (all-distinct or all-equal specs would group to the
/// identity).
fn mixed_specs() -> Vec<ModelSpec> {
    let tiers = [DepthTier::T11, DepthTier::T20, DepthTier::T29];
    (0..CLIENTS).map(|i| res_mlp(tiers[i % 3])).collect()
}

fn server_spec() -> ModelSpec {
    res_mlp(DepthTier::T20)
}

fn fast_baseline() -> BaselineConfig {
    BaselineConfig {
        local_epochs: 1,
        server_epochs: 1,
        digest_epochs: 1,
        ..BaselineConfig::default()
    }
}

fn fast_pkd() -> FedPkdConfig {
    FedPkdConfig {
        client_private_epochs: 1,
        client_public_epochs: 1,
        server_epochs: 1,
        ..FedPkdConfig::default()
    }
}

/// The gate matrix: `(label, worker budget)`, the one-thread reference
/// first. Budget 1 vs 2 is also FedPKD's server step inline vs on its step
/// worker (the default budget is the core count, so only an explicit 2
/// engages the worker on every machine).
const GATE: [(&str, Option<usize>); 3] = [
    ("w1-inline-step", Some(1)),
    ("w2-step-worker", Some(2)),
    ("default-budget", None),
];

/// Every configuration of [`GATE`] must reproduce the reference
/// configuration bit for bit — the `RunResult` (history and ledger) and the
/// final snapshot (every model, optimizer and RNG state; accuracies alone
/// would let a one-ulp drift through): the worker budget changes when and
/// where work happens, never what it computes. (That the kernels compute
/// what the scalar reference would is held per entry point, in
/// `tests/kernels.rs` and `crates/tensor/tests/properties.rs`.)
fn assert_gate_matrix<A: Federation>(name: &str, make: impl Fn() -> A) {
    let run = |workers: Option<usize>| {
        let builder = DriverBuilder::new().rounds(ROUNDS);
        let builder = match workers {
            Some(workers) => builder.workers(workers),
            None => builder,
        };
        let mut algo = make();
        let result = builder.build().run_silent(&mut algo);
        (result, Driver::snapshot(&algo, &mut NullObserver))
    };
    let (reference_label, workers) = GATE[0];
    let reference = run(workers);
    for (label, workers) in &GATE[1..] {
        assert!(
            run(*workers) == reference,
            "{name}: {label} diverged from {reference_label}"
        );
    }
}

/// FedPKD under its default configuration and the two feature modes whose
/// server math takes another aggregation path (trimmed) or an extra model
/// in the loop (the data-free generator).
#[test]
fn streaming_matches_legacy_for_fedpkd() {
    let rows = [
        ("FedPKD", fast_pkd()),
        (
            "FedPKD/trimmed",
            FedPkdConfig {
                robust: RobustAggregation::Trimmed { trim_fraction: 0.2 },
                ..fast_pkd()
            },
        ),
        (
            "FedPKD/generated",
            FedPkdConfig {
                distill_source: DistillSource::Generated,
                ..fast_pkd()
            },
        ),
    ];
    for (name, config) in rows {
        assert_gate_matrix(name, || {
            FedPkd::new(
                scenario(21),
                mixed_specs(),
                server_spec(),
                config.clone(),
                9,
            )
            .unwrap()
        });
    }
}

/// Budget 1 vs budget ≥ 2 is also inline vs worker for FedPKD's server
/// step: at 1 the distillation step runs whole on the training thread, at
/// 2 and above its updates run on the scoped step worker — pinned here
/// explicitly, because the default budget is 1 on a one-core machine.
#[test]
fn fedpkd_inline_server_step_at_budget_1_matches_step_worker_at_budgets_2_and_8() {
    let run = |workers: usize| {
        let mut algo = FedPkd::new(
            scenario(21),
            vec![client_spec(); CLIENTS],
            server_spec(),
            fast_pkd(),
            9,
        )
        .unwrap();
        let result = DriverBuilder::new()
            .rounds(ROUNDS)
            .workers(workers)
            .build()
            .run_silent(&mut algo);
        (result, Driver::snapshot(&algo, &mut NullObserver))
    };
    let inline = run(1);
    for workers in [2, 8] {
        assert_eq!(run(workers), inline, "budget {workers} vs budget 1");
    }
}

/// A data-free round spends its budget in order: at 1 the generator
/// refines inline after the server distills; at 2 it refines on a second
/// thread, against a copy of the server, while the distillation steps
/// inline, and that thread becomes the distillation's step worker once the
/// refine returns; from 3 the distillation has a step worker of its own.
/// Every budget must give the budget-1 run, and the telemetry must arrive
/// in the same order — only the measured seconds may differ.
#[test]
fn fedpkd_data_free_refine_beside_distill_at_budgets_2_3_and_8_matches_budget_1() {
    let run = |workers: usize, obs: &mut dyn RoundObserver| {
        let mut algo = FedPkd::new(
            scenario(21),
            vec![client_spec(); CLIENTS],
            server_spec(),
            FedPkdConfig {
                distill_source: DistillSource::Generated,
                ..fast_pkd()
            },
            9,
        )
        .unwrap();
        let result = DriverBuilder::new()
            .rounds(ROUNDS)
            .workers(workers)
            .build()
            .run(&mut algo, obs);
        (result, Driver::snapshot(&algo, &mut NullObserver))
    };
    let inline = run(1, &mut NullObserver);
    for workers in [2, 3, 8] {
        assert_eq!(
            run(workers, &mut NullObserver),
            inline,
            "budget {workers} vs budget 1"
        );
    }
    let events = |workers: usize| {
        let mut log = EventLog::new();
        run(workers, &mut log);
        let mut events = log.events().to_vec();
        for event in &mut events {
            if let TelemetryEvent::PhaseTiming { seconds, .. }
            | TelemetryEvent::RoundEnd { seconds, .. } = event
            {
                *seconds = 0.0;
            }
        }
        events
    };
    let inline = events(1);
    // Every round refined and distilled, so budget 2 took the overlap, and
    // the refine is recorded first wherever it ran.
    for kind in ["generator_refined", "server_distill"] {
        let count = inline.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count, ROUNDS, "{kind} events");
    }
    let order: Vec<&str> = inline
        .iter()
        .map(TelemetryEvent::kind)
        .filter(|kind| ["generator_refined", "server_distill"].contains(kind))
        .collect();
    assert_eq!(
        order,
        ["generator_refined", "server_distill"].repeat(ROUNDS)
    );
    assert_eq!(events(2), inline, "event stream at budget 2 vs budget 1");
}

#[test]
fn streaming_matches_legacy_for_fedavg() {
    assert_gate_matrix("FedAvg", || {
        FedAvg::new(scenario(22), server_spec(), fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_fedprox() {
    assert_gate_matrix("FedProx", || {
        FedProx::new(scenario(23), server_spec(), fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_fedmd() {
    assert_gate_matrix("FedMD", || {
        FedMd::new(scenario(24), mixed_specs(), fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_dsfl() {
    assert_gate_matrix("DS-FL", || {
        DsFl::new(scenario(25), mixed_specs(), fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_feddf() {
    assert_gate_matrix("FedDF", || {
        FedDf::new(scenario(26), server_spec(), fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_fedet() {
    assert_gate_matrix("FedET", || {
        FedEt::new(
            scenario(27),
            mixed_specs(),
            server_spec(),
            fast_baseline(),
            9,
        )
        .unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_naive_kd() {
    assert_gate_matrix("NaiveKD", || {
        NaiveKd::new(
            scenario(28),
            mixed_specs(),
            server_spec(),
            fast_baseline(),
            9,
        )
        .unwrap()
    });
}

/// FedPKD keeps every admitted upload's probabilities when diagnostics are
/// on (the observer's statistics need the full set) and only the running
/// fold when silent; both aggregate through that one fold, and must leave
/// identical round metrics, traffic and final state.
#[test]
fn observed_buffered_run_matches_silent_streaming_run() {
    let make = || {
        FedPkd::new(
            scenario(29),
            vec![client_spec(); CLIENTS],
            server_spec(),
            fast_pkd(),
            13,
        )
        .unwrap()
    };
    let mut silent_algo = make();
    let silent = Driver::rounds(ROUNDS).run_silent(&mut silent_algo);
    let mut log = EventLog::new();
    let mut observed_algo = make();
    let observed = Driver::rounds(ROUNDS).run(&mut observed_algo, &mut log);
    assert_eq!(silent, observed, "observed and silent runs agree");
    assert!(
        Driver::snapshot(&silent_algo, &mut NullObserver)
            == Driver::snapshot(&observed_algo, &mut NullObserver),
        "observed and silent runs end in the same state"
    );
    assert!(!log.events().is_empty());
}
