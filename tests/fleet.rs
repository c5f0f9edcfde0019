//! Fleet-scale runtime tests.
//!
//! Covers the two determinism contracts the event-driven scheduler makes:
//! seeded cohort sampling is a pure, replayable function of
//! `(seed, round, fleet, size)`, and streaming aggregation at the ordered
//! commit point is bit-identical to the legacy one-client-at-a-time round
//! loop for every algorithm, at any worker budget.

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
    #[test]
    fn fleet_run_replays_identically(seed in any::<u64>(), cohort_seed in any::<u64>()) {
        let run = |workers: usize| {
            let mut fleet = FleetSim::new(FLEET, 6, 8, seed);
            let result = DriverBuilder::new()
                .rounds(ROUNDS)
                .cohort(CohortPolicy::Sample { size: 64, seed: cohort_seed })
                .workers(workers)
                .build()
                .run_silent(&mut fleet);
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

// --- streaming ≡ serial, across every algorithm --------------------------

fn scenario(seed: u64) -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(3)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(240)
        .public_size(90)
        .global_test_size(90)
        .seed(seed)
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

/// The driver at the default worker budget (streaming aggregation on the
/// work-stealing pool) must reproduce the legacy schedule — one worker,
/// one client at a time — bit for bit.
fn assert_streaming_matches_legacy<A: Federation>(name: &str, make: &dyn Fn() -> A) {
    let driven = Driver::rounds(ROUNDS).run_silent(&mut make());
    let serial = DriverBuilder::new()
        .rounds(ROUNDS)
        .workers(1)
        .build()
        .run_silent(&mut make());
    assert_eq!(driven, serial, "{name}: default workers vs serial");
}

#[test]
fn streaming_matches_legacy_for_fedpkd() {
    assert_streaming_matches_legacy("FedPKD", &|| {
        FedPkd::new(
            scenario(21),
            vec![client_spec(); 3],
            server_spec(),
            fast_pkd(),
            9,
        )
        .unwrap()
    });
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
            vec![client_spec(); 3],
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
        (result, algo.snapshot())
    };
    let inline = run(1);
    for workers in [2, 8] {
        assert_eq!(run(workers), inline, "budget {workers} vs budget 1");
    }
}

#[test]
fn streaming_matches_legacy_for_fedavg() {
    assert_streaming_matches_legacy("FedAvg", &|| {
        FedAvg::new(scenario(22), server_spec(), fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_fedprox() {
    assert_streaming_matches_legacy("FedProx", &|| {
        FedProx::new(scenario(23), server_spec(), fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_fedmd() {
    assert_streaming_matches_legacy("FedMD", &|| {
        FedMd::new(scenario(24), vec![client_spec(); 3], fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_dsfl() {
    assert_streaming_matches_legacy("DS-FL", &|| {
        DsFl::new(scenario(25), vec![client_spec(); 3], fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_feddf() {
    assert_streaming_matches_legacy("FedDF", &|| {
        FedDf::new(scenario(26), server_spec(), fast_baseline(), 9).unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_fedet() {
    assert_streaming_matches_legacy("FedET", &|| {
        FedEt::new(
            scenario(27),
            vec![client_spec(); 3],
            server_spec(),
            fast_baseline(),
            9,
        )
        .unwrap()
    });
}

#[test]
fn streaming_matches_legacy_for_naive_kd() {
    assert_streaming_matches_legacy("NaiveKD", &|| {
        NaiveKd::new(
            scenario(28),
            vec![client_spec(); 3],
            server_spec(),
            fast_baseline(),
            9,
        )
        .unwrap()
    });
}

/// FedPKD takes the buffered aggregation path when diagnostics are on (the
/// observer needs the full logit set) and the streaming path when silent;
/// the two must produce identical round metrics and traffic.
#[test]
fn observed_buffered_run_matches_silent_streaming_run() {
    let make = || {
        FedPkd::new(
            scenario(29),
            vec![client_spec(); 3],
            server_spec(),
            fast_pkd(),
            13,
        )
        .unwrap()
    };
    let silent = Driver::rounds(ROUNDS).run_silent(&mut make());
    let mut log = EventLog::new();
    let observed = Driver::rounds(ROUNDS).run(&mut make(), &mut log);
    assert_eq!(silent, observed, "streaming and buffered paths agree");
    assert!(!log.events().is_empty());
}
