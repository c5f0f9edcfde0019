//! Byzantine robustness: FedPKD under active adversaries, with and without
//! robust aggregation.
//!
//! Seats two attackers in a five-client fleet — a label-flip poisoner
//! (finite, well-shaped, undetectable by admission control) and a
//! NaN-spewing client (caught at admission) — then runs the same federation
//! three ways: clean, attacked with the paper-faithful aggregation, and
//! attacked with trimmed aggregation. Admission control is always on, so
//! both attacked runs reject the garbage payloads with typed telemetry and
//! quarantine the repeat offender; only trimming survives the label
//! flipper. The trimmed run replays bit-identically from the plan's seed.
//!
//! ```sh
//! cargo run --release --example byzantine
//! ```

use fedpkd::prelude::*;

const ROUNDS: usize = 5;
const CLIENTS: usize = 5;
const SEED: u64 = 31;

fn scenario() -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(CLIENTS)
        // Near-IID: trimming presumes an agreeing honest majority (see
        // DESIGN.md §5d on why heavy skew erodes that premise).
        .partition(Partition::Dirichlet { alpha: 10.0 })
        .samples(1_500)
        .public_size(300)
        .global_test_size(400)
        .seed(SEED)
        .build()
        .expect("valid scenario")
}

fn federation(config: FedPkdConfig) -> FedPkd {
    let client_spec = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T11,
    };
    let server_spec = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T29,
    };
    FedPkd::new(
        scenario(),
        vec![client_spec; CLIENTS],
        server_spec,
        config,
        SEED,
    )
    .expect("valid federation")
}

fn base_config() -> FedPkdConfig {
    FedPkdConfig {
        client_private_epochs: 3,
        client_public_epochs: 2,
        server_epochs: 6,
        learning_rate: 0.003,
        ..FedPkdConfig::default()
    }
}

fn main() {
    // Client 2 flips its logits (stays finite and well-shaped — admission
    // cannot see it; only trimming can). Client 4 uploads NaN garbage every
    // round — admission rejects it and quarantines after three strikes.
    let plan = FaultPlan::new(9)
        .with_adversary(2, Attack::LogitLabelFlip)
        .with_adversary(4, Attack::NonFinitePayload);

    let clean = Driver::rounds(ROUNDS).run_silent(&mut federation(base_config()));

    // Paper-faithful Eqs. 6–8 behind admission: the NaN payload is turned
    // away, but the flipped logits look confident, so Eq. 7 rewards them.
    let attacked = DriverBuilder::new()
        .rounds(ROUNDS)
        .faults(plan.clone())
        .build()
        .run_silent(&mut federation(base_config()));

    let defended_config = FedPkdConfig {
        robust: RobustAggregation::Trimmed {
            trim_fraction: 0.25,
        },
        ..base_config()
    };
    let mut log = EventLog::new();
    let defended = DriverBuilder::new()
        .rounds(ROUNDS)
        .faults(plan.clone())
        .build()
        .run(&mut federation(defended_config.clone()), &mut log);

    println!(" round | server acc | rejected payloads");
    for m in &defended.history {
        let rejected: Vec<String> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::PayloadRejected {
                    round,
                    client,
                    payload,
                    reason,
                } if *round == m.round => {
                    Some(format!("{client}:{}/{}", payload.name(), reason.name()))
                }
                _ => None,
            })
            .collect();
        println!(
            " {:>5} | {:>9.3} | {}",
            m.round,
            m.server_accuracy.unwrap_or(f64::NAN),
            if rejected.is_empty() {
                "-".to_string()
            } else {
                rejected.join(" ")
            }
        );
    }

    for e in log.events() {
        if let TelemetryEvent::ClientQuarantined {
            round,
            client,
            consecutive,
        } = e
        {
            println!(
                "\n client {client} quarantined in round {round} after {consecutive} \
                 consecutive rejections"
            );
        }
    }

    let clean_acc = clean.best_server_accuracy().unwrap_or(f64::NAN);
    let attacked_acc = attacked.best_server_accuracy().unwrap_or(f64::NAN);
    let defended_acc = defended.best_server_accuracy().unwrap_or(f64::NAN);
    println!("\n clean (no adversaries)          : best server acc {clean_acc:.3}");
    println!(" attacked, admission + Eq. 6-8   : best server acc {attacked_acc:.3}");
    println!(" attacked, admission + trimming  : best server acc {defended_acc:.3}");
    assert!(
        defended_acc > attacked_acc,
        "trimming must pay for itself under attack"
    );

    // The attack roster is pure data keyed by the plan seed: the defended
    // run replays bit for bit.
    let replay = DriverBuilder::new()
        .rounds(ROUNDS)
        .faults(plan)
        .build()
        .run_silent(&mut federation(defended_config));
    assert_eq!(
        replay, defended,
        "adversarial runs replay deterministically"
    );
    println!(" replay                          : bit-identical ✓");
}
