//! Communication budget: how many megabytes does each method spend to reach
//! a target accuracy, and what does that mean on a real uplink?
//!
//! Reproduces the logic behind Table I of the paper on a laptop-scale
//! scenario: run FedPKD, FedAvg, and FedMD to a target accuracy, read the
//! byte-accurate communication ledger, and convert the straggler's payload
//! into wall-clock transfer time over WiFi and cellular links.
//!
//! ```sh
//! cargo run --release --example communication_budget
//! ```

use fedpkd::prelude::*;

const ROUNDS: usize = 8;
const SEED: u64 = 99;
const TARGET: f64 = 0.45;

fn scenario() -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(5)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(1_500)
        .public_size(400)
        .global_test_size(600)
        .seed(SEED)
        .build()
        .expect("valid scenario")
}

fn spec() -> ModelSpec {
    ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T20,
    }
}

/// Prints one table row and returns the bytes `result` spent to reach
/// [`TARGET`], if it did.
fn describe(name: &str, result: &RunResult, client_target: bool) -> Option<usize> {
    let bytes = if client_target {
        result.bytes_to_client_accuracy(TARGET)
    } else {
        result.bytes_to_server_accuracy(TARGET)
    };
    let cost = bytes
        .map(|b| format!("{:>8.3} MB", bytes_to_mb(b)))
        .unwrap_or_else(|| "   not reached".to_string());
    // Straggler view: the slowest client's round-0 uplink over two links.
    let uplinks = result.ledger.round_client_uplinks(0, 5);
    let wifi = LinkModel::wifi().round_time(&uplinks);
    let lte = LinkModel::cellular().round_time(&uplinks);
    println!(" {name:<8} | {cost} | {:>9.3} s | {:>9.3} s", wifi, lte);
    bytes
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "target accuracy: {:.0}% | 5 clients, Dirichlet(0.5)\n",
        TARGET * 100.0
    );
    println!(" method   | bytes to target | wifi round | lte round");
    println!(" ---------+-----------------+------------+----------");

    let mut pkd = FedPkd::new(
        scenario(),
        vec![spec(); 5],
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier: DepthTier::T56,
        },
        FedPkdConfig {
            client_private_epochs: 3,
            client_public_epochs: 2,
            server_epochs: 6,
            learning_rate: 0.002,
            ..FedPkdConfig::default()
        },
        SEED,
    )?;
    let pkd_cost = describe(
        "FedPKD",
        &Driver::rounds(ROUNDS).run_silent(&mut pkd),
        false,
    );

    let base = BaselineConfig {
        local_epochs: 3,
        server_epochs: 6,
        digest_epochs: 2,
        learning_rate: 0.002,
        ..BaselineConfig::default()
    };
    let mut avg = FedAvg::new(scenario(), spec(), base.clone(), SEED)?;
    let avg_cost = describe(
        "FedAvg",
        &Driver::rounds(ROUNDS).run_silent(&mut avg),
        false,
    );

    let mut md = FedMd::new(scenario(), vec![spec(); 5], base, SEED)?;
    describe("FedMD", &Driver::rounds(ROUNDS).run_silent(&mut md), true);

    println!("\nFedPKD ships logits + prototypes (KB); FedAvg ships parameters (100s of KB).");
    println!("FedMD has no server model, so its target is mean client accuracy.");
    // Table I's ordering (`scripts/check.sh` runs every example as a smoke).
    let pkd_cost = pkd_cost.expect("FedPKD reaches the target");
    let avg_cost = avg_cost.expect("FedAvg reaches the target");
    assert!(
        pkd_cost < avg_cost,
        "FedPKD spent {pkd_cost} B to the target, FedAvg {avg_cost} B"
    );
    Ok(())
}
