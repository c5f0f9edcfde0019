//! Heterogeneous fleet: clients run *different* model architectures sized
//! to their (simulated) hardware, and a large server model learns from all
//! of them — the deployment FedAvg cannot express.
//!
//! Compares FedPKD against the heterogeneity-capable baselines FedMD,
//! DS-FL, and FedET on the same scenario.
//!
//! ```sh
//! cargo run --release --example heterogeneous_fleet
//! ```

use fedpkd::prelude::*;

const ROUNDS: usize = 6;
const SEED: u64 = 2024;

fn scenario() -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(6)
        .partition(Partition::Dirichlet { alpha: 0.3 })
        .samples(1_800)
        .public_size(400)
        .global_test_size(600)
        .seed(SEED)
        .build()
        .expect("valid scenario")
}

/// A mixed fleet: two small-phone clients (T11), two mid-tier (T20), two
/// powerful edge boxes (T29).
fn client_specs() -> Vec<ModelSpec> {
    [
        DepthTier::T11,
        DepthTier::T11,
        DepthTier::T20,
        DepthTier::T20,
        DepthTier::T29,
        DepthTier::T29,
    ]
    .into_iter()
    .map(|tier| ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier,
    })
    .collect()
}

fn server_spec() -> ModelSpec {
    ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T56,
    }
}

fn report(name: &str, result: &RunResult) {
    let server = result
        .best_server_accuracy()
        .map(|a| format!("{:>6.2}%", a * 100.0))
        .unwrap_or_else(|| "   n/a".to_string());
    println!(
        " {name:<8} | {server} |        {:>6.2}% | {:>10.3}",
        result.best_client_accuracy() * 100.0,
        bytes_to_mb(result.ledger.total_bytes()),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("fleet: 2×ResNet11, 2×ResNet20, 2×ResNet29 clients; ResNet56 server");
    println!("partition: Dirichlet(0.3), {ROUNDS} rounds\n");
    println!(" method   | server acc | best client acc |   total MB");
    println!(" ---------+------------+-----------------+-----------");

    let pkd_config = FedPkdConfig {
        client_private_epochs: 3,
        client_public_epochs: 2,
        server_epochs: 6,
        learning_rate: 0.002,
        ..FedPkdConfig::default()
    };
    let mut fedpkd = FedPkd::new(scenario(), client_specs(), server_spec(), pkd_config, SEED)?;
    let pkd_result = Driver::rounds(ROUNDS).run_silent(&mut fedpkd);
    report("FedPKD", &pkd_result);

    let base_config = BaselineConfig {
        local_epochs: 3,
        server_epochs: 6,
        digest_epochs: 2,
        learning_rate: 0.002,
        ..BaselineConfig::default()
    };
    let mut fedmd = FedMd::new(scenario(), client_specs(), base_config.clone(), SEED)?;
    report("FedMD", &Driver::rounds(ROUNDS).run_silent(&mut fedmd));

    let mut dsfl = DsFl::new(scenario(), client_specs(), base_config.clone(), SEED)?;
    report("DS-FL", &Driver::rounds(ROUNDS).run_silent(&mut dsfl));

    let mut fedet = FedEt::new(scenario(), client_specs(), server_spec(), base_config, SEED)?;
    let et_result = Driver::rounds(ROUNDS).run_silent(&mut fedet);
    report("FedET", &et_result);

    println!("\nFedMD/DS-FL train no server model; FedET pays parameter-sized uplink.");
    // `scripts/check.sh` runs every example as a smoke.
    let (pkd_bytes, et_bytes) = (
        pkd_result.ledger.total_bytes(),
        et_result.ledger.total_bytes(),
    );
    assert!(
        et_bytes > pkd_bytes,
        "FedET moved {et_bytes} B, FedPKD {pkd_bytes} B"
    );
    Ok(())
}
