//! Quickstart: run FedPKD on a small non-IID federation and watch the
//! server and client models improve round by round.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fedpkd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a federated scenario: a 10-class CIFAR-like task split
    //    across 6 clients with a Dirichlet(0.3) non-IID partition, plus an
    //    unlabeled public pool and a global test set.
    let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(6)
        .partition(Partition::Dirichlet { alpha: 0.3 })
        .samples(1_800)
        .public_size(400)
        .global_test_size(600)
        .seed(42)
        .build()?;
    println!(
        "scenario: {} clients, {} private samples, {} public, {} test",
        scenario.num_clients(),
        scenario.total_train_samples(),
        scenario.public.len(),
        scenario.global_test.len(),
    );

    // 2. Models: every client runs the ResNet20 analog; the server runs the
    //    larger ResNet56 analog (impossible under FedAvg, natural here).
    let client_spec = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T20,
    };
    let server_spec = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T56,
    };

    // 3. FedPKD with paper hyperparameters (θ = 0.7, δ = γ = ε = 0.5) and a
    //    laptop-scale epoch budget.
    let config = FedPkdConfig {
        client_private_epochs: 3,
        client_public_epochs: 2,
        server_epochs: 6,
        learning_rate: 0.002,
        ..FedPkdConfig::default()
    };
    let mut algo = FedPkd::new(scenario, vec![client_spec; 6], server_spec, config, 7)?;

    // 4. Run 8 communication rounds via the driver. (`run_silent` skips
    // telemetry; see the
    //    `telemetry` example for observing rounds as they happen.)
    let result = Driver::rounds(8).run_silent(&mut algo);
    println!("\n round | server acc | mean client acc | cumulative MB");
    println!(" ------+------------+-----------------+--------------");
    for m in &result.history {
        println!(
            "  {:>4} |    {:>6.2}% |         {:>6.2}% | {:>12.3}",
            m.round,
            m.server_accuracy.unwrap_or(0.0) * 100.0,
            m.mean_client_accuracy() * 100.0,
            bytes_to_mb(m.cumulative_bytes),
        );
    }
    let best = result.best_server_accuracy().unwrap_or(0.0);
    println!(
        "\nbest server accuracy: {:.2}%  (chance is 10%)",
        best * 100.0
    );
    // `scripts/check.sh` runs every example as a smoke.
    assert!(best >= 0.5, "server stuck at {best:.3}, chance is 0.10");
    Ok(())
}
