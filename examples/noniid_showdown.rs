//! Non-IID showdown: sweep the Dirichlet concentration α and watch how
//! FedAvg degrades while FedPKD holds up — the motivating phenomenon of the
//! paper (Fig. 1) and its headline result (Figs. 5–6).
//!
//! ```sh
//! cargo run --release --example noniid_showdown
//! ```

use fedpkd::prelude::*;

const ROUNDS: usize = 6;
const SEED: u64 = 314;

fn scenario(alpha: f64) -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(5)
        .partition(Partition::Dirichlet { alpha })
        .samples(1_500)
        .public_size(400)
        .global_test_size(600)
        .seed(SEED)
        .build()
        .expect("valid scenario")
}

fn spec(tier: DepthTier) -> ModelSpec {
    ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("sweeping non-IID severity (smaller α = more skew), {ROUNDS} rounds each\n");
    println!("   α   | FedAvg server | FedPKD server | FedPKD clients");
    println!(" ------+---------------+---------------+---------------");

    for alpha in [10.0, 1.0, 0.5, 0.1] {
        let mut avg = FedAvg::new(
            scenario(alpha),
            spec(DepthTier::T20),
            BaselineConfig {
                local_epochs: 3,
                learning_rate: 0.002,
                ..BaselineConfig::default()
            },
            SEED,
        )?;
        let avg_result = Driver::rounds(ROUNDS).run_silent(&mut avg);

        let mut pkd = FedPkd::new(
            scenario(alpha),
            vec![spec(DepthTier::T20); 5],
            spec(DepthTier::T56),
            FedPkdConfig {
                client_private_epochs: 3,
                client_public_epochs: 2,
                server_epochs: 6,
                learning_rate: 0.002,
                ..FedPkdConfig::default()
            },
            SEED,
        )?;
        let pkd_result = Driver::rounds(ROUNDS).run_silent(&mut pkd);

        let avg_best = avg_result.best_server_accuracy().unwrap_or(0.0);
        let pkd_best = pkd_result.best_server_accuracy().unwrap_or(0.0);
        println!(
            " {alpha:>5.2} |       {:>6.2}% |       {:>6.2}% |        {:>6.2}%",
            avg_best * 100.0,
            pkd_best * 100.0,
            pkd_result.best_client_accuracy() * 100.0,
        );
        // The headline, checked where it is widest (`scripts/check.sh`
        // runs every example as a smoke).
        assert!(
            alpha > 0.1 || pkd_best > avg_best,
            "at α = {alpha} FedPKD ({pkd_best:.3}) must beat FedAvg ({avg_best:.3})"
        );
    }

    println!("\nExpected shape: both methods fall as α shrinks; FedPKD falls less.");
    Ok(())
}
