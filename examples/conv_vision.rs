//! Convolutional path: run FedPKD on *image-mode* synthetic data with the
//! residual conv-net models — the pipeline the paper's CIFAR experiments
//! would use with real pixels.
//!
//! Smaller than the other examples (convolutions are the slow path of a
//! from-scratch library), but it exercises every FedPKD mechanism on
//! `[n, c, h, w]` tensors end to end.
//!
//! ```sh
//! cargo run --release --example conv_vision
//! ```

use fedpkd::data::DataMode;
use fedpkd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let classes = 6;
    let config = SyntheticConfig {
        num_classes: classes,
        modes_per_class: 1,
        mode: DataMode::Image {
            channels: 3,
            size: 8,
        },
        class_separation: 3.0,
        mode_spread: 0.4,
        sample_noise: 0.6,
        label_noise: 0.0,
    };
    let scenario = ScenarioBuilder::new(config)
        .clients(3)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(720)
        .public_size(240)
        .global_test_size(180)
        .seed(5)
        .build()?;
    println!(
        "image-mode scenario: {} clients, 3×8×8 images, {} classes",
        scenario.num_clients(),
        classes
    );

    let client_spec = ModelSpec::ConvNet {
        in_channels: 3,
        image_size: 8,
        num_classes: classes,
        tier: DepthTier::T11,
    };
    let server_spec = ModelSpec::ConvNet {
        in_channels: 3,
        image_size: 8,
        num_classes: classes,
        tier: DepthTier::T20,
    };
    let config = FedPkdConfig {
        client_private_epochs: 6,
        client_public_epochs: 2,
        server_epochs: 8,
        learning_rate: 0.003,
        ..FedPkdConfig::default()
    };
    let mut algo = FedPkd::new(scenario, vec![client_spec; 3], server_spec, config, 11)?;
    let result = Driver::rounds(5).run_silent(&mut algo);

    println!("\n round | server acc | mean client acc");
    for m in &result.history {
        println!(
            "  {:>4} |    {:>6.2}% |         {:>6.2}%",
            m.round,
            m.server_accuracy.unwrap_or(0.0) * 100.0,
            m.mean_client_accuracy() * 100.0,
        );
    }
    let best = result.best_server_accuracy().unwrap_or(0.0);
    let chance = 1.0 / classes as f64;
    println!(
        "\nconv-path FedPKD reaches {:.1}% (chance {:.1}%)",
        best * 100.0,
        chance * 100.0
    );
    // The conv family's gate: `scripts/check.sh` runs this as a smoke.
    assert!(
        best >= 2.0 * chance,
        "conv path stuck at {best:.3}, chance is {chance:.3}"
    );
    Ok(())
}
