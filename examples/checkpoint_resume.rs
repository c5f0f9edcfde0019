//! Checkpoint/resume: interrupt a 10-round FedPKD run at round 5 and
//! resume it from a serialized snapshot — bit-identically.
//!
//! The "reference" run drives all 10 rounds in one go. The "interrupted"
//! run drives 5 rounds, streams its complete state through the versioned
//! byte codec (exactly what `ckpt.bin` on disk would hold), and is then
//! dropped — the process crash. A fresh same-config instance restores the
//! bytes and drives the remaining 5 rounds. Because the whole stack is
//! deterministic and the snapshot captures every mutable word (client
//! models and Adam moments, server model/optimizer/RNG, global prototypes,
//! stale-prototype caches, quarantine streaks, the communication ledger,
//! and the fault-plan round position), the resumed half reproduces the
//! reference run's metrics, telemetry, and ledger bytes exactly — even
//! with dropout faults active across the interruption.
//!
//! ```sh
//! cargo run --release --example checkpoint_resume
//! ```

use fedpkd::prelude::*;

const ROUNDS: usize = 10;
const INTERRUPT_AT: usize = 5;
const SEED: u64 = 77;

fn scenario() -> fedpkd::data::FederatedScenario {
    ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(4)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .samples(800)
        .public_size(200)
        .global_test_size(300)
        .seed(SEED)
        .build()
        .expect("valid scenario")
}

fn federation() -> FedPkd {
    let tiers = [
        DepthTier::T11,
        DepthTier::T20,
        DepthTier::T20,
        DepthTier::T29,
    ];
    let client_specs: Vec<ModelSpec> = tiers
        .iter()
        .map(|&tier| ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier,
        })
        .collect();
    let server_spec = ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier: DepthTier::T56,
    };
    let config = FedPkdConfig {
        client_private_epochs: 1,
        client_public_epochs: 1,
        server_epochs: 2,
        learning_rate: 0.003,
        ..FedPkdConfig::default()
    };
    FedPkd::new(scenario(), client_specs, server_spec, config, SEED).expect("valid federation")
}

fn main() {
    // Faults stay on across the interruption: the snapshot must carry the
    // plan's round position, not just the models.
    let plan = FaultPlan::new(13).with_dropout(0.2);

    println!("=== reference: {ROUNDS} rounds, uninterrupted ===");
    let full = DriverBuilder::new()
        .rounds(ROUNDS)
        .faults(plan.clone())
        .build()
        .run_silent(&mut federation());
    for m in &full.history {
        println!(
            "  round {:>2}  server acc {:.3}",
            m.round,
            m.server_accuracy.unwrap_or(f64::NAN)
        );
    }

    println!("\n=== interrupted: {INTERRUPT_AT} rounds, then snapshot + kill ===");
    let mut first_half = federation();
    let _ = DriverBuilder::new()
        .rounds(INTERRUPT_AT)
        .faults(plan.clone())
        .build()
        .run_silent(&mut first_half);
    // `snapshot_to` streams into any `io::Write` — a `File`, in production.
    let mut checkpoint = Vec::new();
    first_half
        .snapshot_to(&mut checkpoint)
        .expect("snapshot streams out");
    println!(
        "  snapshot after round {}: {} bytes (versioned, checksummed)",
        INTERRUPT_AT,
        checkpoint.len()
    );
    drop(first_half); // the crash — only the bytes survive

    println!("\n=== resume: fresh instance restores the bytes ===");
    let mut resumed_algo = federation();
    resumed_algo
        .restore_from(&mut checkpoint.as_slice())
        .expect("restore succeeds");
    // Round numbering and the ledger came back with the state, so a plain
    // `run` continues at round 5.
    let resumed = DriverBuilder::new()
        .rounds(ROUNDS - INTERRUPT_AT)
        .faults(plan)
        .build()
        .run_silent(&mut resumed_algo);
    for m in &resumed.history {
        println!(
            "  round {:>2}  server acc {:.3}",
            m.round,
            m.server_accuracy.unwrap_or(f64::NAN)
        );
    }

    // The oracle: the resumed half must equal the reference run's back
    // half — per-round metrics and lifetime ledger, bit for bit.
    assert_eq!(
        resumed.history,
        full.history[INTERRUPT_AT..].to_vec(),
        "resumed metrics must match the uninterrupted run"
    );
    assert_eq!(
        resumed.ledger, full.ledger,
        "lifetime ledger must match the uninterrupted run"
    );
    let last = full.history.last().expect("history is non-empty");
    println!(
        "\nresume is bit-identical: final server accuracy {:.3}, {} ledger bytes",
        last.server_accuracy.unwrap_or(f64::NAN),
        full.ledger.total_bytes()
    );
}
