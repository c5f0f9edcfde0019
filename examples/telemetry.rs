//! Telemetry: watch a FedPKD run from the inside — stream every round's
//! events to a JSONL trace file and print a per-round summary of what the
//! prototype filter (Algorithm 1) and the server distillation (Eq. 13)
//! actually did.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use std::fs::File;
use std::io::BufWriter;

use fedpkd::prelude::*;

const ROUNDS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
        .clients(4)
        .partition(Partition::Dirichlet { alpha: 0.3 })
        .samples(1_200)
        .public_size(300)
        .global_test_size(400)
        .seed(21)
        .build()?;
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
    let config = FedPkdConfig {
        client_private_epochs: 3,
        client_public_epochs: 2,
        server_epochs: 6,
        learning_rate: 0.002,
        ..FedPkdConfig::default()
    };
    let mut algo = FedPkd::new(scenario, vec![client_spec; 4], server_spec, config, 9)?;

    // One run, two observers' worth of output: collect events in memory for
    // the summary below, and mirror each one to a JSONL trace on disk.
    let mut log = EventLog::new();
    let result = Driver::rounds(ROUNDS).run(&mut algo, &mut log);

    let trace_path = "fedpkd-trace.jsonl";
    let mut sink = JsonlSink::new(BufWriter::new(File::create(trace_path)?));
    for event in log.events() {
        sink.record(event);
    }
    sink.into_inner()?;
    // The trace is one JSON object per event, in order (`scripts/check.sh`
    // runs every example as a smoke).
    let trace = std::fs::read_to_string(trace_path)?;
    assert_eq!(trace.lines().count(), log.events().len());
    for (line, event) in trace.lines().zip(log.events()) {
        let kind = format!("\"event\":\"{}\"", event.kind());
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains(&kind),
            "not a {} line: {line}",
            event.kind()
        );
    }
    println!(
        "wrote {} events ({} rounds) to {trace_path}\n",
        log.events().len(),
        ROUNDS
    );

    // Per-round filter acceptance: how much of the public set survived the
    // Eq. 10 prototype-distance test, and at what loss to the server.
    println!(" round | filter kept | acceptance |   L_kd |    L_p | Eq.13 F | server acc");
    println!(" ------+-------------+------------+--------+--------+---------+-----------");
    for round in 0..ROUNDS {
        let mut kept_dropped = None;
        let mut losses = None;
        let mut accuracy = None;
        for event in log.events().iter().filter(|e| e.round() == round) {
            match event {
                TelemetryEvent::FilterOutcome { kept, dropped, .. } => {
                    kept_dropped = Some((*kept, *dropped));
                }
                TelemetryEvent::ServerDistill {
                    kd_loss,
                    proto_loss,
                    combined_loss,
                    ..
                } => losses = Some((*kd_loss, *proto_loss, *combined_loss)),
                TelemetryEvent::RoundEnd {
                    server_accuracy, ..
                } => accuracy = *server_accuracy,
                _ => {}
            }
        }
        let (kept, dropped) = kept_dropped.expect("FedPKD filters every round");
        let (kd, proto, combined) = losses.expect("FedPKD distills every round");
        println!(
            "  {:>4} | {:>5}/{:<5} | {:>9.1}% | {:>6.3} | {:>6.3} | {:>7.3} | {:>9.2}%",
            round,
            kept,
            kept + dropped,
            100.0 * kept as f64 / (kept + dropped) as f64,
            kd,
            proto,
            combined,
            accuracy.unwrap_or(0.0) * 100.0,
        );
    }

    // Where the wall-clock went, summed over the run.
    println!("\nwall-clock by phase (all rounds):");
    for phase in [
        "client_training",
        "aggregation",
        "filter",
        "server_distill",
        "client_distill",
        "evaluation",
    ] {
        let timings: Vec<f64> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::PhaseTiming {
                    phase: p, seconds, ..
                } if p.name() == phase => Some(*seconds),
                _ => None,
            })
            .collect();
        assert_eq!(timings.len(), ROUNDS, "{phase} is timed once a round");
        println!("  {phase:<16} {:>7.3} s", timings.iter().sum::<f64>());
    }
    println!(
        "\nbest server accuracy: {:.2}%  |  total traffic: {:.3} MB",
        result.best_server_accuracy().unwrap_or(0.0) * 100.0,
        bytes_to_mb(result.ledger.total_bytes()),
    );
    Ok(())
}
