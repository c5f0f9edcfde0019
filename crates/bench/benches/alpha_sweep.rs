//! α sweep — FedPKD with adaptive prototype margins against FedDF's
//! AVGLOGITS ensemble across the Dirichlet concentration grid
//! (`fedpkd_data::ALPHA_SWEEP`), each pair compared at the **equal
//! communication budget**, plus the public-vs-generated (data-free)
//! transfer-set gap at `α = 0.1`.
//!
//! Expected shape: FedPKD wins every α at equal budget, and the data-free
//! mode lands within 3 accuracy points of the public mode. Exits non-zero
//! if FedPKD falls below FedDF at any `α ≤ 0.1` or the gap exceeds 3 points.

use fedpkd_bench::{banner, print_table, run_method, Method, Scale, Setting, Task};
use fedpkd_core::fedpkd::{DistillSource, FedPkdConfig};
use fedpkd_core::runtime::RunResult;
use fedpkd_data::ALPHA_SWEEP;

const SEED: u64 = 707;
/// The data-free mode may trail the public mode by at most this much.
const MAX_DATA_FREE_GAP: f64 = 0.03;

/// Best server accuracy achievable within a communication budget: the
/// maximum over rounds whose *cumulative* bytes still fit under `budget` —
/// a heavier-per-round method gets fewer rounds, not a free pass.
fn acc_within(result: &RunResult, budget: usize) -> f64 {
    result
        .history
        .iter()
        .filter(|m| m.cumulative_bytes <= budget)
        .filter_map(|m| m.server_accuracy)
        .fold(0.0, f64::max)
}

fn main() {
    banner(
        "α sweep — FedPKD (adaptive margins) vs FedDF at equal communication budget",
        "not a paper figure — Fig. 3's communication argument, swept over Dirichlet α",
    );
    let scale = Scale::from_env();
    let margins = Scale {
        pkd: FedPkdConfig {
            adaptive_margins: true,
            ..scale.pkd.clone()
        },
        ..scale.clone()
    };
    let generated = Scale {
        pkd: FedPkdConfig {
            distill_source: DistillSource::Generated,
            ..margins.pkd.clone()
        },
        ..scale.clone()
    };
    let mut failures = Vec::new();

    let mut rows = Vec::new();
    for alpha in ALPHA_SWEEP {
        let setting = Setting::Dir { alpha };
        let pkd = run_method(Method::FedPkd, &margins, Task::C10, setting, true, SEED);
        let df = run_method(Method::FedDf, &scale, Task::C10, setting, false, SEED);
        let budget = pkd.ledger.total_bytes().min(df.ledger.total_bytes());
        let (pkd_acc, df_acc) = (acc_within(&pkd, budget), acc_within(&df, budget));
        if alpha <= 0.1 && pkd_acc < df_acc {
            failures.push(format!(
                "α={alpha}: FedPKD {pkd_acc:.4} below FedDF {df_acc:.4} at equal budget"
            ));
        }
        rows.push(vec![
            alpha.to_string(),
            format!("{pkd_acc:.4}"),
            format!("{df_acc:.4}"),
            format!("{:.4}", df.best_server_accuracy().unwrap_or(0.0)),
            budget.to_string(),
        ]);
    }
    print_table(
        "α sweep (best server accuracy within the smaller run's total bytes)",
        &[
            "α",
            "FedPKD (margins)",
            "FedDF @ equal budget",
            "FedDF unbudgeted",
            "budget (bytes)",
        ],
        &rows,
    );

    let setting = Setting::Dir { alpha: 0.1 };
    let data_free = [("public", &margins), ("generated", &generated)].map(|(source, scale)| {
        let run = run_method(Method::FedPkd, scale, Task::C10, setting, true, SEED);
        let accuracy = run.best_server_accuracy().unwrap_or(0.0);
        (source, accuracy, run.ledger.total_bytes())
    });
    let rows: Vec<Vec<String>> = data_free
        .iter()
        .map(|(source, accuracy, bytes)| {
            vec![
                source.to_string(),
                format!("{accuracy:.4}"),
                bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        "Data-free gap at α=0.1 (FedPKD, adaptive margins)",
        &["transfer set", "best server accuracy", "total bytes"],
        &rows,
    );
    let gap = data_free[0].1 - data_free[1].1;
    if gap > MAX_DATA_FREE_GAP {
        failures.push(format!(
            "data-free mode trails the public mode by {gap:.4} (> {MAX_DATA_FREE_GAP})"
        ));
    }

    println!("\nexpected shape: FedPKD column ≥ FedDF @ equal budget in every row; generated within 3 points of public.");
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
