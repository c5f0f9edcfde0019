//! α sweep — FedPKD against FedDF's AVGLOGITS ensemble across the
//! Dirichlet concentration grid (`fedpkd_data::ALPHA_SWEEP`), each pair
//! compared at the **equal communication budget**, plus the data-free
//! (generated transfer set) mode at `α = 0.1`. Every cell runs at each
//! seed of [`SEEDS`] and prints mean ± sd over them.
//!
//! Expected shape: FedPKD wins every α at equal budget. Exits non-zero
//! unless, at every seed, FedPKD is at least FedDF at equal budget for
//! every `α ≤ 0.1`, and the data-free mode's best accuracy is at least
//! what FedDF reaches within the public run's budget at `α = 0.1`. The
//! public-vs-generated gap, and the data-free mode against FedDF within
//! the generated run's (larger) budget, are printed with their spread but
//! not gated.

use fedpkd_bench::{banner, print_table, run_method, Method, Scale, Setting, Task};
use fedpkd_core::fedpkd::{DistillSource, FedPkdConfig};
use fedpkd_core::runtime::RunResult;
use fedpkd_data::ALPHA_SWEEP;

const SEEDS: [u64; 3] = [707, 1311, 2024];

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

/// Both runs' [`acc_within`] the smaller run's total bytes.
fn at_equal_budget(pkd: &RunResult, df: &RunResult) -> (f64, f64) {
    let budget = pkd.ledger.total_bytes().min(df.ledger.total_bytes());
    (acc_within(pkd, budget), acc_within(df, budget))
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `mean ± sd` (sample standard deviation) of one value per seed.
fn mean_sd(values: &[f64]) -> String {
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    format!("{m:.4} ± {:.4}", var.sqrt())
}

/// Column `k` of one-row-per-seed measurements.
fn column<const N: usize>(rows: &[[f64; N]], k: usize) -> Vec<f64> {
    rows.iter().map(|row| row[k]).collect()
}

fn best(run: &RunResult) -> f64 {
    run.best_server_accuracy().unwrap_or(0.0)
}

fn bytes(run: &RunResult) -> f64 {
    run.ledger.total_bytes() as f64
}

fn main() {
    banner(
        "α sweep — FedPKD vs FedDF at equal communication budget",
        "not a paper figure — Fig. 3's communication argument, swept over Dirichlet α",
    );
    let scale = Scale::from_env();
    let generated = Scale {
        pkd: FedPkdConfig {
            distill_source: DistillSource::Generated,
            ..scale.pkd.clone()
        },
        ..scale.clone()
    };
    let mut failures = Vec::new();

    let mut rows = Vec::new();
    // Per seed at α = 0.1: the public-mode FedPKD and FedDF runs the
    // data-free leg is compared against, and FedDF's accuracy within the
    // public run's budget.
    let mut at_alpha_01 = Vec::new();
    for alpha in ALPHA_SWEEP {
        let setting = Setting::Dir { alpha };
        let mut cells = Vec::new();
        for seed in SEEDS {
            let pkd = run_method(Method::FedPkd, &scale, Task::C10, setting, true, seed);
            let df = run_method(Method::FedDf, &scale, Task::C10, setting, false, seed);
            let (pkd_acc, df_acc) = at_equal_budget(&pkd, &df);
            if alpha <= 0.1 && pkd_acc < df_acc {
                failures.push(format!(
                    "α={alpha}, seed {seed}: FedPKD {pkd_acc:.4} below FedDF {df_acc:.4} at equal budget"
                ));
            }
            cells.push([pkd_acc, df_acc, best(&df), bytes(&pkd).min(bytes(&df))]);
            if alpha == 0.1 {
                at_alpha_01.push((seed, pkd, df, df_acc));
            }
        }
        let col = |k| column(&cells, k);
        rows.push(vec![
            alpha.to_string(),
            mean_sd(&col(0)),
            mean_sd(&col(1)),
            mean_sd(&col(2)),
            format!("{:.0}", mean(&col(3))),
        ]);
    }
    print_table(
        &format!(
            "α sweep (best server accuracy within the smaller run's total bytes; mean ± sd over seeds {SEEDS:?})"
        ),
        &[
            "α",
            "FedPKD",
            "FedDF @ equal budget",
            "FedDF unbudgeted",
            "mean budget (bytes)",
        ],
        &rows,
    );

    let mut cells = Vec::new();
    for (seed, public, df, floor) in &at_alpha_01 {
        let setting = Setting::Dir { alpha: 0.1 };
        let run = run_method(Method::FedPkd, &generated, Task::C10, setting, true, *seed);
        // The floor is the α = 0.1 row's FedDF @ equal budget: what FedDF
        // reaches within the *public* run's bytes. The generated run
        // spends ~2.6× those bytes (the broadcast batch), so this guards
        // against the 0.16 plateau; it is not an equal-budget claim.
        if best(&run) < *floor {
            failures.push(format!(
                "α=0.1, seed {seed}: generated FedPKD {:.4} below FedDF's {floor:.4} within the public run's budget",
                best(&run)
            ));
        }
        let (gen_acc, df_acc) = at_equal_budget(&run, df);
        cells.push([
            best(public),
            best(&run),
            best(public) - best(&run),
            *floor,
            gen_acc,
            df_acc,
            bytes(public),
            bytes(&run),
        ]);
    }
    let col = |k| column(&cells, k);
    print_table(
        "Data-free mode at α=0.1 (FedPKD, mean ± sd over seeds)",
        &["transfer set", "best server accuracy", "mean total bytes"],
        &[
            vec![
                "public".into(),
                mean_sd(&col(0)),
                format!("{:.0}", mean(&col(6))),
            ],
            vec![
                "generated".into(),
                mean_sd(&col(1)),
                format!("{:.0}", mean(&col(7))),
            ],
        ],
    );
    println!(
        "\npublic − generated gap: {} (per seed {:.4?}; reported, not gated)",
        mean_sd(&col(2)),
        col(2)
    );
    println!(
        "generated vs FedDF within the public run's budget: {} vs {} (gated)",
        mean_sd(&col(1)),
        mean_sd(&col(3))
    );
    println!(
        "generated vs FedDF within the generated run's budget: {} vs {} (per seed {:.4?} vs {:.4?}; reported, not gated)",
        mean_sd(&col(4)),
        mean_sd(&col(5)),
        col(4),
        col(5)
    );

    println!(
        "\nexpected shape: at every seed, FedPKD ≥ FedDF @ equal budget for α ≤ 0.1, and generated ≥ FedDF within the public run's budget at α = 0.1."
    );
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
