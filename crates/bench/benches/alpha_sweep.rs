//! α sweep — FedPKD against FedDF's ensemble (a probability average; Lin
//! et al.'s AVGLOGITS, the mean of logits, is ROADMAP item 2 step 2) across
//! the Dirichlet concentration grid (`fedpkd_data::ALPHA_SWEEP`), each pair
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

use fedpkd_bench::{banner, print_table, run_method, Method, Scale, Setting, Summary, Task, SEEDS};
use fedpkd_core::fedpkd::{DistillSource, FedPkdConfig};
use fedpkd_core::runtime::RunResult;
use fedpkd_data::ALPHA_SWEEP;

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
        let sum = |k: usize| Summary::of(cells.iter().map(|row| row[k]));
        rows.push(vec![
            alpha.to_string(),
            sum(0).to_string(),
            sum(1).to_string(),
            sum(2).to_string(),
            format!("{:.0}", sum(3).mean),
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
    let col = |k: usize| -> Vec<f64> { cells.iter().map(|row| row[k]).collect() };
    let sum = |k: usize| Summary::of(col(k));
    print_table(
        "Data-free mode at α=0.1 (FedPKD, mean ± sd over seeds)",
        &["transfer set", "best server accuracy", "mean total bytes"],
        &[
            vec![
                "public".into(),
                sum(0).to_string(),
                format!("{:.0}", sum(6).mean),
            ],
            vec![
                "generated".into(),
                sum(1).to_string(),
                format!("{:.0}", sum(7).mean),
            ],
        ],
    );
    println!(
        "\npublic − generated gap: {} (per seed {:.4?}; reported, not gated)",
        sum(2),
        col(2)
    );
    println!(
        "generated vs FedDF within the public run's budget: {} vs {} (gated)",
        sum(1),
        sum(3)
    );
    println!(
        "generated vs FedDF within the generated run's budget: {} vs {} (per seed {:.4?} vs {:.4?}; reported, not gated)",
        sum(4),
        sum(5),
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
