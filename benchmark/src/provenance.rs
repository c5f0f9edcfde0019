//! The machine fingerprint every result file carries, so two files can be
//! told apart before their numbers are compared.

use crate::json::Json;
use crate::workloads::RunArgs;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's commit, or `unknown` outside a git repository (the
/// driver's checkouts are plain directories).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |hash| hash.trim().to_string())
}

/// Seed, machine, toolchain and build settings of this run.
pub fn provenance(args: &RunArgs) -> Json {
    let workers = fedpkd_tensor::parallel::max_workers();
    Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::from(workers)),
        ("cpu_model", Json::from(cpu_model())),
        ("rustc", Json::from(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags", Json::from(env!("BENCH_RUSTFLAGS"))),
        ("profile", Json::from(env!("BENCH_PROFILE"))),
        ("git_commit", Json::from(git_commit())),
        // The product's default: one client-phase worker per core.
        ("worker_budget", Json::from(workers)),
        (
            "kernel_mode",
            Json::from(format!("{:?}", fedpkd_tensor::kernel_mode())),
        ),
        (
            "plan_mode",
            Json::from(format!("{:?}", fedpkd_tensor::plan::plan_mode())),
        ),
    ])
}
