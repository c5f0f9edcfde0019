//! The command line both binaries share.
//!
//! ```text
//! fedpkd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! fedpkd-benchmark all [--seed <n>] [--seconds <s>] [--reps <n>] [--out <file>] [--smoke]
//! fedpkd-benchmark trace <workload> [--seed <n>] [--seconds <s>] [--smoke]
//! fedpkd-benchmark compare <a.json> <b.json>
//! fedpkd-benchmark manifest
//! ```
//!
//! The first form is the driver's contract: one run of one workload, its
//! last stdout line the result object. `all` runs every workload in its own
//! child process, timed then traced, and prints every metric by name.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::alloc;
use crate::compare::{compare, render, Verdict};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::provenance::provenance;
use crate::span::SpanRecorder;
use crate::stats::{median, quartile_spread};
use crate::workloads::{out_dir, Outcome, RunArgs, Workload, RUN_SECONDS, WORKLOADS};

/// The seed `all` and `trace` use unless told otherwise.
const DEFAULT_SEED: u64 = 707;

const USAGE: &str = "usage:
  fedpkd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  fedpkd-benchmark all [--seed <n>] [--seconds <s>] [--reps <n>] [--out <file>] [--smoke]
  fedpkd-benchmark trace <workload> [--seed <n>] [--seconds <s>] [--smoke]
  fedpkd-benchmark compare <a.json> <b.json>
  fedpkd-benchmark manifest";

/// Parsed `--flag value` options.
struct Options {
    workload: Option<String>,
    run: RunArgs,
    trace: bool,
    reps: usize,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        run: RunArgs {
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS,
            smoke: false,
        },
        trace: false,
        reps: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("--workload")?),
            "--seed" => {
                opts.run.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                opts.run.seconds = seconds;
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--reps" => {
                opts.reps = value("--reps")?
                    .parse()
                    .ok()
                    .filter(|&n| (1..=100).contains(&n))
                    .ok_or("--reps takes a whole number from 1 to 100")?;
            }
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => opts.run.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word => opts.positional.push(word.to_string()),
        }
    }
    Ok(opts)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

/// `BENCHMARK.json`, generated from the metric and workload tables.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::from("bash"), Json::from("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn kind_name(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "timed"
    }
}

fn result_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}.{}.json", kind_name(trace)))
}

/// Runs one workload in this process; prints the contract's result line
/// last and leaves the full result (and the trace) under `benchmark/out`.
fn run_here(workload: &Workload, args: &RunArgs, trace: bool) -> i32 {
    let (outcome, metrics) = if trace {
        let mut spans = SpanRecorder::new();
        let outcome = (workload.traced)(args, &mut spans);
        let path = out_dir().join(format!("{}.trace.jsonl", workload.name));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("fedpkd-benchmark: cannot write {}: {e}", path.display());
            return 1;
        }
        let metrics = outcome.metrics.per_layer_json();
        (outcome, metrics)
    } else {
        let outcome = (workload.timed)(args);
        let metrics = outcome.metrics.end_to_end_json();
        (outcome, metrics)
    };
    for (gate, passed) in &outcome.gates {
        if !passed {
            eprintln!("fedpkd-benchmark: {} gate {gate} FAILED", workload.name);
        }
    }
    let line = result_line(&outcome, metrics.clone());
    let full = Json::obj([
        ("claim", Json::Null),
        ("workload", Json::from(workload.name)),
        ("kind", Json::from(kind_name(trace))),
        ("provenance", provenance(args)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "gates",
            Json::obj(outcome.gates.iter().map(|&(g, ok)| (g, Json::Bool(ok)))),
        ),
        ("metrics", metrics),
        (
            "fields",
            Json::obj(outcome.fields.iter().map(|(k, v)| (*k, v.clone()))),
        ),
    ]);
    let path = result_path(workload.name, trace);
    if let Err(e) = std::fs::write(&path, full.pretty()) {
        eprintln!("fedpkd-benchmark: cannot write {}: {e}", path.display());
        return 1;
    }
    println!("{}", line.compact());
    i32::from(!outcome.correct())
}

fn result_line(outcome: &Outcome, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ])
}

/// The binary that can run `trace`: this one when it carries the counting
/// allocator, else its sibling `fedpkd-benchmark-trace`.
fn binary_for(trace: bool) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    if trace == alloc::installed() {
        return Ok(me);
    }
    let name = if trace {
        "fedpkd-benchmark-trace"
    } else {
        "fedpkd-benchmark"
    };
    let sibling = me.with_file_name(name);
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "{} is not built; build both binaries with `cargo build --release` (benchmark/run.sh does)",
            sibling.display()
        ))
    }
}

fn child_args(workload: &str, args: &RunArgs, trace: bool) -> Vec<String> {
    let mut argv = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if args.smoke {
        argv.push("--smoke".to_string());
    }
    argv
}

/// Runs one workload in a child process, passing its output through.
fn run_child(workload: &str, args: &RunArgs, trace: bool) -> Result<i32, String> {
    let status = Command::new(binary_for(trace)?)
        .args(child_args(workload, args, trace))
        .status()
        .map_err(|e| format!("cannot start the {} run: {e}", kind_name(trace)))?;
    Ok(status.code().unwrap_or(1))
}

/// Runs one workload in a child process and returns its full result file.
fn run_child_captured(workload: &str, args: &RunArgs, trace: bool) -> Result<Json, String> {
    let path = result_path(workload, trace);
    let _ = std::fs::remove_file(&path);
    let output = Command::new(binary_for(trace)?)
        .args(child_args(workload, args, trace))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|_| {
        format!(
            "{workload} ({}) exited with {} before writing its result",
            kind_name(trace),
            output.status
        )
    })?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn field<'a>(result: &'a Json, name: &str) -> Option<&'a Json> {
    result.get("fields")?.get(name)
}

fn all_gates_passed(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

/// `all`: every workload, timed `reps` times then traced once, each run in
/// its own child process.
fn all(opts: &Options) -> Result<i32, String> {
    let mut workloads_json = Vec::new();
    let mut correct = true;
    println!("{:<18} {:<42} {:>16} unit", "workload", "metric", "value");
    for workload in WORKLOADS {
        let mut timed_runs = Vec::new();
        for _ in 0..opts.reps {
            timed_runs.push(run_child_captured(workload.name, &opts.run, false)?);
        }
        let traced = run_child_captured(workload.name, &opts.run, true)?;
        let first = &timed_runs[0];

        // Cross-run gates: same seed → same bits on every repetition, and
        // the traced run reproduces the rounds it shares with the timed one.
        let fnv = |r: &Json, name: &str| field(r, name).and_then(Json::as_str).map(str::to_string);
        let reps_identical = timed_runs
            .iter()
            .all(|r| fnv(r, "history_fnv") == fnv(first, "history_fnv"));
        let traces_agree = fnv(first, "history_prefix_fnv").is_some()
            && fnv(first, "history_prefix_fnv") == fnv(&traced, "history_fnv");
        let workload_correct = timed_runs.iter().all(all_gates_passed)
            && all_gates_passed(&traced)
            && reps_identical
            && traces_agree;
        if !workload_correct {
            eprintln!(
                "fedpkd-benchmark: {} FAILED a correctness gate",
                workload.name
            );
        }
        correct &= workload_correct;

        let end_to_end = Json::obj(END_TO_END.iter().map(|m| {
            let samples: Vec<f64> = timed_runs
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            let value = median(&samples);
            println!(
                "{:<18} {:<42} {:>16.6} {}",
                workload.name, m.name, value, m.unit
            );
            let mut entry = vec![
                ("unit", Json::from(m.unit)),
                ("value", Json::Num(value)),
                ("samples", Json::nums(&samples)),
            ];
            if samples.len() >= 2 {
                entry.push(("quartile_spread", Json::Num(quartile_spread(&samples))));
            }
            (m.name, Json::obj(entry))
        }));
        let per_layer = Json::obj(PER_LAYER.iter().map(|m| {
            let value = metric_value(&traced, m.name).unwrap_or(0.0);
            if value != 0.0 {
                println!(
                    "{:<18} {:<42} {:>16.6} {}",
                    workload.name, m.name, value, m.unit
                );
            }
            (
                m.name,
                Json::obj([("unit", Json::from(m.unit)), ("value", Json::Num(value))]),
            )
        }));
        let failed: f64 = timed_runs
            .iter()
            .chain([&traced])
            .filter_map(|r| r.get("failed").and_then(Json::as_f64))
            .sum();
        let attempted: f64 = timed_runs
            .iter()
            .chain([&traced])
            .filter_map(|r| r.get("attempted").and_then(Json::as_f64))
            .sum();
        println!(
            "{:<18} {:<42} {:>16.6} frac",
            workload.name,
            "failed_frac",
            failed / attempted.max(1.0)
        );
        workloads_json.push((
            workload.name,
            Json::obj([
                ("why", Json::from(workload.why)),
                ("correct", Json::Bool(workload_correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_frac", Json::Num(failed / attempted.max(1.0))),
                (
                    "gates",
                    Json::obj([
                        ("timed", first.get("gates").cloned().unwrap_or(Json::Null)),
                        ("traced", traced.get("gates").cloned().unwrap_or(Json::Null)),
                        ("reps_bit_identical", Json::Bool(reps_identical)),
                        ("timed_and_traced_agree", Json::Bool(traces_agree)),
                    ]),
                ),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                (
                    "timed_fields",
                    first.get("fields").cloned().unwrap_or(Json::Null),
                ),
                (
                    "traced_fields",
                    traced.get("fields").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let report = Json::obj([
        ("claim", Json::Null),
        ("provenance", provenance(&opts.run)),
        ("reps", Json::from(opts.reps)),
        ("correct", Json::Bool(correct)),
        ("workloads", Json::obj(workloads_json)),
    ]);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    std::fs::write(&path, report.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "fedpkd-benchmark: {} — results in {}",
        if correct {
            "all gates passed"
        } else {
            "FAILED"
        },
        path.display()
    );
    Ok(i32::from(!correct))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn dispatch(argv: &[String]) -> Result<i32, String> {
    let opts = parse(argv)?;
    match opts.positional.first().map(String::as_str) {
        None => {
            let name = opts
                .workload
                .as_deref()
                .ok_or_else(|| format!("no workload named\n{USAGE}"))?;
            let workload = find_workload(name)?;
            if opts.trace == alloc::installed() {
                Ok(run_here(workload, &opts.run, opts.trace))
            } else {
                // `tensor.step.allocs` needs the counting allocator, which
                // only the trace binary installs — and a timed run must
                // never go through it.
                run_child(workload.name, &opts.run, opts.trace)
            }
        }
        Some("all") => all(&opts),
        Some("trace") => {
            let name = opts
                .positional
                .get(1)
                .ok_or_else(|| format!("trace needs a workload\n{USAGE}"))?;
            let result = run_child_captured(find_workload(name)?.name, &opts.run, true)?;
            println!("{:<42} {:>16} unit", "metric", "value");
            for m in PER_LAYER {
                let value = metric_value(&result, m.name).unwrap_or(0.0);
                println!("{:<42} {:>16.6} {}", m.name, value, m.unit);
            }
            eprintln!(
                "fedpkd-benchmark: spans in {}",
                out_dir().join(format!("{name}.trace.jsonl")).display()
            );
            Ok(i32::from(!all_gates_passed(&result)))
        }
        Some("compare") => {
            let [_, a, b] = opts.positional.as_slice() else {
                return Err(format!("compare needs two result files\n{USAGE}"));
            };
            let rows = compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?)?;
            print!("{}", render(&rows));
            // Both directions disagree: one commit measured twice must read
            // the same.
            let settled = rows.iter().all(|r| r.verdict == Verdict::Unchanged);
            Ok(i32::from(!settled))
        }
        Some("manifest") => {
            print!("{}", manifest().pretty());
            Ok(0)
        }
        Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

/// Entry point of both binaries.
pub fn main() -> ! {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = dispatch(&argv).unwrap_or_else(|message| {
        eprintln!("fedpkd-benchmark: {message}");
        2
    });
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let opts = parse(&args(&[
            "--workload",
            "serve_uds",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(opts.workload.as_deref(), Some("serve_uds"));
        assert_eq!(
            (opts.run.seed, opts.run.seconds, opts.trace),
            (9, 3.0, true)
        );
        assert!(!opts.run.smoke && opts.positional.is_empty());
    }

    #[test]
    fn refuses_malformed_options() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--reps", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
        assert!(find_workload("nope").is_err());
    }

    /// Every printed metric is declared in `BENCHMARK.json` and vice versa:
    /// the committed file is exactly what the tables generate.
    #[test]
    fn benchmark_json_matches_the_declared_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = read_json(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest());
        let keys: Vec<_> = committed
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(std::fs::metadata(&path).expect("stat").len() <= 64 * 1024);
    }
}
