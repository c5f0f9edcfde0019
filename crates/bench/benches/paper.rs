//! Every table and figure of the paper's evaluation (§II and §V), each cell
//! at every seed of [`SEEDS`], printed as mean ± sd over them.
//!
//! A federation run is a [`Cell`] at a seed, and every run goes through one
//! [`Runs`] memo, so a figure that asks for a cell another figure already
//! ran reads that run: Fig. 8's full arm, Fig. 9's θ = 0.7 and Fig. 10's
//! δ = 0.5 are Fig. 5's FedPKD cells, and Fig. 6 and Table I read Fig. 5's
//! runs. Fig. 2 trains two specialists without a federation and keeps its
//! own loop. The last line is the number of federation runs executed.

use fedpkd_bench::{banner, print_table, Cell, Method, Runs, Scale, Setting, Summary, Task, SEEDS};
use fedpkd_core::fedpkd::FedPkdConfig;
use fedpkd_core::runtime::{RoundMetrics, RunResult};
use fedpkd_core::{eval, train::train_supervised};
use fedpkd_netsim::{bytes_to_mb, Message, Wire};
use fedpkd_rng::Rng;
use fedpkd_tensor::nn::Layer;
use fedpkd_tensor::serialize::param_byte_len;
use fedpkd_tensor::{metrics, optim::Adam};
use std::fmt;

const TASKS: [Task; 2] = [Task::C10, Task::C100];

/// The highly non-IID cells of the sensitivity sweeps (Figs. 9 and 10).
const HIGH: [(Task, Setting); 2] = [
    (Task::C10, Setting::DirHigh),
    (Task::C100, Setting::DirHigh),
];

type Metric = fn(&RunResult) -> Option<f64>;

/// Best server accuracy (none for FedMD / DS-FL) and best mean client
/// accuracy: the two bars of Figs. 5, 7 and 8.
const METRICS: [(&str, Metric); 2] = [
    ("server", RunResult::best_server_accuracy),
    ("client", |run| Some(run.best_client_accuracy())),
];

fn main() {
    let scale = Scale::from_env();
    let runs = &mut Runs::default();
    fig1(runs, &scale);
    fig2(&scale);
    fig3(runs, &scale);

    banner(
        "Fig. 5 — homogeneous-model accuracy across non-IID settings",
        "FedPKD best server accuracy everywhere; best client accuracy in most cells",
    );
    let settings = [
        Setting::ShardsHigh,
        Setting::ShardsWeak,
        Setting::DirHigh,
        Setting::DirWeak,
    ];
    accuracy_tables(runs, &scale, "Fig. 5", false, &Method::ROSTER, &settings);
    fig6(runs, &scale);
    banner(
        "Fig. 7 — heterogeneous-model accuracy, tier-mixed clients, Dirichlet pair only",
        "FedPKD beats FedMD/DS-FL/FedET on server and client metrics in most cells",
    );
    let (methods, settings) = (Method::HETERO_ROSTER, [Setting::DirHigh, Setting::DirWeak]);
    accuracy_tables(runs, &scale, "Fig. 7", true, &methods, &settings);
    table1(runs, &scale);

    banner(
        "Fig. 8 — ablation of FedPKD's components (highly non-IID)",
        "both w/o Pro and w/o D.F. lose several points of server accuracy",
    );
    // `scale.pkd` with one edit.
    let with = |edit: &dyn Fn(&mut FedPkdConfig)| {
        let mut config = scale.pkd.clone();
        edit(&mut config);
        config
    };
    let arms = [
        ("FedPKD", with(&|_| {})),
        ("w/o Pro", with(&|c| c.use_prototypes = false)),
        ("w/o D.F.", with(&|c| c.use_filter = false)),
        // Not a paper arm: Eq. 7's variance weighting replaced by a plain
        // mean of the client logits (DESIGN.md §6).
        ("uniform logits", with(&|c| c.variance_weighting = false)),
    ];
    let places = [
        (Task::C10, Setting::ShardsHigh),
        (Task::C10, Setting::DirHigh),
        (Task::C100, Setting::ShardsHigh),
        (Task::C100, Setting::DirHigh),
    ];
    variants(runs, &scale, "Fig. 8", "variant", &places, &arms);

    banner(
        "Fig. 9 — accuracy vs filter keep-ratio θ (highly non-IID)",
        "server accuracy declines from θ=70% down to θ=30%",
    );
    let arms = [0.3f32, 0.5, 0.7]
        .map(|theta| (format!("{:.0}%", theta * 100.0), with(&|c| c.theta = theta)));
    variants(runs, &scale, "Fig. 9", "θ", &HIGH, &arms);

    banner(
        "Fig. 10 — accuracy vs loss mix δ (highly non-IID)",
        "C10 peaks near δ=0.5; C100 prefers smaller δ (more feature learning)",
    );
    let arms = [0.1f32, 0.3, 0.5, 0.7, 0.9]
        .map(|delta| (format!("{delta:.1}"), with(&|c| c.delta = delta)));
    variants(runs, &scale, "Fig. 10", "δ", &HIGH, &arms);

    let (executed, seeds) = (runs.executed(), SEEDS.len());
    let cells = executed / seeds;
    println!("\nfederation runs executed: {executed} ({cells} distinct cells × {seeds} seeds)");
}

/// A homogeneous-model cell.
fn cell(method: Method, scale: &Scale, task: Task, setting: Setting) -> Cell {
    Cell {
        method,
        task,
        setting,
        hetero: false,
        scale: scale.clone(),
    }
}

/// `metric` of `cell` over the seeds, as `mean ± sd` percent, or `n/a`
/// when the method has no such metric.
fn pct(runs: &mut Runs, cell: &Cell, metric: Metric) -> String {
    let values: Option<Vec<f64>> = runs.per_seed(cell, metric).into_iter().collect();
    match values {
        Some(values) => format!("{:.1}", Summary::of(values.iter().map(|a| a * 100.0))),
        None => "n/a".to_string(),
    }
}

/// Per task, a table of `methods` × `settings` with a server and a client
/// row per method (Figs. 5 and 7).
fn accuracy_tables(
    runs: &mut Runs,
    scale: &Scale,
    fig: &str,
    hetero: bool,
    methods: &[Method],
    settings: &[Setting],
) {
    for task in TASKS {
        let mut rows = Vec::new();
        for &method in methods {
            for (metric_name, metric) in METRICS {
                let mut row = vec![method.name().to_string(), metric_name.to_string()];
                for &setting in settings {
                    let mut cell = cell(method, scale, task, setting);
                    cell.hetero = hetero;
                    row.push(pct(runs, &cell, metric));
                }
                rows.push(row);
            }
        }
        let header: Vec<String> = ["method".to_string(), "metric".to_string()]
            .into_iter()
            .chain(settings.iter().map(|s| s.name(task)))
            .collect();
        let title = format!("{fig} — {} (best accuracy %)", task.name());
        print_table(&title, &header, &rows);
    }
}

/// Per `(task, setting)`, a table with a row per homogeneous FedPKD
/// configuration variant: best server and client accuracy (Figs. 8–10).
fn variants(
    runs: &mut Runs,
    scale: &Scale,
    fig: &str,
    axis: &str,
    places: &[(Task, Setting)],
    arms: &[(impl fmt::Display, FedPkdConfig)],
) {
    for &(task, setting) in places {
        let mut rows = Vec::new();
        for (name, pkd) in arms {
            let mut cell = cell(Method::FedPkd, scale, task, setting);
            cell.scale.pkd = pkd.clone();
            let mut row = vec![name.to_string()];
            for (_, metric) in METRICS {
                row.push(pct(runs, &cell, metric));
            }
            rows.push(row);
        }
        let (task_name, setting_name) = (task.name(), setting.name(task));
        let title = format!("{fig} — {task_name} {setting_name} (best accuracy %)");
        print_table(&title, &[axis, "server acc", "client acc"], &rows);
    }
}

fn fig1(runs: &mut Runs, scale: &Scale) {
    banner(
        "Fig. 1 — FedAvg vs KD-based server accuracy, IID vs non-IID",
        "FedAvg > naive KD everywhere; Dirichlet(0.3) degrades both",
    );
    let mut rows = Vec::new();
    for task in TASKS {
        for setting in [Setting::Iid, Setting::Dir { alpha: 0.3 }] {
            let mut row = vec![task.name().to_string(), setting.name(task)];
            for method in [Method::FedAvg, Method::NaiveKd] {
                let cell = cell(method, scale, task, setting);
                row.push(pct(runs, &cell, RunResult::best_server_accuracy));
            }
            rows.push(row);
        }
    }
    let header = ["dataset", "partition", "FedAvg", "KD-based"];
    print_table("Fig. 1 (server accuracy %)", &header, &rows);
}

fn fig2(scale: &Scale) {
    banner(
        "Fig. 2 — per-class logit accuracy of specialized clients",
        "each client ≈1.0 on its own classes, ≈0.0 on the others; the uniform average is mediocre",
    );
    let task = Task::C10;
    let n_private = scale.samples_for(task);
    // Per seed, for client 1, client 2 and their uniform average: the
    // per-class and the overall accuracy of their public-set logits.
    let mut per_class = Vec::new();
    let mut overall = Vec::new();
    for seed in SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        // One pool with shared class structure, carved into two
        // specialized private halves plus a public set.
        let pool = task.config().generate(n_private + scale.public, &mut rng);
        let pool = pool.expect("valid config");
        let public = pool.subset(&(n_private..pool.len()).collect::<Vec<_>>());
        let mut specialist = |classes: std::ops::Range<usize>| {
            let is_own = |&i: &usize| classes.contains(&pool.labels()[i]);
            let own = pool.subset(&(0..n_private).filter(is_own).collect::<Vec<_>>());
            let mut model = scale.client_spec(task).build(&mut rng);
            let mut opt = Adam::new(scale.base.learning_rate);
            let epochs = scale.base.local_epochs * 3;
            train_supervised(&mut model, &own, epochs, 32, &mut opt, &mut rng);
            eval::logits_on(&mut model, &public)
        };
        let logits1 = specialist(0..5);
        let logits2 = specialist(5..10);
        let averaged = logits1.add(&logits2).expect("aligned logits").scale(0.5);
        let columns = [&logits1, &logits2, &averaged];
        per_class.push(columns.map(|l| metrics::per_class_accuracy(l, public.labels(), 10)));
        overall.push(columns.map(|l| metrics::accuracy(l, public.labels()) * 100.0));
    }
    let mut rows: Vec<Vec<String>> = (0..10)
        .map(|class| {
            let column = |c: usize| Summary::of(per_class.iter().map(|seed| seed[c][class]));
            let mut row = vec![class.to_string()];
            row.extend((0..3).map(|c| format!("{:.2}", column(c))));
            row
        })
        .collect();
    let column = |c: usize| format!("{:.1}", Summary::of(overall.iter().map(|seed| seed[c])));
    rows.push(vec![
        "overall %".to_string(),
        column(0),
        column(1),
        column(2),
    ]);
    let header = ["class", "client1 (0-4)", "client2 (5-9)", "averaged"];
    print_table("Fig. 2 (accuracy of public-set logits)", &header, &rows);
}

fn fig3(runs: &mut Runs, scale: &Scale) {
    banner(
        "Fig. 3 — accuracy & per-client comm vs public dataset size",
        "logit traffic ∝ public size, crossing the model-update cost; accuracy rises with size",
    );
    let task = Task::C10;
    // Reference cost: one client model update (the paper quotes 0.511 MB
    // for its model; ours is smaller but plays the same role).
    let model = scale.client_spec(task).build(&mut Rng::seed_from_u64(0));
    let model_bytes =
        param_byte_len(&model) + Message::ModelUpdate { params: vec![] }.encoded_len();
    let (model_mb, params) = (bytes_to_mb(model_bytes), model.param_count());
    println!("\nmodel-update reference cost: {model_mb:.3} MB ({params} parameters)");
    // Traffic is exact at every size; accuracy runs stop at this size to
    // keep the sweep fast.
    const ACCURACY_CAP: usize = 2_000;
    let mut rows = Vec::new();
    for public in [100usize, 250, 500, 1_000, 2_000, 4_000] {
        // Per-round, per-client uplink: logits for every public sample.
        let logit_bytes = Message::Logits {
            sample_ids: (0..public as u32).collect(),
            num_classes: task.num_classes() as u32,
            values: vec![0.0; public * task.num_classes()],
        }
        .encoded_len();
        let accuracy = if public <= ACCURACY_CAP {
            let mut cell = cell(Method::NaiveKd, scale, task, Setting::DirWeak);
            cell.scale.public = public;
            pct(runs, &cell, RunResult::best_server_accuracy)
        } else {
            format!("not run (cap {ACCURACY_CAP})")
        };
        let crosses = if logit_bytes > model_bytes {
            "yes"
        } else {
            "no"
        };
        rows.push(vec![
            public.to_string(),
            format!("{:.4}", bytes_to_mb(logit_bytes)),
            format!("{model_mb:.4}"),
            crosses.to_string(),
            accuracy,
        ]);
    }
    let title = "Fig. 3 (per-client per-round uplink; naive-KD server accuracy % at α=0.5)";
    let header = [
        "public size",
        "logits MB",
        "model MB",
        "logits>model?",
        "server acc",
    ];
    print_table(title, &header, &rows);
}

fn fig6(runs: &mut Runs, scale: &Scale) {
    banner(
        "Fig. 6 — accuracy per communication round, highly non-IID",
        "FedPKD's learning curve dominates the baselines under high skew",
    );
    for (task, setting) in [
        (Task::C10, Setting::DirHigh),
        (Task::C100, Setting::ShardsHigh),
    ] {
        let mut rows = Vec::new();
        for method in Method::ROSTER {
            // Server-model methods plot S_acc; FedMD/DS-FL plot C_acc (they
            // have no server model), as in the paper's figure.
            let curves = runs.per_seed(&cell(method, scale, task, setting), |run| {
                let accuracy =
                    |m: &RoundMetrics| m.server_accuracy.unwrap_or(m.mean_client_accuracy());
                run.history.iter().map(accuracy).collect::<Vec<_>>()
            });
            let mut row = vec![method.name().to_string()];
            for round in 0..scale.rounds {
                let mean = Summary::of(curves.iter().map(|curve| curve[round])).mean;
                row.push(format!("{:.1}", mean * 100.0));
            }
            rows.push(row);
        }
        let rounds = (0..scale.rounds).map(|r| format!("r{r}"));
        let header: Vec<String> = std::iter::once("method".to_string())
            .chain(rounds)
            .collect();
        let (task_name, setting_name) = (task.name(), setting.name(task));
        let title = format!("Fig. 6 — {task_name} {setting_name} (accuracy % per round, mean)");
        print_table(&title, &header, &rows);
    }
}

fn table1(runs: &mut Runs, scale: &Scale) {
    banner(
        "Table I — MB of traffic to reach the target accuracy (weak non-IID)",
        "FedPKD cheapest on both C_acc and S_acc targets (≈5.7× less than the best baseline)",
    );
    // Mean ± sd MB over the seeds that reached the target, with `(k/n)`
    // when only k of the n seeds did, and `—` when none did.
    let mb = |reached: Vec<Option<usize>>| {
        let hits: Vec<f64> = reached.iter().flatten().map(|&b| bytes_to_mb(b)).collect();
        match hits.len() {
            0 => "—".to_string(),
            k if k == SEEDS.len() => format!("{:.2}", Summary::of(hits)),
            k => format!("{:.2} ({k}/{})", Summary::of(hits), SEEDS.len()),
        }
    };
    for setting in [Setting::ShardsWeak, Setting::DirWeak] {
        for task in TASKS {
            // The paper's targets are 60 % (CIFAR-10) and 25 % (CIFAR-100).
            let target = if task == Task::C10 { 0.60 } else { 0.25 };
            let mut rows = Vec::new();
            for method in Method::ROSTER {
                let cell = cell(method, scale, task, setting);
                // The paper marks FedDF / FedET's client cell N/A: not
                // focused on client models.
                let c_cell = if matches!(method, Method::FedDf | Method::FedEt) {
                    "N/A".to_string()
                } else {
                    mb(runs.per_seed(&cell, |r| r.bytes_to_client_accuracy(target)))
                };
                let s_cell = if method.has_server_model() {
                    mb(runs.per_seed(&cell, |r| r.bytes_to_server_accuracy(target)))
                } else {
                    "N/A".to_string()
                };
                rows.push(vec![method.name().to_string(), c_cell, s_cell]);
            }
            let (task_name, setting_name) = (task.name(), setting.name(task));
            let title = format!(
                "Table I — {task_name} {setting_name} (target {:.0}%, MB; (k/{}) = only k seeds reached it, — = none did)",
                target * 100.0,
                SEEDS.len()
            );
            print_table(
                &title,
                &["method", "C_acc target MB", "S_acc target MB"],
                &rows,
            );
        }
    }
}
