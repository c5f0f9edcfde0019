//! Shared infrastructure for the experiment harness.
//!
//! The `paper` bench target reproduces every table and figure of the
//! paper's evaluation, and `alpha_sweep` the α sweep (see DESIGN.md §4 for
//! the index). This library provides the shared pieces: paper-faithful
//! scenario presets, the method constructor, scale profiles, the memo that
//! runs each distinct [`Cell`] once per seed of [`SEEDS`], the mean ± sd
//! [`Summary`] and the table printer.
//!
//! Absolute numbers differ from the paper (the substrate is a synthetic
//! simulator, not CIFAR on GPUs); the harness is built to reproduce the
//! *shape* of every result — who wins, by roughly what factor, and where
//! the crossovers fall.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fedpkd_baselines::{BaselineConfig, DsFl, FedAvg, FedDf, FedEt, FedMd, FedProx, NaiveKd};
use fedpkd_core::driver::Driver;
use fedpkd_core::fedpkd::{FedPkd, FedPkdConfig};
use fedpkd_core::runtime::RunResult;
use fedpkd_data::{FederatedScenario, Partition, ScenarioBuilder, SyntheticConfig};
use fedpkd_tensor::models::{DepthTier, ModelSpec};
use std::fmt;

/// The seeds every harness cell runs at; tables print mean ± sd over them.
pub const SEEDS: [u64; 3] = [707, 1311, 2024];

/// Which synthetic dataset stands in for which paper dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// 10-class task (CIFAR-10 analog).
    C10,
    /// 100-class task (CIFAR-100 analog).
    C100,
}

impl Task {
    /// The generator preset for this task, slightly noisier than the
    /// library defaults so methods have headroom to differentiate.
    pub fn config(&self) -> SyntheticConfig {
        match self {
            Self::C10 => SyntheticConfig {
                sample_noise: 1.5,
                label_noise: 0.05,
                ..SyntheticConfig::cifar10_like()
            },
            // The 100-class task packs 10× the classes into a wider space
            // with a touch less noise, keeping achievable accuracy in the
            // paper's CIFAR-100 band (tens of percent) at harness scale.
            Self::C100 => SyntheticConfig {
                class_separation: 4.0,
                sample_noise: 1.2,
                label_noise: 0.03,
                ..SyntheticConfig::cifar100_like()
            },
        }
    }

    /// Input feature width of the task.
    pub fn input_dim(&self) -> usize {
        match self {
            Self::C10 => 32,
            Self::C100 => 48,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        match self {
            Self::C10 => 10,
            Self::C100 => 100,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::C10 => "CIFAR10-like",
            Self::C100 => "CIFAR100-like",
        }
    }
}

/// The paper's partition settings (§V-A / §V-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setting {
    /// IID: every client draws uniformly from the private pool (Fig. 1).
    Iid,
    /// Highly non-IID shards: `k = 3` (C10) / `k = 30` (C100).
    ShardsHigh,
    /// Weakly non-IID shards: `k = 5` (C10) / `k = 50` (C100).
    ShardsWeak,
    /// Highly non-IID Dirichlet: `α = 0.1`.
    DirHigh,
    /// Weakly non-IID Dirichlet: `α = 0.5`.
    DirWeak,
    /// Arbitrary Dirichlet concentration — the α-sweep axis
    /// (`fedpkd_data::ALPHA_SWEEP`).
    Dir {
        /// The concentration parameter.
        alpha: f64,
    },
}

impl Setting {
    /// The concrete partition for a task. Shard counts are scaled to the
    /// harness's smaller sample budget while preserving each client's
    /// class-diversity limit `k` (the parameter that controls the non-IID
    /// degree).
    pub fn partition(&self, task: Task, samples: usize, clients: usize) -> Partition {
        match self {
            Self::Iid => Partition::Iid,
            Self::DirHigh => Partition::Dirichlet { alpha: 0.1 },
            Self::DirWeak => Partition::Dirichlet { alpha: 0.5 },
            Self::Dir { alpha } => Partition::Dirichlet { alpha: *alpha },
            Self::ShardsHigh | Self::ShardsWeak => {
                let k10 = if matches!(self, Self::ShardsHigh) {
                    3
                } else {
                    5
                };
                let classes_per_client = match task {
                    Task::C10 => k10,
                    Task::C100 => k10 * 10,
                };
                // Budget ~80% of the per-client share into whole shards.
                let per_client = samples / clients;
                let shard_size = 10;
                let shards_per_client = (per_client * 4 / 5 / shard_size).max(classes_per_client);
                Partition::Shards {
                    shard_size,
                    shards_per_client,
                    classes_per_client,
                }
            }
        }
    }

    /// Display name, e.g. `k=3` or `α=0.1`.
    pub fn name(&self, task: Task) -> String {
        match (self, task) {
            (Self::Iid, _) => "IID".into(),
            (Self::ShardsHigh, Task::C10) => "k=3".into(),
            (Self::ShardsHigh, Task::C100) => "k=30".into(),
            (Self::ShardsWeak, Task::C10) => "k=5".into(),
            (Self::ShardsWeak, Task::C100) => "k=50".into(),
            (Self::DirHigh, _) => "α=0.1".into(),
            (Self::DirWeak, _) => "α=0.5".into(),
            (Self::Dir { alpha }, _) => format!("α={alpha}"),
        }
    }
}

/// Scale profile of the harness: how big the scenarios are and how long the
/// runs last. `quick` (default) finishes the full suite in minutes;
/// `paper` uses the paper's round/epoch budget (set `FEDPKD_SCALE=paper`).
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Number of federated clients.
    pub clients: usize,
    /// Total private samples across clients.
    pub samples: usize,
    /// Public (unlabeled) pool size.
    pub public: usize,
    /// Global test-set size.
    pub test: usize,
    /// Communication rounds per run.
    pub rounds: usize,
    /// FedPKD hyperparameters.
    pub pkd: FedPkdConfig,
    /// Baseline hyperparameters.
    pub base: BaselineConfig,
}

impl Scale {
    /// The laptop profile: small scenarios, few epochs.
    ///
    /// The epoch ratios mirror the paper's §V-A assignments — FedPKD gets
    /// twice the server epochs of the KD baselines (the paper uses
    /// `e_s = 40` for FedPKD vs 20 for FedMD/DS-FL and 10 for FedET), and
    /// the public pool is a large fraction of the private data (5 000 vs
    /// 10 000 in the paper), which is what makes the KD channel strong.
    pub fn quick() -> Self {
        Self {
            clients: 5,
            samples: 1_500,
            public: 600,
            test: 600,
            rounds: 10,
            pkd: FedPkdConfig {
                client_private_epochs: 4,
                client_public_epochs: 3,
                server_epochs: 20,
                learning_rate: 0.002,
                temperature: 1.0,
                ..FedPkdConfig::default()
            },
            base: BaselineConfig {
                local_epochs: 3,
                server_epochs: 5,
                digest_epochs: 2,
                learning_rate: 0.002,
                ..BaselineConfig::default()
            },
        }
    }

    /// The paper-budget profile (§V-A): 10 clients, 5 000-sample public
    /// set, T = 70 rounds, full epoch counts. Hours of CPU time.
    pub fn paper() -> Self {
        Self {
            clients: 10,
            samples: 10_000,
            public: 5_000,
            test: 2_000,
            rounds: 70,
            pkd: FedPkdConfig::default(),
            base: BaselineConfig {
                local_epochs: 10,
                server_epochs: 20,
                digest_epochs: 5,
                ..BaselineConfig::default()
            },
        }
    }

    /// The profile `FEDPKD_SCALE` selects: `quick` (also when unset) or
    /// `paper`. Any other value exits the process with a message rather
    /// than silently running the quick profile.
    pub fn from_env() -> Self {
        match Profile::from_env() {
            Profile::Quick => Self::quick(),
            Profile::Paper => Self::paper(),
        }
    }

    /// Private-sample budget for a task: the 100-class task gets double the
    /// samples (still 20× fewer per class than the 10-class task — the
    /// difficulty axis the paper's CIFAR-10 → CIFAR-100 shift represents).
    pub fn samples_for(&self, task: Task) -> usize {
        match task {
            Task::C10 => self.samples,
            Task::C100 => self.samples * 2,
        }
    }

    /// Public-pool budget for a task: scales with the private budget so the
    /// knowledge-transfer channel keeps the paper's private:public ratio.
    pub fn public_for(&self, task: Task) -> usize {
        match task {
            Task::C10 => self.public,
            Task::C100 => self.public * 2,
        }
    }

    /// Builds the scenario for a task/setting pair.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (a harness
    /// bug, not a user error).
    pub fn scenario(&self, task: Task, setting: Setting, seed: u64) -> FederatedScenario {
        let samples = self.samples_for(task);
        ScenarioBuilder::new(task.config())
            .clients(self.clients)
            .samples(samples)
            .public_size(self.public_for(task))
            .global_test_size(self.test)
            .partition(setting.partition(task, samples, self.clients))
            .seed(seed)
            .build()
            .expect("harness scenario must be valid")
    }

    /// The homogeneous client model for a task (ResNet20 analog, §V-A).
    pub fn client_spec(&self, task: Task) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: task.input_dim(),
            num_classes: task.num_classes(),
            tier: DepthTier::T20,
        }
    }

    /// The tier-mixed heterogeneous client models (ResNet11/20/29, §V-A).
    pub fn heterogeneous_specs(&self, task: Task) -> Vec<ModelSpec> {
        let tiers = [DepthTier::T11, DepthTier::T20, DepthTier::T29];
        (0..self.clients)
            .map(|i| ModelSpec::ResMlp {
                input_dim: task.input_dim(),
                num_classes: task.num_classes(),
                tier: tiers[i % tiers.len()],
            })
            .collect()
    }

    /// The larger server model (ResNet56 analog, §V-A).
    pub fn server_spec(&self, task: Task) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: task.input_dim(),
            num_classes: task.num_classes(),
            tier: DepthTier::T56,
        }
    }
}

/// What `FEDPKD_SCALE` can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Profile {
    Quick,
    Paper,
}

impl Profile {
    fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("quick") => Ok(Self::Quick),
            Some("paper") => Ok(Self::Paper),
            Some(other) => Err(format!(
                "FEDPKD_SCALE={other:?} is not a scale profile: use `quick` or `paper`, or leave it unset for quick"
            )),
        }
    }

    /// Parses `FEDPKD_SCALE`; the one reader of that variable.
    fn from_env() -> Self {
        let value = std::env::var_os("FEDPKD_SCALE").map(|v| v.to_string_lossy().into_owned());
        Self::parse(value.as_deref()).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::Quick => "quick",
            Self::Paper => "paper",
        }
    }
}

/// The methods the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The paper's contribution.
    FedPkd,
    /// FedAvg baseline.
    FedAvg,
    /// FedProx baseline.
    FedProx,
    /// FedMD baseline.
    FedMd,
    /// DS-FL baseline.
    DsFl,
    /// FedDF baseline.
    FedDf,
    /// FedET baseline.
    FedEt,
    /// Naive logit-averaging KD (motivation arm).
    NaiveKd,
}

impl Method {
    /// The full benchmark roster of Fig. 5.
    pub const ROSTER: [Method; 7] = [
        Method::FedPkd,
        Method::FedMd,
        Method::DsFl,
        Method::FedEt,
        Method::FedDf,
        Method::FedAvg,
        Method::FedProx,
    ];

    /// The heterogeneity-capable roster of Fig. 7.
    pub const HETERO_ROSTER: [Method; 4] =
        [Method::FedPkd, Method::FedMd, Method::DsFl, Method::FedEt];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::FedPkd => "FedPKD",
            Self::FedAvg => "FedAvg",
            Self::FedProx => "FedProx",
            Self::FedMd => "FedMD",
            Self::DsFl => "DS-FL",
            Self::FedDf => "FedDF",
            Self::FedEt => "FedET",
            Self::NaiveKd => "NaiveKD",
        }
    }

    /// Whether the method trains a server model (Fig. 5 caption).
    pub fn has_server_model(&self) -> bool {
        !matches!(self, Self::FedMd | Self::DsFl)
    }
}

/// Runs one method on one scenario with homogeneous (or, for
/// heterogeneity-capable methods when `hetero` is set, tier-mixed) client
/// models and returns the run result. A FedPKD configuration variant (an
/// ablation arm, a θ or δ sweep point) is a `scale` with a different `pkd`.
///
/// # Panics
///
/// Panics if the method/scenario wiring is invalid (a harness bug).
pub fn run_method(
    method: Method,
    scale: &Scale,
    task: Task,
    setting: Setting,
    hetero: bool,
    seed: u64,
) -> RunResult {
    let mut driver = Driver::rounds(scale.rounds);
    let scenario = scale.scenario(task, setting, seed);
    let client_specs = if hetero {
        scale.heterogeneous_specs(task)
    } else {
        vec![scale.client_spec(task); scale.clients]
    };
    let homo_spec = scale.client_spec(task);
    let server_spec = scale.server_spec(task);
    match method {
        Method::FedPkd => driver.run_silent(
            &mut FedPkd::new(scenario, client_specs, server_spec, scale.pkd.clone(), seed)
                .expect("harness wiring"),
        ),
        Method::FedAvg => driver.run_silent(
            &mut FedAvg::new(scenario, homo_spec, scale.base.clone(), seed)
                .expect("harness wiring"),
        ),
        Method::FedProx => driver.run_silent(
            &mut FedProx::new(scenario, homo_spec, scale.base.clone(), seed)
                .expect("harness wiring"),
        ),
        Method::FedMd => driver.run_silent(
            &mut FedMd::new(scenario, client_specs, scale.base.clone(), seed)
                .expect("harness wiring"),
        ),
        Method::DsFl => driver.run_silent(
            &mut DsFl::new(scenario, client_specs, scale.base.clone(), seed)
                .expect("harness wiring"),
        ),
        Method::FedDf => driver.run_silent(
            &mut FedDf::new(scenario, homo_spec, scale.base.clone(), seed).expect("harness wiring"),
        ),
        Method::FedEt => driver.run_silent(
            &mut FedEt::new(
                scenario,
                client_specs,
                server_spec,
                scale.base.clone(),
                seed,
            )
            .expect("harness wiring"),
        ),
        Method::NaiveKd => driver.run_silent(
            &mut NaiveKd::new(
                scenario,
                client_specs,
                server_spec,
                scale.base.clone(),
                seed,
            )
            .expect("harness wiring"),
        ),
    }
}

/// One federation run's identity short of its seed: the method, the data,
/// the client models and the [`Scale`] (with its [`FedPkdConfig`]) it runs
/// at. Two figures that ask for equal cells read the same runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The algorithm.
    pub method: Method,
    /// The dataset analog.
    pub task: Task,
    /// The partition.
    pub setting: Setting,
    /// Tier-mixed client models (see [`run_method`]).
    pub hetero: bool,
    /// Scenario size, run length and hyperparameters.
    pub scale: Scale,
}

/// Every federation run the harness has executed, keyed by [`Cell`] and
/// seed: a lookup of a cell another figure already ran reads that run.
#[derive(Debug, Default)]
pub struct Runs {
    done: Vec<(Cell, u64, RunResult)>,
}

impl Runs {
    /// The run of `cell` at `seed`, executed on its first lookup.
    pub fn get(&mut self, cell: &Cell, seed: u64) -> &RunResult {
        let index = match self
            .done
            .iter()
            .position(|(c, s, _)| *s == seed && c == cell)
        {
            Some(index) => index,
            None => {
                let Cell {
                    method,
                    task,
                    setting,
                    hetero,
                    ref scale,
                } = *cell;
                let result = run_method(method, scale, task, setting, hetero, seed);
                self.done.push((cell.clone(), seed, result));
                self.done.len() - 1
            }
        };
        &self.done[index].2
    }

    /// `value` of `cell`'s run at each seed of [`SEEDS`], in order.
    pub fn per_seed<T>(&mut self, cell: &Cell, value: impl Fn(&RunResult) -> T) -> Vec<T> {
        SEEDS
            .iter()
            .map(|&seed| value(self.get(cell, seed)))
            .collect()
    }

    /// How many federation runs have been executed.
    pub fn executed(&self) -> usize {
        self.done.len()
    }
}

/// Mean and sample standard deviation of one value per seed. Displays as
/// `mean ± sd` at the formatter's precision (4 places by default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The arithmetic mean.
    pub mean: f64,
    /// The sample (n − 1) standard deviation; 0 for fewer than two values.
    pub sd: f64,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let values: Vec<f64> = values.into_iter().collect();
        assert!(!values.is_empty(), "a summary needs at least one value");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let sd = if values.len() < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        };
        Self { mean, sd }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let places = f.precision().unwrap_or(4);
        write!(f, "{:.places$} ± {:.places$}", self.mean, self.sd)
    }
}

/// Prints a markdown table.
pub fn print_table(title: &str, headers: &[impl AsRef<str>], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let body: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        format!("| {} |", body.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.as_ref().to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints the standard harness banner for an experiment.
pub fn banner(id: &str, paper_claim: &str) {
    println!("\n=== {id} ===");
    println!("paper: {paper_claim}");
    println!(
        "scale profile: {} (set FEDPKD_SCALE=paper for the full budget); every cell runs at seeds {SEEDS:?} and prints mean ± sd",
        Profile::from_env().name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_profiles_are_consistent() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(q.rounds < p.rounds);
        assert!(q.public < p.public);
        assert!(q.pkd.validate().is_ok());
        assert!(p.pkd.validate().is_ok());
        assert!(q.base.validate().is_ok());
    }

    #[test]
    fn scale_variable_is_quick_paper_or_an_error() {
        assert_eq!(Profile::parse(None), Ok(Profile::Quick));
        assert_eq!(Profile::parse(Some("quick")), Ok(Profile::Quick));
        assert_eq!(Profile::parse(Some("paper")), Ok(Profile::Paper));
        for typo in ["Paper", "full", ""] {
            let message = Profile::parse(Some(typo)).unwrap_err();
            assert!(message.contains(&format!("{typo:?}")), "{message}");
        }
    }

    #[test]
    fn settings_produce_valid_partitions() {
        let scale = Scale::quick();
        for task in [Task::C10, Task::C100] {
            for setting in [
                Setting::Iid,
                Setting::ShardsHigh,
                Setting::ShardsWeak,
                Setting::DirHigh,
                Setting::DirWeak,
            ] {
                let scenario = scale.scenario(task, setting, 1);
                assert_eq!(scenario.num_clients(), scale.clients);
                assert!(scenario.clients.iter().all(|c| !c.train.is_empty()));
            }
        }
    }

    #[test]
    fn shards_setting_limits_client_classes() {
        let scale = Scale::quick();
        let scenario = scale.scenario(Task::C10, Setting::ShardsHigh, 2);
        for client in &scenario.clients {
            let classes: std::collections::BTreeSet<usize> =
                client.train.labels().iter().copied().collect();
            assert!(classes.len() <= 3, "k=3 violated: {}", classes.len());
        }
    }

    #[test]
    fn setting_names() {
        assert_eq!(Setting::ShardsHigh.name(Task::C10), "k=3");
        assert_eq!(Setting::ShardsHigh.name(Task::C100), "k=30");
        assert_eq!(Setting::DirWeak.name(Task::C10), "α=0.5");
        assert_eq!(Setting::Dir { alpha: 0.05 }.name(Task::C100), "α=0.05");
    }

    #[test]
    fn dir_setting_matches_the_fixed_presets() {
        let scale = Scale::quick();
        let fixed = scale.scenario(Task::C10, Setting::DirHigh, 3);
        let swept = scale.scenario(Task::C10, Setting::Dir { alpha: 0.1 }, 3);
        assert_eq!(fixed, swept, "Dir{{0.1}} must reproduce DirHigh exactly");
    }

    #[test]
    fn roster_covers_paper_methods() {
        assert_eq!(Method::ROSTER.len(), 7);
        assert!(!Method::FedMd.has_server_model());
        assert!(!Method::DsFl.has_server_model());
        assert!(Method::FedPkd.has_server_model());
    }

    /// A scale small enough to run a federation round in a unit test.
    fn tiny() -> Scale {
        let quick = Scale::quick();
        Scale {
            clients: 3,
            samples: 90,
            public: 30,
            test: 30,
            rounds: 1,
            pkd: FedPkdConfig {
                client_private_epochs: 1,
                client_public_epochs: 1,
                server_epochs: 1,
                ..quick.pkd
            },
            base: BaselineConfig {
                local_epochs: 1,
                server_epochs: 1,
                digest_epochs: 1,
                ..quick.base
            },
        }
    }

    fn tiny_cell(method: Method) -> Cell {
        Cell {
            method,
            task: Task::C10,
            setting: Setting::Iid,
            hetero: false,
            scale: tiny(),
        }
    }

    #[test]
    fn every_method_runs_a_round() {
        let scale = tiny();
        let homogeneous = Method::ROSTER.into_iter().chain([Method::NaiveKd]);
        let hetero = Method::HETERO_ROSTER.map(|m| (m, true));
        for (method, hetero) in homogeneous.map(|m| (m, false)).chain(hetero) {
            let result = run_method(method, &scale, Task::C10, Setting::Iid, hetero, 5);
            assert_eq!(result.history.len(), 1, "{method:?} hetero={hetero}");
            assert_eq!(
                result.best_server_accuracy().is_some(),
                method.has_server_model(),
                "{method:?} hetero={hetero}"
            );
            assert!(result.ledger.total_bytes() > 0, "{method:?} sent nothing");
        }
    }

    #[test]
    fn the_memo_runs_a_cell_once_per_seed() {
        let mut runs = Runs::default();
        let cell = tiny_cell(Method::FedAvg);
        let first = runs.get(&cell, 9).clone();
        assert_eq!(runs.executed(), 1);
        let second = runs.get(&cell, 9).clone();
        assert_eq!(runs.executed(), 1, "a second lookup must not run again");
        assert_eq!(first, second);
        runs.get(&cell, 10);
        assert_eq!(runs.executed(), 2, "another seed is another run");
    }

    #[test]
    fn an_override_equal_to_the_default_is_the_default_cell() {
        let default = tiny_cell(Method::FedPkd);
        let mut theta = default.clone();
        theta.scale.pkd.theta = 0.7;
        assert_eq!(theta, default);
        let mut runs = Runs::default();
        runs.get(&default, 3);
        runs.get(&theta, 3);
        assert_eq!(runs.executed(), 1);
        theta.scale.pkd.theta = 0.5;
        assert_ne!(theta, default, "a real override is its own cell");
    }

    #[test]
    fn summary_is_mean_and_sample_sd() {
        let s = Summary::of([1.0, 2.0, 4.0]);
        assert!((s.mean - 7.0 / 3.0).abs() < 1e-12);
        // Σ(v − m)² = 16/9 + 1/9 + 25/9 = 42/9; / (n − 1) = 7/3.
        assert!((s.sd - (7.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(Summary::of([0.25; 3]).sd, 0.0);
        assert_eq!(Summary::of([0.5]), Summary { mean: 0.5, sd: 0.0 });
        assert_eq!(format!("{}", Summary::of([0.5, 0.7])), "0.6000 ± 0.1414");
        assert_eq!(
            format!("{:.1}", Summary::of([50.0, 60.0, 70.0])),
            "60.0 ± 10.0"
        );
    }
}
