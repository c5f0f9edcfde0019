//! Shared infrastructure for the experiment harness.
//!
//! Every bench target under `benches/` reproduces one table or figure of
//! the paper's evaluation (see DESIGN.md §4 for the index). This library
//! provides the shared pieces: paper-faithful scenario presets, method
//! constructors, scale profiles, and table printers.
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
#[derive(Debug, Clone)]
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
/// models and returns the run result.
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

/// Runs FedPKD with a modified configuration (for the ablation and
/// sensitivity sweeps of Figs. 8–10).
///
/// # Panics
///
/// Panics if the mutated configuration is invalid.
pub fn run_fedpkd_with(
    scale: &Scale,
    task: Task,
    setting: Setting,
    seed: u64,
    mutate: impl FnOnce(&mut FedPkdConfig),
) -> RunResult {
    let mut config = scale.pkd.clone();
    mutate(&mut config);
    let scenario = scale.scenario(task, setting, seed);
    let mut algo = FedPkd::new(
        scenario,
        vec![scale.client_spec(task); scale.clients],
        scale.server_spec(task),
        config,
        seed,
    )
    .expect("mutated config must stay valid");
    Driver::rounds(scale.rounds).run_silent(&mut algo)
}

/// Formats an optional accuracy as a percent cell.
pub fn pct(acc: Option<f64>) -> String {
    match acc {
        Some(a) => format!("{:.2}%", a * 100.0),
        None => "n/a".to_string(),
    }
}

/// Prints a markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
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
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
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
        "scale profile: {} (set FEDPKD_SCALE=paper for the full budget)",
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

    #[test]
    fn pct_formats() {
        assert_eq!(pct(Some(0.5)), "50.00%");
        assert_eq!(pct(None), "n/a");
    }
}
