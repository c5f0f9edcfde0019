//! Assembly of a complete federated scenario.

use crate::{partition_indices, DataError, Dataset, Partition, SyntheticConfig};
use fedpkd_rng::Rng;

/// The Dirichlet concentration grid of the heterogeneity sweep, extreme
/// (`α = 0.05`, near single-class clients) to mild (`α = 1.0`) non-IID.
pub const ALPHA_SWEEP: [f64; 4] = [0.05, 0.1, 0.5, 1.0];

/// One client's data: a private training set and a local test set drawn from
/// the same (non-IID) distribution.
///
/// The paper measures *personalized* client accuracy on a local test set
/// whose distribution matches the client's training distribution (§V-A,
/// Metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientData {
    /// Private training samples.
    pub train: Dataset,
    /// Held-out samples with the same label distribution as `train`.
    pub test: Dataset,
}

/// A fully assembled federated learning scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedScenario {
    /// The shared public dataset. Algorithms must treat it as **unlabeled**;
    /// the labels are retained only for diagnostics (e.g. measuring
    /// aggregated-logit quality as in Fig. 2).
    pub public: Dataset,
    /// Per-client private data.
    pub clients: Vec<ClientData>,
    /// The global test set spanning all classes (server-model metric).
    pub global_test: Dataset,
    /// Number of classes in the task.
    pub num_classes: usize,
}

impl FederatedScenario {
    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Total number of private training samples across clients.
    pub fn total_train_samples(&self) -> usize {
        self.clients.iter().map(|c| c.train.len()).sum()
    }
}

/// Builder for [`FederatedScenario`].
///
/// # Examples
///
/// ```
/// use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
///
/// let scenario = ScenarioBuilder::new(SyntheticConfig::cifar10_like())
///     .clients(8)
///     .partition(Partition::Dirichlet { alpha: 0.1 })
///     .samples(2_000)
///     .public_size(400)
///     .global_test_size(500)
///     .local_test_fraction(0.2)
///     .seed(42)
///     .build()?;
/// assert_eq!(scenario.num_clients(), 8);
/// # Ok::<(), fedpkd_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    config: SyntheticConfig,
    num_clients: usize,
    partition: Partition,
    samples: usize,
    public_size: usize,
    global_test_size: usize,
    local_test_fraction: f64,
    seed: u64,
}

impl ScenarioBuilder {
    /// Starts a builder with sensible small-scale defaults: 10 clients,
    /// Dirichlet(0.5), 2 000 private samples, 500 public samples, 500 global
    /// test samples, 20 % local test fraction, seed 0.
    pub fn new(config: SyntheticConfig) -> Self {
        Self {
            config,
            num_clients: 10,
            partition: Partition::Dirichlet { alpha: 0.5 },
            samples: 2_000,
            public_size: 500,
            global_test_size: 500,
            local_test_fraction: 0.2,
            seed: 0,
        }
    }

    /// Sets the number of clients.
    pub fn clients(mut self, num_clients: usize) -> Self {
        self.num_clients = num_clients;
        self
    }

    /// Sets the partitioning strategy.
    pub fn partition(mut self, partition: Partition) -> Self {
        self.partition = partition;
        self
    }

    /// Sets the total number of private samples distributed to clients.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the size of the shared public dataset.
    pub fn public_size(mut self, public_size: usize) -> Self {
        self.public_size = public_size;
        self
    }

    /// Sets the size of the global test set.
    pub fn global_test_size(mut self, global_test_size: usize) -> Self {
        self.global_test_size = global_test_size;
        self
    }

    /// Sets the fraction of each client's data held out as a local test set.
    pub fn local_test_fraction(mut self, fraction: f64) -> Self {
        self.local_test_fraction = fraction;
        self
    }

    /// Sets the experiment seed. Everything — data, partition, splits — is a
    /// deterministic function of it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the scenario.
    ///
    /// One pool of `samples + public_size + global_test_size` samples is
    /// generated with shared class structure, then carved into the private
    /// pool (partitioned across clients), the public pool, and the global
    /// test set, so all three share the same underlying distribution — as
    /// when the paper carves CIFAR into private/public/test portions.
    ///
    /// # Errors
    ///
    /// Returns a [`DataError`] if the generator config or the partition
    /// arguments are invalid, or there are too few samples per client.
    pub fn build(&self) -> Result<FederatedScenario, DataError> {
        if !(0.0..1.0).contains(&self.local_test_fraction) {
            return Err(DataError::InvalidConfig(
                "local test fraction must be in [0, 1)".into(),
            ));
        }
        if self.public_size == 0 || self.global_test_size == 0 {
            return Err(DataError::InvalidConfig(
                "public and global test sets must be non-empty".into(),
            ));
        }
        let mut rng = Rng::stream(self.seed, 0xDA7A);
        let total = self.samples + self.public_size + self.global_test_size;
        let pool = self.config.generate(total, &mut rng)?;

        // Carve the pool: [private | public | global test].
        let private_idx: Vec<usize> = (0..self.samples).collect();
        let public_idx: Vec<usize> = (self.samples..self.samples + self.public_size).collect();
        let test_idx: Vec<usize> = (self.samples + self.public_size..total).collect();
        let private = pool.subset(&private_idx);
        let public = pool.subset(&public_idx);
        let global_test = pool.subset(&test_idx);

        let parts = partition_indices(
            private.labels(),
            self.config.num_classes,
            self.num_clients,
            self.partition,
            &mut rng,
        )?;

        let mut clients = Vec::with_capacity(self.num_clients);
        for part in &parts {
            // Shuffle within the client before the train/test split so the
            // local test set matches the local label distribution.
            let mut indices = part.clone();
            rng.shuffle(&mut indices);
            let n_test = ((indices.len() as f64) * self.local_test_fraction).round() as usize;
            let n_test = n_test.min(indices.len().saturating_sub(1));
            let (test_part, train_part) = indices.split_at(n_test);
            if train_part.is_empty() {
                return Err(DataError::NotEnoughSamples {
                    required: 1,
                    available: 0,
                });
            }
            clients.push(ClientData {
                train: private.subset(train_part),
                test: private.subset(test_part),
            });
        }

        Ok(FederatedScenario {
            public,
            clients,
            global_test,
            num_classes: self.config.num_classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label_distribution;

    fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(5)
            .samples(1_000)
            .public_size(200)
            .global_test_size(300)
            .seed(11)
    }

    #[test]
    fn build_produces_expected_sizes() {
        let s = builder().build().unwrap();
        assert_eq!(s.num_clients(), 5);
        assert_eq!(s.public.len(), 200);
        assert_eq!(s.global_test.len(), 300);
        let total: usize = s.clients.iter().map(|c| c.train.len() + c.test.len()).sum();
        assert_eq!(total, 1_000);
        assert_eq!(
            s.total_train_samples() + 1_000 - total,
            s.total_train_samples()
        );
    }

    #[test]
    fn local_test_matches_train_distribution() {
        let s = builder()
            .partition(Partition::Dirichlet { alpha: 0.1 })
            .samples(4_000)
            .build()
            .unwrap();
        for client in &s.clients {
            if client.test.len() < 30 {
                continue; // too small for a stable comparison
            }
            let train_dist = label_distribution(
                client.train.labels(),
                &(0..client.train.len()).collect::<Vec<_>>(),
                10,
            );
            let test_dist = label_distribution(
                client.test.labels(),
                &(0..client.test.len()).collect::<Vec<_>>(),
                10,
            );
            let tv: f64 = train_dist
                .iter()
                .zip(&test_dist)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 2.0;
            assert!(tv < 0.35, "train/test distribution divergence {tv}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = builder().build().unwrap();
        let b = builder().build().unwrap();
        assert_eq!(a, b);
        let c = builder().seed(12).build().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn every_client_has_training_data() {
        let s = builder()
            .partition(Partition::Dirichlet { alpha: 0.05 })
            .build()
            .unwrap();
        for client in &s.clients {
            assert!(!client.train.is_empty());
        }
    }

    #[test]
    fn rejects_bad_test_fraction() {
        assert!(builder().local_test_fraction(1.0).build().is_err());
        assert!(builder().local_test_fraction(-0.1).build().is_err());
    }

    #[test]
    fn rejects_empty_public_set() {
        assert!(builder().public_size(0).build().is_err());
    }

    #[test]
    fn shards_partition_builds() {
        let s = builder()
            .samples(2_000)
            .partition(Partition::Shards {
                shard_size: 20,
                shards_per_client: 10,
                classes_per_client: 3,
            })
            .build()
            .unwrap();
        for client in &s.clients {
            let classes: std::collections::BTreeSet<usize> =
                client.train.labels().iter().copied().collect();
            assert!(classes.len() <= 3);
        }
    }

    #[test]
    fn alpha_sweep_varies_only_the_partition() {
        let sweep: Vec<(f64, FederatedScenario)> = ALPHA_SWEEP
            .iter()
            .map(|&alpha| {
                let point = builder()
                    .samples(4_000)
                    .partition(Partition::Dirichlet { alpha });
                (alpha, point.build().unwrap())
            })
            .collect();
        // Same seed, same pool: the shared sets are identical across α …
        let (_, first) = &sweep[0];
        for (alpha, s) in &sweep[1..] {
            assert_eq!(s.public, first.public, "public differs at α={alpha}");
            assert_eq!(s.global_test, first.global_test);
            assert!(s.clients.iter().all(|c| !c.train.is_empty()));
        }
        // … while the partitions are not.
        let (_, mild) = sweep.last().unwrap();
        assert_ne!(first.clients, mild.clients);
        // Lower α concentrates each client on fewer classes: the mean
        // max-class share shrinks monotonically in expectation, and with a
        // fixed seed this realization must show extreme > mild.
        let concentration = |s: &FederatedScenario| -> f64 {
            let per_client: f64 = s
                .clients
                .iter()
                .map(|c| {
                    let idx: Vec<usize> = (0..c.train.len()).collect();
                    label_distribution(c.train.labels(), &idx, 10)
                        .into_iter()
                        .fold(0.0f64, f64::max)
                })
                .sum();
            per_client / s.num_clients() as f64
        };
        assert!(
            concentration(first) > concentration(mild) + 0.1,
            "α=0.05 ({}) should be far more concentrated than α=1.0 ({})",
            concentration(first),
            concentration(mild)
        );
    }

    #[test]
    fn public_set_spans_classes() {
        let s = builder().build().unwrap();
        let hist = crate::class_histogram(s.public.labels(), 10);
        let present = hist.iter().filter(|&&c| c > 0).count();
        assert!(present >= 8, "public pool covers {present}/10 classes");
    }
}
