//! What the baseline algorithms share on top of the client-side phase
//! functions of [`fedpkd_core::clients`]: the state every baseline
//! snapshots, the local-training and digest flavours, and the server steps
//! more than one of them runs.

use std::time::Instant;

pub(crate) use fedpkd_core::clients::{
    local_update, public_upload, ClientState as Client, RoundIo,
};

use crate::BaselineConfig;
use fedpkd_core::clients::{digest, validate_specs};
use fedpkd_core::cow::{pooled_client_accuracies, ClientPool};
use fedpkd_core::eval;
use fedpkd_core::fedpkd::logits::{aggregation_stats_from_probs, client_probs};
use fedpkd_core::fedpkd::CoreError;
use fedpkd_core::runtime::DriverState;
use fedpkd_core::snapshot::{self, SnapshotError, StateSink, StateSource};
use fedpkd_core::telemetry::{emit_phase_timing, Phase, TelemetryEvent};
use fedpkd_core::train::{add_proximal_grad, train_distill, train_supervised, TrainStats};
use fedpkd_data::{ClientData, Dataset, FederatedScenario};
use fedpkd_netsim::Message;
use fedpkd_rng::Rng;
use fedpkd_tensor::models::{ClassifierModel, ModelSpec};
use fedpkd_tensor::nn::Layer;
use fedpkd_tensor::optim::{Adam, Optimizer};
use fedpkd_tensor::Tensor;

/// The snapshotable half of a baseline: everything that changes from
/// round to round. The scenario and config are the static half.
pub(crate) struct Fleet {
    pub clients: ClientPool,
    /// The server-side model, for the algorithms that keep one.
    pub server: Option<ClassifierModel>,
    /// The server's RNG stream, for the algorithms whose server step draws
    /// from it.
    pub server_rng: Option<Rng>,
    pub driver: DriverState,
}

impl Fleet {
    /// Validates the wiring, then builds one client per spec and — given a
    /// `server_spec` — the server model from stream 0. The stream is handed
    /// back: an algorithm whose server step draws from it stores it in
    /// `server_rng`, which also puts it in the snapshot.
    pub fn new(
        scenario: &FederatedScenario,
        config: &BaselineConfig,
        client_specs: &[ModelSpec],
        server_spec: Option<&ModelSpec>,
        homogeneous: bool,
        seed: u64,
    ) -> Result<(Self, Rng), CoreError> {
        config.validate()?;
        validate_specs(scenario, client_specs, server_spec, homogeneous)?;
        let mut server_rng = Rng::stream(seed, 0);
        let fleet = Self {
            clients: ClientPool::new(client_specs, config.learning_rate, seed),
            server: server_spec.map(|spec| spec.build(&mut server_rng)),
            server_rng: None,
            driver: DriverState::new(),
        };
        Ok((fleet, server_rng))
    }

    /// Server accuracy on the global test set, if there is a server model.
    pub fn server_accuracy(&mut self, scenario: &FederatedScenario) -> Option<f64> {
        let server = self.server.as_mut()?;
        Some(eval::accuracy(server, &scenario.global_test))
    }

    /// Per-client accuracy on the clients' local test sets.
    pub fn client_accuracies(&mut self, scenario: &FederatedScenario) -> Vec<f64> {
        pooled_client_accuracies(&mut self.clients, scenario)
    }

    /// Clients, then whichever of server model and server stream exist,
    /// then the driver book-keeping.
    pub fn write(&self, w: &mut dyn StateSink) {
        snapshot::write_pool(w, &self.clients);
        if let Some(server) = &self.server {
            snapshot::write_model(w, server);
        }
        if let Some(rng) = &self.server_rng {
            snapshot::write_rng(w, rng);
        }
        snapshot::write_driver(w, &self.driver);
    }

    /// The inverse of [`write`](Self::write).
    pub fn read(&mut self, r: &mut dyn StateSource) -> Result<(), SnapshotError> {
        snapshot::read_pool(r, &mut self.clients)?;
        if let Some(server) = &mut self.server {
            snapshot::read_model(r, server)?;
        }
        if let Some(rng) = &mut self.server_rng {
            *rng = snapshot::read_rng(r)?;
        }
        self.driver = snapshot::read_driver(r)?;
        Ok(())
    }
}

/// The [`Federation`](fedpkd_core::Federation) methods every baseline
/// forwards to its [`Fleet`] (`self.state`) and `self.scenario` — all but
/// `name` and `run_round`.
macro_rules! forward_to_fleet {
    () => {
        fn num_clients(&self) -> usize {
            self.state.clients.len()
        }

        fn driver(&self) -> &fedpkd_core::runtime::DriverState {
            &self.state.driver
        }

        fn driver_mut(&mut self) -> &mut fedpkd_core::runtime::DriverState {
            &mut self.state.driver
        }

        fn server_accuracy(&mut self) -> Option<f64> {
            self.state.server_accuracy(&self.scenario)
        }

        fn client_accuracies(&mut self) -> Vec<f64> {
            self.state.client_accuracies(&self.scenario)
        }

        fn write_state(&self, w: &mut dyn fedpkd_core::snapshot::StateSink) {
            self.state.write(w);
        }

        fn read_state(
            &mut self,
            r: &mut dyn fedpkd_core::snapshot::StateSource,
        ) -> Result<(), fedpkd_core::snapshot::SnapshotError> {
            self.state.read(r)
        }
    };
}
pub(crate) use forward_to_fleet;

/// One private-data pass (Eq. 4) on the client's own persistent optimizer.
pub(crate) fn train_local(
    config: &BaselineConfig,
    client: &mut Client,
    data: &ClientData,
) -> TrainStats {
    train_supervised(
        &mut client.model,
        &data.train,
        config.local_epochs,
        config.batch_size,
        &mut client.optimizer,
        &mut client.rng,
    )
}

/// [`train_local`] from a fresh optimizer: the parameter-averaging methods
/// start every round from the freshly loaded global state, so the
/// optimizer starts fresh too.
pub(crate) fn train_fresh(
    config: &BaselineConfig,
    client: &mut Client,
    data: &ClientData,
) -> TrainStats {
    train_supervised(
        &mut client.model,
        &data.train,
        config.local_epochs,
        config.batch_size,
        &mut Adam::new(config.learning_rate),
        &mut client.rng,
    )
}

/// Each sender's private-set size: the FedAvg weights (Eq. 1).
pub(crate) fn train_sizes(scenario: &FederatedScenario, senders: &[usize]) -> Vec<f64> {
    senders
        .iter()
        .map(|&client| scenario.clients[client].train.len() as f64)
        .collect()
}

/// The distilling baselines' downlink: every survivor is billed one logits
/// message the size of `target` and digests it — distills toward it on the
/// whole public set, on its own persistent optimizer.
pub(crate) fn digest_public(
    clients: &mut ClientPool,
    scenario: &FederatedScenario,
    config: &BaselineConfig,
    io: &mut RoundIo<'_>,
    target: &Tensor,
    temperature: f32,
) {
    let public = &scenario.public;
    let bytes = Message::logits_encoded_len(public.len(), target.as_slice().len());
    digest(clients, scenario, io, &[bytes], |client| {
        train_distill(
            &mut client.model,
            public.features(),
            target,
            config.gamma,
            temperature,
            config.digest_epochs,
            config.batch_size,
            &mut client.optimizer,
            &mut client.rng,
        )
    });
}

/// The plain mean of the admitted uploads, reported as a
/// `LogitAggregation` event; `None` when nothing was admitted.
pub(crate) fn mean_upload(uploads: &[Tensor], io: &mut RoundIo<'_>) -> Option<Tensor> {
    let mut mean = Tensor::zeros(uploads.first()?.shape());
    let w = 1.0 / uploads.len() as f32;
    for upload in uploads {
        mean.axpy(w, upload).expect("admission checked the shapes");
    }
    report_ensemble(uploads, io);
    Some(mean)
}

/// Reports how much the ensemble members disagree (uniform weights; the
/// softmax taken here is monotone per row, so probabilities and logits
/// measure alike).
pub(crate) fn report_ensemble(members: &[Tensor], io: &mut RoundIo<'_>) {
    if io.obs.enabled() {
        let stats = aggregation_stats_from_probs(&client_probs(members), false);
        io.obs.record(&TelemetryEvent::LogitAggregation {
            round: io.round,
            clients: members.len(),
            variance_weighting: false,
            mean_client_weight: stats.mean_client_weight,
            disagreement: stats.disagreement,
        });
    }
}

/// The server step of the distilling baselines: trains `server` toward
/// `teacher` on the public set from a fresh optimizer, and reports it.
pub(crate) fn distill_server(
    server: &mut ClassifierModel,
    public: &Dataset,
    teacher: &Tensor,
    temperature: f32,
    config: &BaselineConfig,
    rng: &mut Rng,
    io: &mut RoundIo<'_>,
) {
    let started = Instant::now();
    let stats = train_distill(
        server,
        public.features(),
        teacher,
        config.gamma,
        temperature,
        config.server_epochs,
        config.batch_size,
        &mut Adam::new(config.learning_rate),
        rng,
    );
    io.obs.record(&TelemetryEvent::ServerDistill {
        round: io.round,
        kd_loss: stats.mean_loss,
        proto_loss: 0.0,
        combined_loss: stats.mean_loss,
        batches: stats.batches,
    });
    emit_phase_timing(io.obs, io.round, Phase::ServerDistill, started);
}

/// Eq. 4's trainer stepped through [`Proximal`]: the FedProx term
/// `μ/2 · ‖w − w_global‖²` enters every mini-batch through its gradient,
/// and the reported mean loss is the cross-entropy alone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_supervised_prox(
    model: &mut ClassifierModel,
    dataset: &Dataset,
    reference: &[f32],
    mu: f32,
    epochs: usize,
    batch_size: usize,
    optimizer: &mut dyn Optimizer,
    rng: &mut Rng,
) -> TrainStats {
    assert_eq!(
        reference.len(),
        model.param_count(),
        "reference does not match the model's parameters"
    );
    let (mut anchors, mut rest) = (Vec::new(), reference);
    model.visit_params(&mut |p| {
        let (anchor, tail) = rest.split_at(p.value.len());
        anchors.push(anchor);
        rest = tail;
    });
    let mut proximal = Proximal {
        inner: optimizer,
        anchors,
        mu,
    };
    train_supervised(model, dataset, epochs, batch_size, &mut proximal, rng)
}

/// FedProx's per-parameter hook as an optimizer: `inner`'s update, with the
/// proximal gradient `μ(w − w_ref)` folded into each gradient it is handed
/// (thread scratch for a fused `Linear`) just ahead of it.
struct Proximal<'a> {
    inner: &'a mut dyn Optimizer,
    /// Each parameter's slice of `w_ref`, by slot.
    anchors: Vec<&'a [f32]>,
    mu: f32,
}

impl Optimizer for Proximal<'_> {
    fn begin_step(&mut self, model: &dyn Layer) {
        self.inner.begin_step(model);
    }

    fn update(&mut self, slot: usize, value: &mut [f32], grad: &mut [f32]) {
        add_proximal_grad(grad, value, self.anchors[slot], self.mu);
        self.inner.update(slot, value, grad);
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpkd_core::telemetry::NullObserver;
    use fedpkd_data::{FederatedScenario, Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_netsim::{Cohort, CommLedger, RoundContext};
    use fedpkd_tensor::models::{DepthTier, ModelSpec};
    use fedpkd_tensor::ops::{sharpen, softmax};
    use fedpkd_tensor::serialize::param_vector;

    pub(crate) fn tiny_scenario(seed: u64) -> FederatedScenario {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(3)
            .samples(360)
            .public_size(120)
            .global_test_size(150)
            .partition(Partition::Dirichlet { alpha: 0.5 })
            .seed(seed)
            .build()
            .unwrap()
    }

    fn spec(tier: DepthTier) -> ModelSpec {
        ModelSpec::ResMlp {
            input_dim: 32,
            num_classes: 10,
            tier,
        }
    }

    /// FedProx's loop against a committed fingerprint of everything it
    /// leaves behind: the model's state bits, Adam's step and moments, the
    /// RNG words and the stats' bits. Moving any of them fails here.
    #[test]
    fn prox_training_is_pinned() {
        use fedpkd_netsim::Fnv1a;
        use fedpkd_tensor::serialize::state_vector;

        let mut rng = Rng::seed_from_u64(1);
        let features = Tensor::randn(&[70, 32], 1.0, &mut rng);
        let labels = (0..70).map(|_| rng.range_usize(0, 10)).collect();
        let data = Dataset::new(features, labels, 10).unwrap();
        let mut model = spec(DepthTier::T11).build(&mut Rng::seed_from_u64(11));
        let reference = param_vector(&spec(DepthTier::T11).build(&mut Rng::seed_from_u64(13)));
        let (mut adam, mut rng) = (Adam::new(0.01), Rng::seed_from_u64(12));
        let stats = train_supervised_prox(
            &mut model, &data, &reference, 0.5, 2, 16, &mut adam, &mut rng,
        );
        assert_eq!(stats.batches, 10);

        let mut hash = Fnv1a::new();
        let mut fold = |values: &[f32]| {
            for v in values {
                hash.update(&v.to_bits().to_le_bytes());
            }
        };
        fold(&state_vector(&model));
        let (m, v) = adam.moments();
        for moment in m.iter().chain(v) {
            fold(moment.as_slice());
        }
        hash.update(&adam.step_count().to_le_bytes());
        for word in rng.state() {
            hash.update(&word.to_le_bytes());
        }
        hash.update(&(stats.batches as f64).to_bits().to_le_bytes());
        hash.update(&stats.mean_loss.to_bits().to_le_bytes());
        assert_eq!(hash.finish(), 0x8ffe_f639_3cfe_3fbe);
    }

    #[test]
    fn prox_training_stays_near_reference_for_large_mu() {
        let scenario = tiny_scenario(4);
        let clients = ClientPool::new(&[spec(DepthTier::T11)], 0.001, 9);
        let c = &mut clients.materialize(0);
        let reference = param_vector(&c.model);
        // Huge mu: weights should barely move.
        let stats = train_supervised_prox(
            &mut c.model,
            &scenario.clients[0].train,
            &reference,
            100.0,
            2,
            32,
            &mut c.optimizer,
            &mut c.rng,
        );
        assert!(stats.batches > 0 && stats.mean_loss > 0.0);
        let after = param_vector(&c.model);
        let drift: f32 = reference
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        // Compare against an unconstrained run from the same start.
        let f = &mut clients.materialize(0);
        fedpkd_core::train::train_supervised(
            &mut f.model,
            &scenario.clients[0].train,
            2,
            32,
            &mut f.optimizer,
            &mut f.rng,
        );
        let free_after = param_vector(&f.model);
        let free_drift: f32 = reference
            .iter()
            .zip(&free_after)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(
            drift < free_drift,
            "prox drift {drift} should be below free drift {free_drift}"
        );
    }

    // ---- The consensus FedMD, NaiveKD and DS-FL distill toward ----------
    //
    // Each row diffs the production composition against a naive `f64`
    // reference written from the method's paper, sharing no code with the
    // product. `u = 2⁻²⁴` is the `f32` unit roundoff.

    /// Relative tolerance, per entry, of both consensus rows.
    const TOL: f64 = 1e-5;

    const UPLOADERS: usize = 3;

    /// Three clients' public-set logits: 6 samples, 4 classes, entries of
    /// `N(0, 1)`, all below 4 in magnitude (asserted).
    fn consensus_logits() -> Vec<Tensor> {
        let mut rng = Rng::seed_from_u64(77);
        let logits: Vec<Tensor> = (0..UPLOADERS)
            .map(|_| Tensor::randn(&[6, 4], 1.0, &mut rng))
            .collect();
        let max = logits
            .iter()
            .flat_map(|z| z.as_slice())
            .fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max < 4.0, "fixture bound: max |z| = {max}");
        logits
    }

    /// [`mean_upload`] in a round every client survives.
    fn production_mean(uploads: &[Tensor]) -> Tensor {
        let ctx = RoundContext::benign(Cohort::full(uploads.len()));
        let (mut ledger, mut obs) = (CommLedger::new(), NullObserver);
        let io = &mut RoundIo::new(0, &ctx, &mut ledger, &mut obs);
        mean_upload(uploads, io).expect("three uploads")
    }

    /// The rows of `t` in `f64`.
    fn rows(t: &Tensor) -> Vec<Vec<f64>> {
        (0..t.rows())
            .map(|r| t.row(r).iter().map(|&v| f64::from(v)).collect())
            .collect()
    }

    /// Row `r` of every client, averaged: `(1/C) Σ_c clients[c][r]`.
    fn mean_row(clients: &[Vec<Vec<f64>>], r: usize) -> Vec<f64> {
        (0..clients[0][r].len())
            .map(|j| clients.iter().map(|c| c[r][j]).sum::<f64>() / clients.len() as f64)
            .collect()
    }

    /// `exp(z_j / T) / Σ_k exp(z_k / T)`.
    fn softmax_row(z: &[f64], t: f64) -> Vec<f64> {
        let e: Vec<f64> = z.iter().map(|v| (v / t).exp()).collect();
        let total: f64 = e.iter().sum();
        e.iter().map(|v| v / total).collect()
    }

    /// The largest per-entry relative gap between `got` and `want`.
    fn worst_gap(got: &[Vec<f64>], want: &[Vec<f64>]) -> f64 {
        assert_eq!(got.len(), want.len(), "row count");
        got.iter()
            .flatten()
            .zip(want.iter().flatten())
            .map(|(g, w)| (g - w).abs() / w.abs())
            .fold(0.0, f64::max)
    }

    /// FedMD (Li & Wang) and NaiveKD: the consensus is the softmax, at the
    /// distillation temperature `T`, of the clients' mean logits —
    /// `q_ij = exp(z̄_ij / T) / Σ_k exp(z̄_ik / T)`, `z̄ = (1/C) Σ_c z_c`.
    ///
    /// Tolerance: the `f32` mean rounds `1/C` once and each of its `C`
    /// multiply-adds twice, every rounding at most `u·max|z| < 4u`, so each
    /// `z̄` is within `(2C + 1)·4u = 28u`. The softmax argument
    /// `z̄_ij − max_k z̄_ik` carries two such errors and its own rounding
    /// (`< 8u`), `64u`, which the division by `T = 2` and `exp` turn into
    /// about `34u` relative per term; the `K`-term normaliser adds another
    /// `34u + K·u` and the division `u`, so each probability is within
    /// about `73u ≈ 4.4e-6` relative. [`TOL`] allows twice that. The
    /// probability average (the ensemble FedDF distills toward) misses the
    /// same reference by more than `100 × TOL`, also asserted.
    #[test]
    fn fedmd_consensus_matches_the_reference() {
        let t = BaselineConfig::default().temperature;
        let logits = consensus_logits();
        let got = rows(&softmax(&production_mean(&logits), t));
        let clients: Vec<Vec<Vec<f64>>> = logits.iter().map(rows).collect();
        let samples = 0..logits[0].rows();
        let want: Vec<Vec<f64>> = samples
            .clone()
            .map(|r| softmax_row(&mean_row(&clients, r), f64::from(t)))
            .collect();
        let gap = worst_gap(&got, &want);
        assert!(gap <= TOL, "softmax of the mean logits: relative gap {gap}");

        let client_probs: Vec<Vec<Vec<f64>>> = clients
            .iter()
            .map(|c| c.iter().map(|z| softmax_row(z, f64::from(t))).collect())
            .collect();
        let probability_average: Vec<Vec<f64>> =
            samples.map(|r| mean_row(&client_probs, r)).collect();
        let gap = worst_gap(&probability_average, &want);
        assert!(
            gap > 100.0 * TOL,
            "the probability average is a different rule: gap {gap}"
        );
    }

    /// DS-FL (Itahara et al.): entropy-reduction aggregation — clients
    /// upload softmax probabilities, the server averages them and sharpens
    /// the mean at `T_s`: `s_ij = p̄_ij^{1/T_s} / Σ_k p̄_ik^{1/T_s}`,
    /// `p̄ = (1/C) Σ_c p_c`, over the uploaded `f32` probabilities.
    ///
    /// Tolerance: every term is non-negative, so nothing cancels. The `f32`
    /// mean is within `(2C + 1)·u = 7u` relative, `powf(1/T_s)` at
    /// `T_s = 0.5` doubles that and rounds once (`15u`), and the `K`-term
    /// normaliser and the division add `15u + K·u + u`: about
    /// `35u ≈ 2.1e-6` relative per entry. [`TOL`] allows five times that;
    /// the sharpening itself moves the plain mean by more than
    /// `100 × TOL`, also asserted.
    #[test]
    fn dsfl_consensus_matches_the_reference() {
        let t_s = BaselineConfig::default().sharpen_temperature;
        let probs: Vec<Tensor> = consensus_logits().iter().map(|z| softmax(z, 1.0)).collect();
        let mean = production_mean(&probs);
        let got = rows(&sharpen(&mean, t_s));
        let clients: Vec<Vec<Vec<f64>>> = probs.iter().map(rows).collect();
        let want: Vec<Vec<f64>> = (0..probs[0].rows())
            .map(|r| {
                let powered: Vec<f64> = mean_row(&clients, r)
                    .iter()
                    .map(|p| p.powf(1.0 / f64::from(t_s)))
                    .collect();
                let total: f64 = powered.iter().sum();
                powered.iter().map(|p| p / total).collect()
            })
            .collect();
        let gap = worst_gap(&got, &want);
        assert!(
            gap <= TOL,
            "sharpened mean probabilities: relative gap {gap}"
        );
        let gap = worst_gap(&rows(&mean), &want);
        assert!(
            gap > 100.0 * TOL,
            "sharpening must move the mean: gap {gap}"
        );
    }
}
