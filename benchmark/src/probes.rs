//! Per-layer probes: each rebuilds a piece of the workload at the
//! workload's own shapes and times direct calls into one public function,
//! median of at least [`MIN_CALLS`] calls ([`MIN_SLOW_CALLS`] for calls that
//! take tens of milliseconds), inside a `probe.*` span.
//!
//! The probes measure layers from outside, through `pub` items only; spans
//! inside the product are a later change.

use std::time::{Duration, Instant};

use fedpkd_core::admission::AdmissionPolicy;
use fedpkd_core::eval;
use fedpkd_core::fedpkd::distill::train_server;
use fedpkd_core::fedpkd::filter::filter_public;
use fedpkd_core::fedpkd::generator::{self, Generator};
use fedpkd_core::fedpkd::logits::{aggregate_logits_from_probs, client_probs, pseudo_labels};
use fedpkd_core::fedpkd::prototypes::{
    aggregate_prototypes, compute_prototypes, to_wire_entries, Prototype,
};
use fedpkd_core::streaming::{LogitAccumulator, PrototypeAccumulator};
use fedpkd_core::train::{train_distill, train_supervised};
use fedpkd_data::{FederatedScenario, ScenarioBuilder};
use fedpkd_netsim::{sample_cohort, CommLedger, Direction, Message, QuantizedLogits, Wire};
use fedpkd_rng::Rng;
use fedpkd_tensor::loss::{distill_kl_ce, CrossEntropy, DistillKl, Mse};
use fedpkd_tensor::models::ModelSpec;
use fedpkd_tensor::nn::Layer;
use fedpkd_tensor::optim::{Adam, Optimizer};
use fedpkd_tensor::parallel::{dispatch_stealing, max_workers};
use fedpkd_tensor::serialize::{load_param_vector, param_vector};
use fedpkd_tensor::Tensor;

use crate::alloc;
use crate::metrics::MetricSet;
use crate::span::SpanRecorder;
use crate::stats::median;

/// Fewest timed calls behind a probe's median…
pub const MIN_CALLS: usize = 30;

/// …unless the calls are so slow (whole-fleet snapshots) that thirty of
/// them would not fit the traced run: past [`SLOW_PROBE`] of timed calls a
/// probe stops once it has this many.
pub const MIN_SLOW_CALLS: usize = 5;

/// Time after which a probe settles for [`MIN_SLOW_CALLS`].
const SLOW_PROBE: Duration = Duration::from_millis(1_200);

/// Most timed calls, however cheap the call.
const MAX_CALLS: usize = 4_000;

/// Mini-batch size of every training step the product runs.
const BATCH: usize = 32;

/// Times calls for one traced run and files the medians as metrics.
pub struct Prober<'a> {
    spans: &'a mut SpanRecorder,
    /// Where the medians go.
    pub metrics: &'a mut MetricSet,
    /// Keep calling (past [`MIN_CALLS`]) until this much time is spent.
    budget: Duration,
}

impl<'a> Prober<'a> {
    /// A prober for one traced run. Cheap probes keep calling for 25 ms
    /// past their [`MIN_CALLS`]; under `--smoke` they stop at the minimum.
    pub fn new(spans: &'a mut SpanRecorder, metrics: &'a mut MetricSet, smoke: bool) -> Self {
        Self {
            spans,
            metrics,
            budget: Duration::from_millis(if smoke { 0 } else { 25 }),
        }
    }

    /// Median of the seconds `call` reports for itself: the closure does
    /// any untimed preparation, times its own critical section and returns
    /// that. One warm-up call first, so lazily built state (Adam moments,
    /// scratch pools) is in place, as it is in every round but a run's
    /// first.
    pub fn time_samples(&mut self, span: &str, mut call: impl FnMut() -> f64) -> f64 {
        let id = self.spans.open(&format!("probe.{span}"));
        call();
        let mut samples = Vec::with_capacity(MIN_CALLS);
        let began = Instant::now();
        loop {
            let spent = began.elapsed();
            let enough = if spent > SLOW_PROBE {
                samples.len() >= MIN_SLOW_CALLS
            } else {
                samples.len() >= MIN_CALLS && (spent >= self.budget || samples.len() >= MAX_CALLS)
            };
            if enough {
                break;
            }
            samples.push(call());
        }
        self.spans.close(id);
        median(&samples)
    }

    /// Median seconds of `f()`.
    pub fn time<T>(&mut self, span: &str, mut f: impl FnMut() -> T) -> f64 {
        self.time_samples(span, || {
            let started = Instant::now();
            let output = f();
            let seconds = started.elapsed().as_secs_f64();
            std::hint::black_box(output);
            seconds
        })
    }

    /// Times `f` and files the median under `metric`, scaled from seconds
    /// by `per_second` (`1e6` for a `_us` metric).
    pub fn measure<T>(&mut self, metric: &str, per_second: f64, f: impl FnMut() -> T) -> f64 {
        let seconds = self.time(metric, f);
        self.metrics.set(metric, seconds * per_second);
        seconds
    }
}

/// The shapes a model-backed workload's probes rebuild: its scenario (the
/// public pool is the transfer set), its models and its hyperparameters.
pub struct Shapes<'a> {
    /// The workload's scenario.
    pub scenario: &'a FederatedScenario,
    /// One client model's spec (the most common tier).
    pub client_spec: &'a ModelSpec,
    /// The server model's spec: the model a distillation step trains.
    pub server_spec: &'a ModelSpec,
    /// Hidden width of `server_spec` (its largest matmul is width × width).
    pub server_width: usize,
    /// Clients uploading per round.
    pub cohort: usize,
    /// `δ` of Eq. 13.
    pub delta: f32,
    /// Filter keep ratio `θ`.
    pub theta: f32,
    /// KL-vs-CE mix `γ` of client distillation.
    pub gamma: f32,
    /// Softmax temperature.
    pub temperature: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
}

/// Every probe a model-backed workload shares — `tensor.*`, the round's
/// building blocks, admission and folding, the wire and the ledger, data —
/// in one call. Returns the seconds one distillation step's probed pieces
/// add up to (two `select_rows` gathers, forward, fused KL+CE, MSE,
/// backward, Adam: what `bench.probe_coverage_frac` holds against the
/// `server_distill` phase) and one client's upload.
pub fn model_probes(
    p: &mut Prober<'_>,
    shape: &Shapes<'_>,
    ledger: &CommLedger,
    scenario_builder: &ScenarioBuilder,
    seed: u64,
) -> (f64, Upload) {
    let step_seconds = tensor_probes(p, shape, seed);
    let upload = round_probes(p, shape, seed);
    admission_probes(p, &upload, shape.scenario.num_classes);
    netsim_probes(p, &upload, ledger, shape.scenario.num_clients());
    data_probes(p, scenario_builder, shape.scenario);
    (step_seconds, upload)
}

/// `tensor.*`: one batch-32 training step of the workload's server model,
/// piece by piece, plus the exact allocations of a whole step.
fn tensor_probes(p: &mut Prober<'_>, shape: &Shapes<'_>, seed: u64) -> f64 {
    let mut rng = Rng::stream(seed, 0x70_726f_6265);
    let mut model = shape.server_spec.build(&mut rng);
    let classes = model.num_classes();
    let feature_dim = model.feature_dim();
    let features = shape.scenario.public.features();
    let rows: Vec<usize> = (0..BATCH.min(features.rows())).collect();
    let x = features.select_rows(&rows).expect("rows in range");
    let batch = x.rows();
    let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
    let teacher = fedpkd_tensor::ops::softmax(
        &Tensor::rand_uniform(&[batch, classes], -3.0, 3.0, &mut rng),
        1.0,
    );
    let feature_target = Tensor::randn(&[batch, feature_dim], 1.0, &mut rng);
    let kl = DistillKl::new(shape.temperature);

    let gather = p.measure("tensor.tensor.select_rows_us", 1e6, || {
        features.select_rows(&rows).expect("rows in range")
    });
    let forward = p.measure("tensor.models.forward_train_us", 1e6, || {
        model.forward_full(&x, true)
    });
    let (feats, logits) = model.forward_full(&x, true);
    let kl_ce = p.measure("tensor.loss.kl_ce_us", 1e6, || {
        distill_kl_ce(&kl, &logits, &teacher, &labels)
    });
    p.measure("tensor.loss.xent_us", 1e6, || {
        CrossEntropy::new().loss_and_grad(&logits, &labels)
    });
    let mse = p.measure("tensor.loss.mse_us", 1e6, || {
        Mse::new().loss_and_grad(&feats, &feature_target)
    });
    let ((_, logit_grad), _) = distill_kl_ce(&kl, &logits, &teacher, &labels);
    let (_, feature_grad) = Mse::new().loss_and_grad(&feats, &feature_target);
    // Backward consumes the caches a train-mode forward leaves, so each
    // timed call gets a fresh (untimed) forward.
    let backward = p.time_samples("tensor.models.backward_us", || {
        model.zero_grad();
        model.forward_full(&x, true);
        let started = Instant::now();
        let input_grad = model.backward_dual(&logit_grad, Some(&feature_grad));
        let seconds = started.elapsed().as_secs_f64();
        std::hint::black_box(input_grad);
        seconds
    });
    p.metrics.set("tensor.models.backward_us", backward * 1e6);
    let mut optimizer = Adam::new(shape.learning_rate);
    let adam = p.measure("tensor.optim.adam_step_us", 1e6, || {
        optimizer.step(&mut model)
    });
    model.zero_grad();
    p.measure("tensor.models.forward_eval_us", 1e6, || {
        model.forward_features(features, false)
    });

    // The step's largest matmul: a batch of activations through one
    // width × width residual layer.
    let a = Tensor::randn(&[BATCH, shape.server_width], 1.0, &mut rng);
    let b = Tensor::randn(&[shape.server_width, shape.server_width], 1.0, &mut rng);
    let matmul = p.time("tensor.tensor.matmul_gflops", || {
        a.matmul(&b).expect("shapes agree")
    });
    let flops = 2.0 * (BATCH * shape.server_width * shape.server_width) as f64;
    p.metrics
        .set("tensor.tensor.matmul_gflops", flops / matmul / 1e9);

    let params = param_vector(&model);
    p.measure("tensor.serialize.param_vector_us", 1e6, || {
        param_vector(&model)
    });
    p.measure("tensor.serialize.load_param_vector_us", 1e6, || {
        load_param_vector(&mut model, &params).expect("same model")
    });
    let workers = max_workers();
    p.measure("tensor.parallel.dispatch_us", 1e6, || {
        dispatch_stealing((0..workers).collect(), workers, |_, i: usize| i, |_, _| ())
    });

    // Exact allocations of one whole step, as `train_server` runs it: one
    // epoch over exactly one batch. Counted on this thread only, and only
    // in the trace binary; the third call must repeat the second.
    let globals: Vec<Option<Tensor>> = (0..classes)
        .map(|_| Some(Tensor::randn(&[feature_dim], 1.0, &mut rng)))
        .collect();
    let mut step = || {
        train_server(
            &mut model,
            &x,
            &teacher,
            &labels,
            &globals,
            shape.delta,
            shape.temperature,
            1,
            BATCH,
            &mut optimizer,
            &mut rng,
        )
    };
    step();
    let (_, counts) = alloc::count(&mut step);
    let (_, again) = alloc::count(&mut step);
    assert_eq!(
        counts, again,
        "allocations of a fixed step must repeat exactly"
    );
    p.metrics.set("tensor.step.allocs", counts.allocs as f64);
    p.metrics
        .set("tensor.step.alloc_bytes", counts.bytes as f64);

    2.0 * gather + forward + kl_ce + mse + backward + adam
}

/// One client's upload, as the probes below reuse it.
pub struct Upload {
    /// Public-set logits.
    pub logits: Tensor,
    /// Local prototypes.
    pub prototypes: Vec<Option<Prototype>>,
}

impl Upload {
    /// The two wire messages the upload travels as.
    pub fn messages(&self) -> (Message, Message) {
        let rows = self.logits.rows();
        (
            Message::Logits {
                sample_ids: (0..rows as u32).collect(),
                num_classes: self.logits.cols() as u32,
                values: self.logits.as_slice().to_vec(),
            },
            Message::Prototypes {
                entries: to_wire_entries(&self.prototypes),
            },
        )
    }
}

/// `core.train/logits/prototypes/filter/eval`: the round's building blocks
/// at the workload's shapes. Returns one client's upload for the wire and
/// admission probes.
fn round_probes(p: &mut Prober<'_>, shape: &Shapes<'_>, seed: u64) -> Upload {
    let transfer = &shape.scenario.public;
    let mut rng = Rng::stream(seed, 0x72_6f75_6e64);
    let mut client = shape.client_spec.build(&mut rng);
    let mut server = shape.server_spec.build(&mut rng);
    let mut optimizer = Adam::new(shape.learning_rate);
    // The largest private shard: its epoch is the client phase's makespan.
    let shard = shape
        .scenario
        .clients
        .iter()
        .map(|c| &c.train)
        .max_by_key(|d| d.len())
        .expect("scenario has clients");

    let mut batches = 1usize;
    let supervised = p.time("core.train.supervised_steps_per_s", || {
        batches = train_supervised(&mut client, shard, 1, BATCH, &mut optimizer, &mut rng).batches;
    });
    p.metrics.set(
        "core.train.supervised_steps_per_s",
        batches as f64 / supervised,
    );

    let logits = eval::logits_on(&mut client, transfer);
    let uploads: Vec<Tensor> = vec![logits.clone(); shape.cohort];
    p.measure("core.logits.client_probs_us", 1e6, || {
        client_probs(&uploads)
    });
    let probs = client_probs(&uploads);
    p.measure("core.logits.aggregate_us", 1e6, || {
        aggregate_logits_from_probs(&probs, true).expect("aligned uploads")
    });
    let teacher = aggregate_logits_from_probs(&probs, true).expect("aligned uploads");

    let distill = p.time("core.train.distill_steps_per_s", || {
        batches = train_distill(
            &mut client,
            transfer.features(),
            &teacher,
            shape.gamma,
            shape.temperature,
            1,
            BATCH,
            &mut optimizer,
            &mut rng,
        )
        .batches;
    });
    p.metrics
        .set("core.train.distill_steps_per_s", batches as f64 / distill);

    p.measure("core.prototypes.compute_us", 1e6, || {
        compute_prototypes(&mut client, shard)
    });
    // Server-space prototypes, so the filter below sees matching widths.
    let prototypes = compute_prototypes(&mut server, shard);
    let cohort_protos = vec![prototypes.clone(); shape.cohort];
    p.measure("core.prototypes.aggregate_us", 1e6, || {
        aggregate_prototypes(&cohort_protos).expect("aligned prototypes")
    });
    let globals = aggregate_prototypes(&cohort_protos).expect("aligned prototypes");

    let server_features = eval::features_on(&mut server, transfer);
    let pseudo = pseudo_labels(&teacher);
    p.measure("core.filter.filter_public_us", 1e6, || {
        filter_public(&server_features, &pseudo, &globals, shape.theta)
    });
    p.measure("core.eval.accuracy_us", 1e6, || {
        eval::accuracy(&mut server, &shape.scenario.global_test)
    });

    Upload { logits, prototypes }
}

/// `core.generator.*`: the data-free path no `PhaseTiming` event covers.
pub fn generator_probes(
    p: &mut Prober<'_>,
    shape: &Shapes<'_>,
    latent_dim: usize,
    generator_lr: f32,
    seed: u64,
) {
    let mut rng = Rng::stream(seed, 0x67_656e);
    let classes = shape.scenario.num_classes;
    let (n, sample_dim) = (
        shape.scenario.public.len(),
        shape.scenario.public.sample_dim(),
    );
    let mut generator = Generator::new(latent_dim, classes, sample_dim, &mut rng);
    let mut optimizer = Adam::new(generator_lr);
    let mut server = shape.server_spec.build(&mut rng);
    let (latents, labels) = generator.draw_batch(n, &mut rng);
    p.measure("core.generator.synthesize_us", 1e6, || {
        generator.synthesize(&latents, &labels)
    });
    let teacher = fedpkd_tensor::ops::softmax(
        &Tensor::rand_uniform(&[n, classes], -3.0, 3.0, &mut rng),
        1.0,
    );
    let feature_dim = server.feature_dim();
    let globals: Vec<Option<Tensor>> = (0..classes)
        .map(|_| Some(Tensor::randn(&[feature_dim], 1.0, &mut rng)))
        .collect();
    let moments: Vec<Option<Tensor>> = (0..classes)
        .map(|_| Some(Tensor::randn(&[sample_dim], 1.0, &mut rng)))
        .collect();
    // One refine epoch per call; a round runs `generator_epochs` of them.
    p.measure("core.generator.refine_epoch_ms", 1e3, || {
        generator::refine(
            &mut generator,
            &mut optimizer,
            &mut server,
            &latents,
            &labels,
            Some(&teacher),
            &globals,
            &moments,
            shape.temperature,
            1,
        )
    });
}

/// `core.admission.*` and `core.streaming.*`: what the server does to one
/// upload before and as it folds it.
pub fn admission_probes(p: &mut Prober<'_>, upload: &Upload, classes: usize) {
    let policy = AdmissionPolicy::default();
    let (rows, cols) = (upload.logits.rows(), upload.logits.cols());
    if rows > 0 {
        p.measure("core.admission.check_logits_us", 1e6, || {
            policy
                .check_logits(&upload.logits, rows, cols)
                .expect("honest logits pass")
        });
        let probs = fedpkd_tensor::ops::softmax(&upload.logits, 1.0);
        p.measure("core.streaming.logit_fold_us", 1e6, || {
            let mut acc = LogitAccumulator::new(true);
            acc.fold_probs(&probs).expect("first fold sets the shape");
            acc
        });
    }
    let dim = upload
        .prototypes
        .iter()
        .flatten()
        .next()
        .map_or(0, |proto| proto.vector.len());
    p.measure("core.admission.check_prototypes_us", 1e6, || {
        policy
            .check_prototypes(&upload.prototypes, classes, dim)
            .expect("honest prototypes pass")
    });
    p.measure("core.streaming.proto_fold_us", 1e6, || {
        let mut acc = PrototypeAccumulator::new();
        acc.fold(&upload.prototypes)
            .expect("first fold sets the shape");
        acc
    });
}

/// `netsim.wire/quantize/ledger`: one upload across the wire, and the
/// ledger at the size the run left it.
pub fn netsim_probes(p: &mut Prober<'_>, upload: &Upload, ledger: &CommLedger, num_clients: usize) {
    let (logits_msg, protos_msg) = upload.messages();
    let messages: Vec<&Message> = if upload.logits.rows() > 0 {
        vec![&logits_msg, &protos_msg]
    } else {
        vec![&protos_msg]
    };
    let bytes: usize = messages.iter().map(|m| m.encoded_len()).sum();
    p.metrics.set("netsim.wire.upload_bytes", bytes as f64);
    p.measure("netsim.wire.encode_us", 1e6, || {
        messages.iter().map(|m| m.to_bytes()).collect::<Vec<_>>()
    });
    let encoded: Vec<Vec<u8>> = messages.iter().map(|m| m.to_bytes()).collect();
    p.measure("netsim.wire.decode_us", 1e6, || {
        encoded
            .iter()
            .map(|bytes| Message::decode(&mut bytes.as_slice()).expect("own encoding"))
            .collect::<Vec<_>>()
    });
    if let Message::Logits {
        sample_ids,
        num_classes,
        values,
    } = &logits_msg
    {
        if !values.is_empty() {
            p.measure("netsim.quantize.encode_us", 1e6, || {
                QuantizedLogits::from_values(sample_ids, *num_classes, values)
                    .expect("finite logits")
                    .to_bytes()
            });
            let quantized = QuantizedLogits::from_values(sample_ids, *num_classes, values)
                .expect("finite logits")
                .to_bytes();
            p.measure("netsim.quantize.decode_us", 1e6, || {
                QuantizedLogits::decode(&mut quantized.as_slice())
                    .expect("own encoding")
                    .dequantize()
            });
        }
    }

    const RECORDS: usize = 1_000;
    let record = p.time("netsim.ledger.record_ns", || {
        let mut fresh = CommLedger::new();
        for i in 0..RECORDS {
            fresh.record_bytes(i / 16, i % 16, Direction::Uplink, bytes);
        }
        fresh
    });
    p.metrics
        .set("netsim.ledger.record_ns", record * 1e9 / RECORDS as f64);
    // The three whole-ledger scans `FlAlgorithm::round` and `Driver::run`
    // make every round, at the run's final ledger size.
    let last = ledger.transfers().map(|t| t.round).max().unwrap_or(0);
    p.measure("netsim.ledger.round_scan_us", 1e6, || {
        (
            ledger.round_traffic(last),
            ledger.cumulative_bytes_through_round(last),
            ledger.round_client_uplinks(last, num_clients),
        )
    });
}

/// `netsim.fault.sample_cohort_us`: one round's cohort draw.
pub fn cohort_probe(p: &mut Prober<'_>, seed: u64, fleet: usize, size: usize) {
    let mut round = 0usize;
    p.measure("netsim.fault.sample_cohort_us", 1e6, || {
        round += 1;
        sample_cohort(seed, round, fleet, size)
    });
}

/// `data.*`: building the scenario, and one epoch of mini-batches over the
/// largest private shard.
fn data_probes(p: &mut Prober<'_>, builder: &ScenarioBuilder, scenario: &FederatedScenario) {
    p.measure("data.scenario.build_ms", 1e3, || {
        builder.build().expect("the workload's own scenario")
    });
    let shard = scenario
        .clients
        .iter()
        .map(|c| &c.train)
        .max_by_key(|d| d.len())
        .expect("scenario has clients");
    let mut rng = Rng::seed_from_u64(1);
    p.measure("data.dataset.epoch_batches_us", 1e6, || {
        shard
            .batches(BATCH, &mut rng)
            .map(|b| b.labels.len())
            .sum::<usize>()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_makes_min_calls_after_one_discarded_warm_up() {
        let mut spans = SpanRecorder::new();
        let mut metrics = MetricSet::default();
        let mut p = Prober::new(&mut spans, &mut metrics, true);
        let mut calls = 0usize;
        let seconds = p.time_samples("x", || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2)); // untimed preparation
            1e-6 * calls as f64
        });
        // One warm-up (discarded) plus the timed calls: the median of
        // samples 2..=31 µs.
        assert_eq!(calls, MIN_CALLS + 1);
        assert!((seconds - 16.5e-6).abs() < 1e-12, "{seconds}");
        assert_eq!(spans.spans().len(), 1);
        assert_eq!(spans.spans()[0].name, "probe.x");
    }
}
