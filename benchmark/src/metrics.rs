//! Every metric the benchmark prints, declared once. `BENCHMARK.json` is
//! generated from these tables (`-- manifest`) and a unit test holds the
//! committed file to them, so a printed metric is always a declared one.

use crate::json::Json;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of one layer, from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `layer.module.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, printed by every workload's timed run.
///
/// The bounds follow the noise this 2-core VM actually shows, not the 10%
/// the issue hoped for: one commit, one seed, run back to back, swings
/// `rounds_per_s` by up to ±8% (quartile spread up to 0.12) as the host's
/// clock and neighbours change, and CPU time swings with it, so no
/// in-run statistic removes it. Timings, memory and accuracy therefore
/// carry the contract's widest bound, which the measured spreads sit
/// under by a factor of two to five; `compare` resolves finer differences
/// from repeated runs. `bytes_per_round` depends only on the seed and the
/// code and moves by a third of a percent across seeds.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "bytes_per_round",
        unit: "bytes",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "final_accuracy",
        unit: "frac",
        better: Higher,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, printed by every workload's traced run. A layer
/// a workload never enters reports `0`.
pub const PER_LAYER: &[PerLayer] = &[
    // core: the round's phases, per-round medians from `PhaseTiming`.
    layer("core.phase.client_training_s", "s", Lower),
    layer("core.phase.aggregation_s", "s", Lower),
    layer("core.phase.filter_s", "s", Lower),
    layer("core.phase.server_distill_s", "s", Lower),
    layer("core.phase.client_distill_s", "s", Lower),
    layer("core.phase.evaluation_s", "s", Lower),
    layer("core.phase.unattributed_s", "s", Lower),
    // tensor: one training step of the workload's server model, piece by piece.
    layer("tensor.models.forward_train_us", "us", Lower),
    layer("tensor.models.backward_us", "us", Lower),
    layer("tensor.models.forward_eval_us", "us", Lower),
    layer("tensor.tensor.matmul_gflops", "gflop/s", Higher),
    layer("tensor.tensor.select_rows_us", "us", Lower),
    layer("tensor.loss.kl_ce_us", "us", Lower),
    layer("tensor.loss.xent_us", "us", Lower),
    layer("tensor.loss.mse_us", "us", Lower),
    layer("tensor.optim.adam_step_us", "us", Lower),
    layer("tensor.step.allocs", "count", Lower),
    layer("tensor.step.alloc_bytes", "bytes", Lower),
    layer("tensor.serialize.param_vector_us", "us", Lower),
    layer("tensor.serialize.load_param_vector_us", "us", Lower),
    layer("tensor.parallel.dispatch_us", "us", Lower),
    // core: the algorithm's building blocks at the workload's shapes.
    layer("core.distill.steps_per_s", "1/s", Higher),
    layer("core.train.supervised_steps_per_s", "1/s", Higher),
    layer("core.train.distill_steps_per_s", "1/s", Higher),
    layer("core.logits.client_probs_us", "us", Lower),
    layer("core.logits.aggregate_us", "us", Lower),
    layer("core.prototypes.compute_us", "us", Lower),
    layer("core.prototypes.aggregate_us", "us", Lower),
    layer("core.filter.filter_public_us", "us", Lower),
    layer("core.filter.keep_ratio", "frac", Higher),
    layer("core.eval.accuracy_us", "us", Lower),
    layer("core.generator.synthesize_us", "us", Lower),
    layer("core.generator.refine_epoch_ms", "ms", Lower),
    layer("core.cow.materialize_us", "us", Lower),
    layer("core.cow.park_us", "us", Lower),
    layer("core.cow.resident_mb", "MiB", Lower),
    layer("core.snapshot.write_ms", "ms", Lower),
    layer("core.snapshot.restore_ms", "ms", Lower),
    layer("core.snapshot.mb", "MiB", Lower),
    layer("core.driver.round_drift_x", "x", Lower),
    layer("core.driver.time_to_target_s", "s", Lower),
    layer("core.admission.check_logits_us", "us", Lower),
    layer("core.admission.check_prototypes_us", "us", Lower),
    layer("core.admission.rejected", "count", Lower),
    layer("core.streaming.logit_fold_us", "us", Lower),
    layer("core.streaming.proto_fold_us", "us", Lower),
    // netsim: the wire and the ledger.
    layer("netsim.wire.encode_us", "us", Lower),
    layer("netsim.wire.decode_us", "us", Lower),
    layer("netsim.wire.upload_bytes", "bytes", Lower),
    layer("netsim.quantize.encode_us", "us", Lower),
    layer("netsim.quantize.decode_us", "us", Lower),
    layer("netsim.ledger.record_ns", "ns", Lower),
    layer("netsim.ledger.round_scan_us", "us", Lower),
    layer("netsim.fault.sample_cohort_us", "us", Lower),
    // data.
    layer("data.scenario.build_ms", "ms", Lower),
    layer("data.dataset.epoch_batches_us", "us", Lower),
    // baselines: one row per algorithm of `baselines_homo`.
    layer("baselines.fedavg.round_p50_ms", "ms", Lower),
    layer("baselines.fedprox.round_p50_ms", "ms", Lower),
    layer("baselines.feddf.round_p50_ms", "ms", Lower),
    layer("baselines.fedmd.round_p50_ms", "ms", Lower),
    layer("baselines.dsfl.round_p50_ms", "ms", Lower),
    // serve: what a socket client observes, then the pieces underneath.
    layer("serve.exchange.p50_ms", "ms", Lower),
    layer("serve.exchange.tail_ms", "ms", Lower),
    layer("serve.exchange.hello_p50_ms", "ms", Lower),
    layer("serve.exchange.upload_p50_ms", "ms", Lower),
    layer("serve.exchange.upload_p99_ms", "ms", Lower),
    layer("serve.client.polls_per_round", "count", Lower),
    layer("serve.client.useful_exchange_ratio", "frac", Higher),
    layer("serve.frame.write_us", "us", Lower),
    layer("serve.frame.read_us", "us", Lower),
    layer("serve.protocol.encode_us", "us", Lower),
    layer("serve.protocol.decode_us", "us", Lower),
    layer("serve.transport.frame_rtt_us", "us", Lower),
    layer("serve.history.line_us", "us", Lower),
    layer("serve.history.repair_ms", "ms", Lower),
    layer("serve.persist.snapshot_fsync_ms", "ms", Lower),
    layer("serve.recovery.restore_ms", "ms", Lower),
    layer("serve.recovery.p50_ms", "ms", Lower),
    layer("serve.overhead_x", "x", Lower),
    // bench: does the traced run explain the timed one?
    layer("bench.trace_overhead_frac", "frac", Lower),
    layer("bench.probe_coverage_frac", "frac", Higher),
];

/// Named values of one run, each checked against the declared tables.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    values: Vec<(&'static str, f64)>,
}

impl MetricSet {
    /// Records `value` under a declared `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table declares, or one set twice — a bug
    /// in the benchmark, caught by `--smoke`.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        assert!(self.get(declared).is_none(), "metric {name} set twice");
        self.values.push((declared, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The contract's `metrics` object for a timed run: every end-to-end
    /// metric, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if the run did not measure one of them.
    pub fn end_to_end_json(&self) -> Json {
        Json::obj(END_TO_END.iter().map(|m| {
            let value = self
                .get(m.name)
                .unwrap_or_else(|| panic!("timed run did not measure {}", m.name));
            (m.name, metric_json(value, m.unit))
        }))
    }

    /// The contract's `metrics` object for a traced run: every per-layer
    /// metric, `0` for layers the workload never entered.
    pub fn per_layer_json(&self) -> Json {
        Json::obj(
            PER_LAYER
                .iter()
                .map(|m| (m.name, metric_json(self.get(m.name).unwrap_or(0.0), m.unit))),
        )
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert!(setup.bound == widest && widest <= 0.25);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        MetricSet::default().set("core.phase.made_up_s", 1.0);
    }

    #[test]
    fn traced_output_lists_every_per_layer_metric() {
        let mut set = MetricSet::default();
        set.set("core.phase.filter_s", 0.25);
        let json = set.per_layer_json();
        let members = json.as_obj().expect("object");
        assert_eq!(members.len(), PER_LAYER.len());
        assert_eq!(
            json.get("core.phase.filter_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            json.get("serve.overhead_x")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
