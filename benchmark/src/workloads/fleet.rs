//! `fleet_cow`: FedPKD over a 1 000-client fleet, 16 clients sampled per
//! round, with one `snapshot_to` → `restore_from` (through memory) in the
//! middle of the run. Stresses copy-on-write client memory, cohort sampling,
//! work-stealing dispatch, O(fleet) evaluation and the snapshot codec;
//! `server_distill` is minor. This is the memory workload.

use std::collections::BTreeSet;
use std::time::Instant;

use fedpkd_core::cow::ClientPool;
use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fedpkd::{FedPkd, FedPkdConfig};
use fedpkd_core::runtime::Federation;
use fedpkd_netsim::{sample_cohort, CohortPolicy};
use fedpkd_tensor::models::DepthTier;

use fedpkd_serve::history::ledger_fingerprint;

use super::pkd::{best_accuracy, c10, shards, traced_legs, PkdShape, TracedLegs};
use super::{
    drive, history_fnv, measured_setup, peak_rss_mb, set_round_metrics, settled_accuracy,
    traced_rounds, Outcome, RunArgs,
};
use crate::probes::{self, Prober};
use crate::span::{RoundClock, RoundSample, SpanRecorder};

/// Clients invited per round.
const COHORT: usize = 16;

/// Mean client accuracy the fleet must settle above at full size (seeds
/// land between 0.25 and 0.28; a fleet that stopped learning sits near 0.10).
const FLEET_ACCURACY_FLOOR: f64 = 0.15;

/// Rounds the restored federation is checked against the uninterrupted one.
const ORACLE_ROUNDS: usize = 8;

fn shape(args: &RunArgs) -> PkdShape {
    let config = FedPkdConfig {
        client_private_epochs: 2,
        client_public_epochs: 1,
        server_epochs: 2,
        learning_rate: 0.002,
        temperature: 1.0,
        ..FedPkdConfig::default()
    };
    let full = PkdShape {
        data: c10(),
        input_dim: 32,
        tiers: &[DepthTier::T11],
        server_tier: DepthTier::T20,
        clients: 1_000,
        samples: 20_000,
        public: 300,
        test: 300,
        partition: shards(20_000, 1_000, 2),
        config,
        // Even, so the snapshot falls on a round boundary at the midpoint.
        rounds: args.rounds(12.0, 4).next_multiple_of(2),
        // The server stays near chance here; quality is the fleet's mean
        // client accuracy, gated below.
        accuracy_floor: 0.0,
        target: 1.0,
    };
    if args.smoke {
        PkdShape {
            clients: 100,
            samples: 2_000,
            public: 120,
            test: 100,
            partition: shards(2_000, 100, 2),
            ..full
        }
    } else {
        full
    }
}

fn builder(seed: u64, rounds: usize) -> DriverBuilder {
    DriverBuilder::new()
        .rounds(rounds)
        .cohort(CohortPolicy::Sample {
            size: COHORT,
            seed: seed ^ 0x5EED,
        })
}

/// Timed `fleet_cow`.
pub fn timed(args: &RunArgs) -> Outcome {
    let shape = shape(args);
    let half = shape.rounds / 2;
    let mut out = Outcome::default();
    let mut first = measured_setup(&mut out, || shape.build(args.seed));

    let began = Instant::now();
    let mut first_clock = RoundClock::timed();
    let (first_result, _) = drive(&mut first, builder(args.seed, half), &mut first_clock);
    // The snapshot streams into memory, not onto the disk: a 100 MB file
    // write on this box's shared disk swings by seconds from run to run,
    // and its write-back steals a core from the rounds that follow. The
    // codec and the copy-on-write walk are what this workload measures;
    // `serve_uds` is the one that pays for fsync.
    let snapshot_started = Instant::now();
    let mut snapshot = Vec::new();
    first.snapshot_to(&mut snapshot).expect("stream snapshot");
    let snapshot_s = snapshot_started.elapsed().as_secs_f64();
    let mut measured = began.elapsed().as_secs_f64();

    // Untimed: the uninterrupted federation runs on a few rounds, the
    // oracle the restored one must reproduce bit for bit.
    let oracle_rounds = ORACLE_ROUNDS.min(half);
    let (oracle, _) = drive(
        &mut first,
        builder(args.seed, oracle_rounds),
        &mut RoundClock::timed(),
    );
    drop(first);

    // A restart: a freshly built federation (set-up, untimed) restores the
    // snapshot and carries the run to its end.
    let mut second = shape.build(args.seed);
    let resumed = Instant::now();
    second
        .restore_from(&mut snapshot.as_slice())
        .expect("restore snapshot");
    let restore_s = resumed.elapsed().as_secs_f64();
    let snapshot_bytes = snapshot.len();
    drop(snapshot);
    let mut second_clock = RoundClock::timed();
    let (second_result, _) = drive(&mut second, builder(args.seed, half), &mut second_clock);
    measured += resumed.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let rounds: Vec<RoundSample> = first_clock
        .rounds
        .iter()
        .chain(&second_clock.rounds)
        .cloned()
        .collect();
    set_round_metrics(
        &mut out,
        &[&rounds],
        measured,
        second_result.ledger.total_bytes(),
    );
    out.metrics.set("peak_rss_mb", rss);
    // A fleet's quality is its clients': the mean local-test accuracy over
    // all 1 000 of them (the paper's C_acc). The server model, distilled two
    // epochs a round from 16 barely trained clients, stays near chance.
    let settled = settled_accuracy(&rounds, |r| r.mean_client_accuracy);
    out.metrics.set("final_accuracy", settled);
    out.gate(
        "accuracy_floor",
        args.smoke || settled >= FLEET_ACCURACY_FLOOR,
    );
    out.attempted = shape.rounds as u64;
    out.failed += (first_clock.rejected + second_clock.rejected) as u64;
    out.gate(
        "restore_matches_uninterrupted",
        second_result.history[..oracle_rounds] == oracle.history[..],
    );
    out.field("best_accuracy", best_accuracy(&rounds));
    out.field("snapshot_s", snapshot_s);
    out.field("restore_s", restore_s);
    out.field("snapshot_mb", snapshot_bytes as f64 / (1024.0 * 1024.0));
    let history: Vec<_> = first_result
        .history
        .iter()
        .chain(&second_result.history)
        .cloned()
        .collect();
    out.field(
        "history_fnv",
        history_fnv(&history, ledger_fingerprint(&second_result.ledger)),
    );
    out.field(
        "history_prefix_fnv",
        history_fnv(&history[..traced_rounds(shape.rounds)], 0),
    );
    out
}

/// Traced `fleet_cow`.
pub fn traced(args: &RunArgs, spans: &mut SpanRecorder) -> Outcome {
    let shape = shape(args);
    let rounds = traced_rounds(shape.rounds);
    let mut out = Outcome::default();

    let run = spans.open("run");
    let TracedLegs { algo, result, .. } = traced_legs(
        &shape,
        args.seed,
        rounds,
        || builder(args.seed, 1),
        spans,
        &mut out,
    );

    let (server_spec, client_specs) = (shape.server_spec(), shape.client_specs());
    let shapes = shape.probe_shapes(algo.scenario(), &client_specs[0], &server_spec, COHORT);
    let mut p = Prober::new(spans, &mut out.metrics, args.smoke);
    probes::model_probes(
        &mut p,
        &shapes,
        &result.ledger,
        &shape.scenario_builder(),
        args.seed,
    );
    probes::cohort_probe(&mut p, args.seed ^ 0x5EED, shape.clients, COHORT);

    // core.cow: what a round pays to bring one client to life and put it
    // back, and what the clients this run touched cost while parked.
    let mut pool = ClientPool::new(&client_specs, shape.config.learning_rate, args.seed);
    let touched: BTreeSet<usize> = (0..rounds)
        .flat_map(|round| sample_cohort(args.seed ^ 0x5EED, round, shape.clients, COHORT))
        .collect();
    for &client in &touched {
        let live = pool.materialize(client);
        pool.park(client, live);
    }
    p.metrics.set(
        "core.cow.resident_mb",
        pool.resident_bytes() as f64 / (1024.0 * 1024.0),
    );
    let parked = *touched.first().expect("at least one client was invited");
    p.measure("core.cow.materialize_us", 1e6, || pool.materialize(parked));
    let park = p.time_samples("core.cow.park_us", || {
        let live = pool.materialize(parked);
        let started = Instant::now();
        pool.park(parked, live);
        started.elapsed().as_secs_f64()
    });
    p.metrics.set("core.cow.park_us", park * 1e6);

    // core.snapshot: the streaming codec over the state this run left,
    // into and out of memory, as the timed run does it.
    let mut bytes = Vec::new();
    algo.snapshot_to(&mut bytes).expect("snapshot to memory");
    p.metrics
        .set("core.snapshot.mb", bytes.len() as f64 / (1024.0 * 1024.0));
    p.measure("core.snapshot.write_ms", 1e3, || {
        bytes.clear();
        algo.snapshot_to(&mut bytes).expect("snapshot to memory");
    });
    let mut restored: FedPkd = shape.build(args.seed);
    p.measure("core.snapshot.restore_ms", 1e3, || {
        restored
            .restore_from(&mut bytes.as_slice())
            .expect("restore own snapshot");
    });
    spans.close(run);
    out
}
