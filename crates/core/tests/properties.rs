//! Property-based tests for FedPKD's aggregation and filtering invariants,
//! and for the copy-on-write client pool's bit-exactness contract.

use fedpkd_core::clients::ClientState;
use fedpkd_core::cow::{
    for_each_pooled_client_streaming, pooled_client_accuracies, ClientPool, ClientSlot,
};
use fedpkd_core::eval;
use fedpkd_core::fedpkd::filter::filter_public;
use fedpkd_core::fedpkd::logits::{aggregate_logits_from_probs, client_probs, pseudo_labels};
use fedpkd_core::fedpkd::prototypes::{aggregate_prototypes, Prototype};
use fedpkd_core::snapshot::{read_pool, write_adam, write_pool, write_rng, StateSink};
use fedpkd_core::train::train_supervised;
use fedpkd_data::{ClientData, FederatedScenario, Partition, ScenarioBuilder, SyntheticConfig};
use fedpkd_tensor::models::{DepthTier, ModelSpec};
use fedpkd_tensor::serialize::state_vector;
use fedpkd_tensor::Tensor;
use proptest::prelude::*;
use std::sync::OnceLock;

fn arb_logits(clients: usize, n: usize, k: usize) -> impl Strategy<Value = Vec<Tensor>> {
    prop::collection::vec(
        prop::collection::vec(-8.0f32..8.0, n * k)
            .prop_map(move |data| Tensor::from_vec(data, &[n, k]).unwrap()),
        clients..=clients,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Aggregated knowledge is always a row-stochastic matrix.
    #[test]
    fn aggregation_is_row_stochastic(
        logits in (1usize..5, 1usize..12, 2usize..8)
            .prop_flat_map(|(c, n, k)| arb_logits(c, n, k)),
        weighting in any::<bool>(),
    ) {
        let agg = aggregate_logits_from_probs(&client_probs(&logits), weighting).unwrap();
        prop_assert!(agg.all_finite());
        for r in 0..agg.rows() {
            let sum: f32 = agg.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            prop_assert!(agg.row(r).iter().all(|&v| v >= -1e-7));
        }
        let labels = pseudo_labels(&agg);
        prop_assert!(labels.iter().all(|&y| y < agg.cols()));
    }

    /// Aggregation is invariant to client order.
    #[test]
    fn aggregation_is_client_permutation_invariant(
        logits in (2usize..5, 1usize..10, 2usize..6)
            .prop_flat_map(|(c, n, k)| arb_logits(c, n, k)),
    ) {
        let forward = aggregate_logits_from_probs(&client_probs(&logits), true).unwrap();
        let mut reversed = logits.clone();
        reversed.reverse();
        let backward = aggregate_logits_from_probs(&client_probs(&reversed), true).unwrap();
        for (a, b) in forward.as_slice().iter().zip(backward.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// The filter keeps exactly ⌈θ·n_c⌉ samples per pseudo-class and its
    /// output is sorted, unique, and in range.
    #[test]
    fn filter_keeps_exact_counts(
        n in 1usize..60,
        k in 1usize..6,
        theta in 0.05f32..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = fedpkd_rng::Rng::seed_from_u64(seed);
        let features = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|_| rng.range_usize(0, k)).collect();
        let protos: Vec<Option<Tensor>> = (0..k)
            .map(|_| Some(Tensor::rand_uniform(&[4], -1.0, 1.0, &mut rng)))
            .collect();
        let kept = filter_public(&features, &labels, &protos, theta);
        // Sorted + unique + in range.
        prop_assert!(kept.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(kept.iter().all(|&i| i < n));
        // Exact per-class counts.
        for class in 0..k {
            let class_n = labels.iter().filter(|&&y| y == class).count();
            let kept_n = kept.iter().filter(|&&i| labels[i] == class).count();
            let expect = (((class_n as f32) * theta).ceil() as usize).min(class_n);
            prop_assert_eq!(kept_n, expect, "class {} of {}", class, k);
        }
    }

    /// The kept set is a subset of the input indices and the per-class
    /// counts are exactly ⌈θ·n_c⌉ even when only some classes have
    /// prototypes — prototype-less classes fall back to index order but
    /// must obey the same quota.
    #[test]
    fn filter_counts_hold_with_mixed_prototypes(
        n in 1usize..60,
        k in 1usize..6,
        theta in 0.05f32..1.0,
        seed in any::<u64>(),
        proto_mask in prop::collection::vec(any::<bool>(), 6),
    ) {
        let mut rng = fedpkd_rng::Rng::seed_from_u64(seed);
        let features = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|_| rng.range_usize(0, k)).collect();
        let protos: Vec<Option<Tensor>> = (0..k)
            .map(|c| {
                proto_mask[c].then(|| Tensor::rand_uniform(&[4], -1.0, 1.0, &mut rng))
            })
            .collect();
        let kept = filter_public(&features, &labels, &protos, theta);
        prop_assert!(kept.iter().all(|&i| i < n), "kept ⊆ input indices");
        prop_assert!(kept.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
        for (class, proto) in protos.iter().enumerate() {
            let class_n = labels.iter().filter(|&&y| y == class).count();
            let kept_n = kept.iter().filter(|&&i| labels[i] == class).count();
            let expect = (((class_n as f32) * theta).ceil() as usize).min(class_n);
            prop_assert_eq!(
                kept_n, expect,
                "class {} (prototype: {})", class, proto.is_some()
            );
        }
    }

    /// A NaN anywhere in the features of a prototype-bearing class never
    /// crashes the filter, and the poisoned sample is the first one
    /// discarded: its NaN Eq. 10 distance sorts past every finite one.
    #[test]
    fn filter_drops_nan_features_first(
        n in 2usize..20,
        nan_at in 0usize..20,
        seed in any::<u64>(),
    ) {
        let nan_at = nan_at % n;
        let mut rng = fedpkd_rng::Rng::seed_from_u64(seed);
        let mut features = Tensor::rand_uniform(&[n, 3], -1.0, 1.0, &mut rng);
        features.as_mut_slice()[nan_at * 3] = f32::NAN;
        let labels = vec![0usize; n];
        let protos = vec![Some(Tensor::rand_uniform(&[3], -1.0, 1.0, &mut rng))];
        // theta = 0.5 always drops at least one of n ≥ 2 samples, and the
        // NaN sample must be among the dropped.
        let kept = filter_public(&features, &labels, &protos, 0.5);
        prop_assert!(
            !kept.contains(&nan_at),
            "the NaN-distance sample must be filtered out, kept {kept:?}"
        );
    }

    /// Filtering with θ = 1 keeps everything.
    #[test]
    fn filter_full_theta_is_identity(n in 1usize..40, seed in any::<u64>()) {
        let mut rng = fedpkd_rng::Rng::seed_from_u64(seed);
        let features = Tensor::rand_uniform(&[n, 3], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|_| rng.range_usize(0, 3)).collect();
        let protos: Vec<Option<Tensor>> = (0..3)
            .map(|_| Some(Tensor::rand_uniform(&[3], -1.0, 1.0, &mut rng)))
            .collect();
        let kept = filter_public(&features, &labels, &protos, 1.0);
        prop_assert_eq!(kept, (0..n).collect::<Vec<_>>());
    }

    /// Globally aggregated prototypes lie inside the convex hull of the
    /// client prototypes (coordinate-wise between min and max).
    #[test]
    fn prototype_aggregation_stays_in_hull(
        vectors in prop::collection::vec(
            prop::collection::vec(-5.0f32..5.0, 4),
            1..6,
        ),
        counts in prop::collection::vec(1u32..50, 6),
    ) {
        let clients: Vec<Vec<Option<Prototype>>> = vectors
            .iter()
            .zip(&counts)
            .map(|(v, &c)| {
                vec![Some(Prototype {
                    count: c as usize,
                    vector: Tensor::from_vec(v.clone(), &[4]).unwrap(),
                })]
            })
            .collect();
        let global = aggregate_prototypes(&clients).unwrap();
        let g = global[0].as_ref().unwrap();
        for dim in 0..4 {
            let lo = vectors.iter().map(|v| v[dim]).fold(f32::MAX, f32::min);
            let hi = vectors.iter().map(|v| v[dim]).fold(f32::MIN, f32::max);
            let x = g.as_slice()[dim];
            prop_assert!(x >= lo - 1e-4 && x <= hi + 1e-4, "dim {dim}: {x} not in [{lo}, {hi}]");
        }
    }
}

// ---- Shared-probs aggregation vs. the recomputing entry points ---------

// ---- Copy-on-write pool vs. the single-threaded reference loop ------

/// The shared training scenario for the pool properties, built once (the
/// property inputs vary seeds and rosters, never the data).
fn pool_scenario() -> &'static FederatedScenario {
    static SCENARIO: OnceLock<FederatedScenario> = OnceLock::new();
    SCENARIO.get_or_init(|| {
        ScenarioBuilder::new(SyntheticConfig::cifar10_like())
            .clients(3)
            .samples(240)
            .public_size(80)
            .global_test_size(80)
            .partition(Partition::Dirichlet { alpha: 0.5 })
            .seed(113)
            .build()
            .unwrap()
    })
}

fn pool_specs() -> Vec<ModelSpec> {
    let spec = |tier| ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier,
    };
    vec![
        spec(DepthTier::T11),
        spec(DepthTier::T20),
        spec(DepthTier::T11),
    ]
}

/// One local-training pass, the workload every dispatch below runs.
fn train_once(_: usize, client: &mut ClientState, data: &ClientData) -> u64 {
    train_supervised(
        &mut client.model,
        &data.train,
        1,
        64,
        &mut client.optimizer,
        &mut client.rng,
    );
    client.optimizer.step_count()
}

/// The reference the pool's dispatch is held to, needing no second store:
/// one thread, ascending client order, `materialize(i)` → `train_once` →
/// `park(i)`.
fn reference_loop(
    pool: &mut ClientPool,
    data: &[ClientData],
    roster: &[usize],
) -> Vec<(usize, u64)> {
    let mut roster = roster.to_vec();
    roster.sort_unstable();
    roster.dedup();
    let run = |i: usize| {
        let mut client = pool.materialize(i);
        let out = train_once(i, &mut client, &data[i]);
        pool.park(i, client);
        (i, out)
    };
    roster.into_iter().map(run).collect()
}

/// Full bit-level fingerprint of a live client: model state, optimizer
/// step/moments, RNG words.
fn fingerprint(client: &ClientState) -> (Vec<u32>, u64, Vec<Vec<u32>>, [u64; 4]) {
    let (m, v) = client.optimizer.moments();
    (
        state_vector(&client.model)
            .iter()
            .map(|f| f.to_bits())
            .collect(),
        client.optimizer.step_count(),
        m.iter()
            .chain(v)
            .map(|t| t.as_slice().iter().map(|f| f.to_bits()).collect())
            .collect(),
        client.rng.state(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full CoW lifecycle on the work-stealing dispatch — take →
    /// materialize → train → park at commit → (maybe) release — leaves
    /// every client bit-identical to the single-threaded reference loop at
    /// the same seed, for any roster, worker count, and number of rounds.
    #[test]
    fn pooled_lifecycle_is_bit_identical_to_owned_path(
        seed in any::<u64>(),
        rosters in prop::collection::vec(prop::collection::vec(0usize..3, 0..4), 1..3),
        workers in 1usize..5,
    ) {
        let scenario = pool_scenario();
        let specs = pool_specs();
        let mut reference = ClientPool::new(&specs, 0.003, seed);
        let mut pool = ClientPool::new(&specs, 0.003, seed);
        for roster in &rosters {
            let expected = reference_loop(&mut reference, &scenario.clients, roster);
            let mut pooled_out = Vec::new();
            for_each_pooled_client_streaming(
                &mut pool, &scenario.clients, roster, workers, train_once,
                |i, out| pooled_out.push((i, out)),
            );
            prop_assert_eq!(&pooled_out, &expected);
        }
        // Clients never rostered must still be fresh (zero resident bytes).
        for i in 0..3 {
            prop_assert_eq!(
                matches!(pool.slot(i), ClientSlot::Parked(_)),
                rosters.iter().any(|r| r.contains(&i)),
                "client {} residency", i
            );
            prop_assert_eq!(
                fingerprint(&pool.materialize(i)),
                fingerprint(&reference.materialize(i))
            );
        }
        // Releasing a delta returns the client to its deterministic init.
        pool.release(0);
        let rebuilt = ClientPool::new(&specs, 0.003, seed);
        prop_assert_eq!(fingerprint(&pool.materialize(0)), fingerprint(&rebuilt.materialize(0)));
    }

    /// Snapshotting a pool mid-sequence — deltas in flight for the trained
    /// clients, fresh slots for the rest — emits exactly version 6's
    /// layout (the count, seed and learning rate, then per client its
    /// `parked` flag and either its state width or its state, Adam state
    /// and RNG words), and restoring + continuing matches never having
    /// stopped.
    #[test]
    fn pool_snapshot_resume_with_deltas_in_flight_is_exact(
        seed in any::<u64>(),
        first in prop::collection::vec(0usize..3, 0..3),
        second in prop::collection::vec(0usize..3, 1..4),
        workers in 1usize..4,
    ) {
        let scenario = pool_scenario();
        let specs = pool_specs();
        // Reference: train, keep going, never interrupted.
        let mut reference = ClientPool::new(&specs, 0.003, seed);
        reference_loop(&mut reference, &scenario.clients, &first);
        // Pool under test: train the first roster, snapshot, restore into
        // a fresh pool.
        let mut pool = ClientPool::new(&specs, 0.003, seed);
        for_each_pooled_client_streaming(
            &mut pool, &scenario.clients, &first, workers, train_once, |_, _| {},
        );
        let mut bytes: Vec<u8> = Vec::new();
        write_pool(&mut bytes, &pool);
        let mut per_client: Vec<u8> = Vec::new();
        per_client.put_usize(3);
        per_client.put_u64(seed);
        per_client.put_f32(0.003);
        for i in 0..3 {
            let client = reference.materialize(i);
            let state = state_vector(&client.model);
            let parked = first.contains(&i);
            per_client.put_bool(parked);
            if !parked {
                per_client.put_usize(state.len());
                continue;
            }
            per_client.put_f32s(&state);
            write_adam(&mut per_client, &client.optimizer);
            write_rng(&mut per_client, &client.rng);
        }
        prop_assert_eq!(&bytes, &per_client);
        let mut revived = ClientPool::new(&specs, 0.003, seed);
        let mut r = bytes.as_slice();
        read_pool(&mut r, &mut revived).unwrap();
        prop_assert!(r.is_empty());
        // Freshness survives the round trip: only trained clients park.
        for i in 0..3 {
            prop_assert_eq!(
                matches!(revived.slot(i), ClientSlot::Parked(_)),
                first.contains(&i),
                "client {} residency after restore", i
            );
        }
        // Continue both; the restored pool must track the reference.
        reference_loop(&mut reference, &scenario.clients, &second);
        for_each_pooled_client_streaming(
            &mut revived, &scenario.clients, &second, workers, train_once, |_, _| {},
        );
        for i in 0..3 {
            prop_assert_eq!(
                fingerprint(&revived.materialize(i)),
                fingerprint(&reference.materialize(i))
            );
        }
    }
}

/// One mutation of a pool in the accuracy-cache property, aimed at `client`.
#[derive(Debug, Clone, Copy)]
enum PoolOp {
    /// `materialize` → train → `park`.
    TrainAndPark,
    /// `take` the slot out and hold it (the pool's slot reads fresh).
    Take,
    /// `put` the held slot back (a fresh one if none is held).
    Put,
    /// `release` the delta.
    Release,
    /// Train through `for_each_pooled_client_streaming`.
    Stream,
    /// `write_pool` the fleet aside.
    Snapshot,
    /// `read_pool` the last snapshot back over whatever the pool holds now.
    Restore,
}

fn pool_op() -> impl Strategy<Value = (PoolOp, usize)> {
    let op = prop_oneof![
        Just(PoolOp::TrainAndPark),
        Just(PoolOp::Take),
        Just(PoolOp::Put),
        Just(PoolOp::Release),
        Just(PoolOp::Stream),
        Just(PoolOp::Snapshot),
        Just(PoolOp::Restore),
    ];
    (op, 0usize..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pool's cached accuracies are indistinguishable from recomputing:
    /// after every step of a random take/park/put/release/stream/snapshot/
    /// restore sequence, `pooled_client_accuracies` equals a from-scratch
    /// sweep bit for bit, and evaluates exactly the slots the step wrote.
    #[test]
    fn cached_accuracies_equal_an_uncached_sweep(
        seed in any::<u64>(),
        ops in prop::collection::vec(pool_op(), 1..10),
    ) {
        let scenario = pool_scenario();
        let specs = pool_specs();
        let mut pool = ClientPool::new(&specs, 0.003, seed);
        let uncached = |pool: &ClientPool| -> Vec<u64> {
            (0..pool.len())
                .map(|i| {
                    let mut client = pool.materialize(i);
                    eval::accuracy(&mut client.model, &scenario.clients[i].test).to_bits()
                })
                .collect()
        };
        let cached = |pool: &mut ClientPool| -> Vec<u64> {
            pooled_client_accuracies(pool, scenario)
                .into_iter()
                .map(f64::to_bits)
                .collect()
        };
        prop_assert_eq!(cached(&mut pool), uncached(&pool));
        prop_assert_eq!(pool.evaluations(), 3, "cold cache sweeps the fleet");

        let mut held: [Option<ClientSlot>; 3] = [None, None, None];
        let mut saved: Option<Vec<u8>> = None;
        for (op, client) in ops {
            let written = match op {
                PoolOp::TrainAndPark => {
                    let mut live = pool.materialize(client);
                    train_once(client, &mut live, &scenario.clients[client]);
                    pool.park(client, live);
                    1
                }
                PoolOp::Take => {
                    held[client] = Some(pool.take(client));
                    1
                }
                PoolOp::Put => {
                    pool.put(client, held[client].take().unwrap_or_default());
                    1
                }
                PoolOp::Release => {
                    pool.release(client);
                    1
                }
                PoolOp::Stream => {
                    for_each_pooled_client_streaming(
                        &mut pool, &scenario.clients, &[client], 2, train_once, |_, _| {},
                    );
                    1
                }
                PoolOp::Snapshot => {
                    let mut bytes: Vec<u8> = Vec::new();
                    write_pool(&mut bytes, &pool);
                    saved = Some(bytes);
                    0
                }
                PoolOp::Restore => match &saved {
                    Some(bytes) => {
                        let mut r = bytes.as_slice();
                        read_pool(&mut r, &mut pool).unwrap();
                        assert!(r.is_empty());
                        3
                    }
                    None => 0,
                },
            };
            let before = pool.evaluations();
            prop_assert_eq!(cached(&mut pool), uncached(&pool), "after {:?}({})", op, client);
            prop_assert_eq!(pool.evaluations() - before, written, "after {:?}({})", op, client);
        }
    }
}
