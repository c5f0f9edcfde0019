//! Fuzzing *past* the checksum: hostile snapshot payloads under a valid
//! envelope.
//!
//! The bit-flip and truncation tests of `tests/checkpoint.rs` never reach
//! the payload decoders — the trailer catches the damage first. Here a
//! seeded mutator corrupts the payload of a real snapshot field by field
//! (a recording [`StateSink`] learns where every scalar sits: lengths,
//! counts, tags, flags, step counts, learning rates) and frames the result
//! as a well-formed stream again, so `restore_from` gets all the way into
//! `read_state`. Whatever the payload says, a restore must end in `Ok` or
//! a typed [`SnapshotError`] — reaching the end of the loop *is* the
//! assertion that nothing panicked — and must not size an allocation from
//! a length field: the largest single request stays within twice the
//! stream's own length (a `Vec` that grows as bytes arrive doubles). An
//! `Ok` restore must also drive one more round: state that restores but
//! cannot run is malformed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use fedpkd::core::cow::ClientPool;
use fedpkd::core::snapshot::{read_pool, SnapshotStreamWriter, StateSink};
use fedpkd::prelude::*;

thread_local! {
    /// The largest single allocation this thread has requested since the
    /// last reset. Per thread, so tests running beside this one on the
    /// harness's other threads do not show up.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the size of every request (`realloc` and
/// `alloc_zeroed` default to `alloc`).
struct Noting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the note touches a `Cell<usize>` with
// no destructor and never allocates.
unsafe impl GlobalAlloc for Noting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread may allocate while its locals are torn down.
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(layout.size())));
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's block and layout, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Noting = Noting;

/// A payload sink that remembers where every scalar field landed, as
/// `(offset, width)`. Bulk data (`put_raw`: tensor values, string bytes)
/// is kept but not recorded.
#[derive(Default)]
struct FieldMap {
    payload: Vec<u8>,
    scalars: Vec<(usize, usize)>,
}

impl FieldMap {
    fn scalar(&mut self, bytes: &[u8]) {
        self.scalars.push((self.payload.len(), bytes.len()));
        self.payload.extend_from_slice(bytes);
    }
}

impl StateSink for FieldMap {
    fn put_raw(&mut self, bytes: &[u8]) {
        self.payload.extend_from_slice(bytes);
    }
    fn put_u8(&mut self, v: u8) {
        self.scalar(&[v]);
    }
    fn put_u32(&mut self, v: u32) {
        self.scalar(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.scalar(&v.to_le_bytes());
    }
    fn put_f32(&mut self, v: f32) {
        self.scalar(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.scalar(&v.to_le_bytes());
    }
}

fn stream_of(name: &str, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = SnapshotStreamWriter::new(&mut bytes, name);
    w.put_raw(payload);
    w.finish().expect("a Vec sink cannot fail");
    bytes
}

/// One hostile value for a field that held `original`: the edges of every
/// width, the lengths an allocation must not be sized from, the bit
/// patterns of NaN, infinity and -1 as `f32`, a near miss, or noise.
fn hostile(original: u64, rng: &mut Rng) -> u64 {
    const EDGES: [u64; 15] = [
        0,
        1,
        2,
        0xFF,
        1 << 16,
        1 << 20,
        1 << 28,
        1 << 32,
        1 << 40,
        i32::MAX as u64,
        u64::MAX >> 1,
        u64::MAX,
        0x7FC0_0000,
        0x7F80_0000,
        0xBF80_0000,
    ];
    match rng.next_u64() % 18 {
        15 => original.wrapping_add(1),
        16 => original.wrapping_sub(1),
        17 => rng.next_u64(),
        edge => EDGES[edge as usize],
    }
}

/// Built once and cloned: every mutation restores into a fresh instance,
/// and generating the data was a third of that cost.
fn scenario() -> fedpkd::data::FederatedScenario {
    static SCENARIO: OnceLock<fedpkd::data::FederatedScenario> = OnceLock::new();
    SCENARIO
        .get_or_init(|| {
            ScenarioBuilder::new(SyntheticConfig::cifar10_like())
                .clients(3)
                .partition(Partition::Dirichlet { alpha: 0.5 })
                .samples(240)
                .public_size(80)
                .global_test_size(80)
                .seed(19)
                .build()
                .expect("valid scenario")
        })
        .clone()
}

fn spec(tier: DepthTier) -> ModelSpec {
    ModelSpec::ResMlp {
        input_dim: 32,
        num_classes: 10,
        tier,
    }
}

const MUTATIONS: usize = 2_000;

/// Dropout and an adversary: with these the caches, the quarantine tracker
/// and a multi-round ledger are all in a two-round donor's payload.
fn faulty() -> DriverBuilder {
    let plan = FaultPlan::new(41)
        .with_dropout(0.3)
        .with_adversary(2, Attack::PrototypeNoise(0.4));
    DriverBuilder::new().faults(plan)
}

/// Drives `make()` for two rounds under `builder`, then restores
/// `MUTATIONS` corrupted copies of its snapshot; every copy that restores
/// also runs one more round under `builder`.
fn fuzz_restores<A: Federation>(seed: u64, make: impl Fn() -> A, builder: DriverBuilder) {
    let mut donor = make();
    let _ = builder.clone().rounds(2).build().run_silent(&mut donor);
    let mut map = FieldMap::default();
    donor.write_state(&mut map);
    let name = donor.name();
    let pristine = stream_of(name, &map.payload);
    make()
        .restore_from(&mut pristine.as_slice())
        .expect("the field map forwards the payload faithfully");

    let mut rng = Rng::seed_from_u64(seed);
    let (mut restored, mut rejected) = (0usize, 0usize);
    for case in 0..MUTATIONS {
        let mut payload = map.payload.clone();
        if case % 4 == 3 {
            // Bulk data: one flipped bit anywhere.
            let at = (rng.next_u64() % payload.len() as u64) as usize;
            payload[at] ^= 1 << (rng.next_u64() % 8);
        } else {
            let (at, width) = map.scalars[(rng.next_u64() % map.scalars.len() as u64) as usize];
            let mut original = [0u8; 8];
            original[..width].copy_from_slice(&payload[at..at + width]);
            let value = hostile(u64::from_le_bytes(original), &mut rng);
            payload[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        }
        let stream = stream_of(name, &payload);
        let mut victim = make();
        LARGEST.with(|largest| largest.set(0));
        let outcome = victim.restore_from(&mut stream.as_slice());
        let largest = LARGEST.with(Cell::get);
        assert!(
            largest <= 2 * stream.len(),
            "case {case}: one allocation of {largest} bytes restoring a {}-byte stream ({outcome:?})",
            stream.len()
        );
        match outcome {
            Ok(()) => {
                restored += 1;
                let _ = builder.clone().rounds(1).build().run_silent(&mut victim);
            }
            Err(_) => rejected += 1,
        }
    }
    // Both outcomes occur: a changed weight or ledger record restores, a
    // changed count or tag does not. All of one kind would mean the
    // mutator is not reaching the fields.
    assert!(
        restored > 0 && rejected >= MUTATIONS / 10,
        "{restored} Ok, {rejected} Err"
    );
}

/// The data-free mode, so the mutations also reach the generator's model,
/// its Adam state and its RNG words. A restored value that only breaks the
/// next round (a prototype count that overflows Eq. 8's total) fails here.
#[test]
fn corrupted_fedpkd_payloads_restore_or_fail_typed() {
    let make = || {
        let config = FedPkdConfig {
            client_private_epochs: 1,
            client_public_epochs: 1,
            server_epochs: 1,
            learning_rate: 0.003,
            distill_source: DistillSource::Generated,
            ..FedPkdConfig::default()
        };
        FedPkd::new(
            scenario(),
            vec![spec(DepthTier::T11); 3],
            spec(DepthTier::T20),
            config,
            23,
        )
        .expect("valid federation")
    };
    fuzz_restores(0xF3D9, make, faulty());
}

/// FedPKD under a sampled cohort of one of its three clients: after two
/// rounds at least one slot is parked and at least one still fresh, so the
/// mutations reach both kinds of pool slot (`faulty()` may leave none
/// fresh).
#[test]
fn corrupted_sampled_fedpkd_payloads_restore_or_fail_typed() {
    let (seed, learning_rate) = (59, 0.003);
    let make = || {
        let config = FedPkdConfig {
            client_private_epochs: 1,
            client_public_epochs: 1,
            server_epochs: 1,
            learning_rate,
            ..FedPkdConfig::default()
        };
        let clients = vec![spec(DepthTier::T11); 3];
        FedPkd::new(scenario(), clients, spec(DepthTier::T20), config, seed)
            .expect("valid federation")
    };
    let builder = DriverBuilder::new().cohort(CohortPolicy::Sample { size: 1, seed: 7 });
    let mut donor = make();
    let _ = builder.clone().rounds(2).build().run_silent(&mut donor);
    let mut payload = Vec::new();
    donor.write_state(&mut payload);
    // Every payload opens with the pool.
    let mut pool = ClientPool::new(&vec![spec(DepthTier::T11); 3], learning_rate, seed);
    read_pool(&mut payload.as_slice(), &mut pool).expect("the donor's own pool");
    assert!(
        (1..3).contains(&pool.resident_clients()),
        "{} of 3 slots parked",
        pool.resident_clients()
    );
    fuzz_restores(0x5A3F, make, builder);
}

fn baseline_config() -> BaselineConfig {
    BaselineConfig {
        local_epochs: 1,
        digest_epochs: 1,
        server_epochs: 1,
        learning_rate: 0.003,
        ..BaselineConfig::default()
    }
}

#[test]
fn corrupted_fedavg_payloads_restore_or_fail_typed() {
    let make = || FedAvg::new(scenario(), spec(DepthTier::T11), baseline_config(), 29).unwrap();
    fuzz_restores(0xA7C1, make, faulty());
}

/// FedDF carries what FedAvg does not: a server-side RNG position.
#[test]
fn corrupted_feddf_payloads_restore_or_fail_typed() {
    let make = || FedDf::new(scenario(), spec(DepthTier::T11), baseline_config(), 31).unwrap();
    fuzz_restores(0xDF07, make, faulty());
}

/// The other five baselines, one row each: what FedAvg and FedDF (named
/// tests above, which the test floor keys on) do not carry — FedProx's
/// proximal anchor, FedMD's and DS-FL's per-client specs and consensus,
/// FedET's and NaiveKD's server model beside a heterogeneous fleet.
#[test]
fn corrupted_baseline_payloads_restore_or_fail_typed() {
    fn clients() -> Vec<ModelSpec> {
        vec![spec(DepthTier::T11); 3]
    }
    fn server() -> ModelSpec {
        spec(DepthTier::T20)
    }
    let rows: [(&str, fn()); 5] = [
        ("FedProx", || {
            let make =
                || FedProx::new(scenario(), spec(DepthTier::T11), baseline_config(), 37).unwrap();
            fuzz_restores(0x9807, make, faulty());
        }),
        ("FedMD", || {
            let make = || FedMd::new(scenario(), clients(), baseline_config(), 41).unwrap();
            fuzz_restores(0x3D01, make, faulty());
        }),
        ("DS-FL", || {
            let make = || DsFl::new(scenario(), clients(), baseline_config(), 43).unwrap();
            fuzz_restores(0xD5F1, make, faulty());
        }),
        ("FedET", || {
            let make =
                || FedEt::new(scenario(), clients(), server(), baseline_config(), 47).unwrap();
            fuzz_restores(0xFE07, make, faulty());
        }),
        ("NaiveKD", || {
            let make =
                || NaiveKd::new(scenario(), clients(), server(), baseline_config(), 53).unwrap();
            fuzz_restores(0x4A1D, make, faulty());
        }),
    ];
    for (name, fuzz) in rows {
        eprintln!("fuzzing {name} snapshots");
        fuzz();
    }
}

/// `FleetSim` snapshotted under sampling and a deadline, so the ledger
/// holds the uplinks the deadline estimate folds; every copy that
/// restores runs on.
#[test]
fn corrupted_fleet_payloads_restore_or_fail_typed_and_run_on() {
    let plan = FaultPlan::new(2).with_deadline(LinkModel::new(100.0, 0.0), 1.0);
    let builder = DriverBuilder::new()
        .cohort(CohortPolicy::Sample { size: 32, seed: 9 })
        .faults(plan);
    fuzz_restores(0xF1EE, || FleetSim::new(200, 6, 8, 33), builder);
}
