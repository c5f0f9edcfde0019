//! Copy-on-write client storage: the one client store of every algorithm.
//!
//! A federation's clients live in a [`ClientPool`], never as a vector of
//! live models — a 10k-client fleet only ever trains a few hundred of them
//! per round, and a 5-client run pays microseconds per round for the same
//! machinery (DESIGN.md §5h):
//!
//! - **Templates.** Client architectures collapse to one immutable
//!   [`Template`] per distinct [`ModelSpec`] (capacity tier). A template
//!   owns no weights — initial parameters are a pure function of
//!   `(seed, client)` via the repo-wide stream convention
//!   (`Rng::stream(seed, 1 + i)`), so they are rematerialized on demand
//!   instead of stored.
//! - **Copy-on-write slots.** Every client starts [`ClientSlot::Fresh`]:
//!   zero resident bytes. The first time it trains it diverges from its
//!   template and parks as a private delta ([`ParkedClient`]): the flat
//!   state vector, Adam step count and moments, and the RNG position —
//!   no layer activations, gradients, or scratch.
//! - **Materialize → train → park.** [`for_each_pooled_client_streaming`]
//!   — the one client dispatcher — materializes a live [`ClientState`]
//!   inside the worker task, runs the caller's closure, and parks the
//!   delta before the ordered commit — so full models exist only for
//!   clients that are actually on a worker, and resident state is
//!   O(clients ever trained), not O(fleet), with the per-client footprint
//!   shrunk to the delta.
//! - **Incremental evaluation.** A client's local-test accuracy is a pure
//!   function of its slot, so the pool caches it per slot and every slot
//!   write drops it: [`pooled_client_accuracies`] re-evaluates only the
//!   clients written since the last call — O(cohort) per round under a
//!   sampled cohort, not O(fleet).
//!
//! The pool is bit-transparent: materializing a fresh slot is
//! `spec.build(&mut Rng::stream(seed, 1 + i))` with a fresh `Adam`, and
//! park/unpark round-trips parameters and buffers bit for bit and moves
//! the optimizer and the RNG stream as they are — a pooled run equals the
//! single-threaded loop `materialize(i)` → task → `park(i)` in ascending
//! client order. [`write_pool`] writes each slot as what it is: a fresh
//! one as a tag and its width, a parked one as its delta.

use crate::clients::ClientState;
use crate::eval;
use crate::snapshot::{self, SnapshotError, StateSink, StateSource};
use fedpkd_data::{ClientData, FederatedScenario};
use fedpkd_rng::Rng;
use fedpkd_tensor::models::ModelSpec;
use fedpkd_tensor::optim::{param_shapes, Adam};
use fedpkd_tensor::parallel::{dispatch_stealing, dispatch_stealing_scheduled, max_workers};
use fedpkd_tensor::serialize::{load_state_vector, state_vector};
use std::sync::OnceLock;

/// One immutable model blueprint shared by every client of a capacity
/// tier. Holds the spec plus lazily computed metadata (the state-vector
/// length and the parameter shapes), never any weights.
#[derive(Debug)]
pub struct Template {
    spec: ModelSpec,
    layout: OnceLock<Layout>,
}

/// What a snapshot's client must match to be a client of this template.
#[derive(Debug)]
struct Layout {
    state_len: usize,
    param_shapes: Vec<Vec<usize>>,
}

impl Template {
    fn new(spec: ModelSpec) -> Self {
        Self {
            spec,
            layout: OnceLock::new(),
        }
    }

    /// Computed once per tier by building (and immediately dropping) a
    /// throwaway model.
    fn layout(&self) -> &Layout {
        self.layout.get_or_init(|| {
            // The weights are discarded, so any deterministic stream works.
            let mut rng = Rng::stream(0, u64::MAX);
            let model = self.spec.build(&mut rng);
            Layout {
                state_len: state_vector(&model).len(),
                param_shapes: param_shapes(&model),
            }
        })
    }

    /// The architecture this template stamps out.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The length of the flat state vector of a model built from this
    /// template.
    pub fn state_len(&self) -> usize {
        self.layout().state_len
    }
}

/// The private delta a trained client parks between rounds: everything
/// that diverged from its template. No activations, no gradient buffers,
/// no layer scratch.
#[derive(Debug, Clone)]
pub struct ParkedClient {
    /// Flat model state (parameters + persistent buffers) in
    /// `serialize::state_vector` order.
    state: Vec<f32>,
    /// The client's optimizer, moments and all.
    optimizer: Adam,
    /// The client's RNG stream.
    rng: Rng,
}

impl ParkedClient {
    /// Flattens a live client's model into its parked delta, consuming
    /// the client. The optimizer and the RNG stream are moved, not copied.
    pub fn park(client: ClientState) -> Self {
        Self {
            state: state_vector(&client.model),
            optimizer: client.optimizer,
            rng: client.rng,
        }
    }

    /// Rebuilds the live client this delta was parked from, consuming the
    /// delta. Bit-exact: parameters, moments, step count, and RNG words
    /// all round-trip unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not match the architecture the delta was
    /// parked from (the pool's template assignment guarantees it does).
    pub fn unpark(self, spec: &ModelSpec) -> ClientState {
        // The init draws are overwritten below; the stream only provides
        // a structurally complete model to load into.
        let mut scratch_rng = Rng::stream(0, u64::MAX);
        let mut model = spec.build(&mut scratch_rng);
        // `read_pool` parks only a state of its template's width.
        load_state_vector(&mut model, &self.state)
            .expect("parked state matches its template's layout");
        ClientState {
            model,
            optimizer: self.optimizer,
            rng: self.rng,
        }
    }

    /// Resident size of this delta in bytes (model state + both moment
    /// buffers), for memory accounting.
    pub fn resident_bytes(&self) -> usize {
        let (m, v) = self.optimizer.moments();
        let moments: usize = m.iter().chain(v).map(|t| t.as_slice().len()).sum();
        (self.state.len() + moments) * std::mem::size_of::<f32>()
    }
}

/// One client's storage state inside the pool.
#[derive(Debug, Default)]
pub enum ClientSlot {
    /// Never trained: the client is exactly its template initialization,
    /// a pure function of `(seed, client)`. Zero resident bytes.
    #[default]
    Fresh,
    /// Trained at least once: the private delta is resident. Boxed so a
    /// mostly-fresh fleet's slot vector stays one machine word per client.
    Parked(Box<ParkedClient>),
}

/// A copy-on-write client fleet: shared templates, per-client slots.
/// Clients that never train cost nothing and clients that did cost only
/// their flat delta.
#[derive(Debug)]
pub struct ClientPool {
    templates: Vec<Template>,
    /// Client index → index into `templates`.
    assignment: Vec<u32>,
    learning_rate: f32,
    seed: u64,
    slots: Vec<ClientSlot>,
    /// Per-slot cached local-test accuracy; `None` is stale. Derived
    /// state: dropped by every slot write ([`set_slot`](Self::set_slot)),
    /// refilled by [`pooled_client_accuracies`], never snapshotted.
    accuracy: Vec<Option<f64>>,
    /// Clients evaluated by [`pooled_client_accuracies`] so far.
    evaluations: u64,
}

impl ClientPool {
    /// Builds a pool over `specs` with every slot fresh: client `i`
    /// materializes from `Rng::stream(seed, 1 + i)` (stream 0 is reserved
    /// for the server) with a fresh `Adam::new(learning_rate)`.
    pub fn new(specs: &[ModelSpec], learning_rate: f32, seed: u64) -> Self {
        let mut templates: Vec<Template> = Vec::new();
        let assignment = specs
            .iter()
            .map(|spec| {
                let at = match templates.iter().position(|t| t.spec() == spec) {
                    Some(at) => at,
                    None => {
                        templates.push(Template::new(spec.clone()));
                        templates.len() - 1
                    }
                };
                at as u32
            })
            .collect();
        let mut slots = Vec::new();
        slots.resize_with(specs.len(), ClientSlot::default);
        Self {
            templates,
            assignment,
            learning_rate,
            seed,
            slots,
            accuracy: vec![None; specs.len()],
            evaluations: 0,
        }
    }

    /// Number of clients in the fleet.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The template client `i` materializes from.
    pub fn template_of(&self, i: usize) -> &Template {
        &self.templates[self.assignment[i] as usize]
    }

    /// The slot for client `i`.
    pub fn slot(&self, i: usize) -> &ClientSlot {
        &self.slots[i]
    }

    /// Number of clients currently holding a resident delta.
    pub fn resident_clients(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, ClientSlot::Parked(_)))
            .count()
    }

    /// Total bytes of resident client deltas.
    pub fn resident_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| match s {
                ClientSlot::Fresh => 0,
                ClientSlot::Parked(p) => p.resident_bytes(),
            })
            .sum()
    }

    /// Materializes a live [`ClientState`] for client `i` without
    /// disturbing its slot (a parked delta is cloned). Prefer
    /// [`take`](Self::take)/[`park`](Self::park) (or the streaming
    /// dispatch) on the training path; this is for inspection and tests.
    pub fn materialize(&self, i: usize) -> ClientState {
        match &self.slots[i] {
            ClientSlot::Fresh => self.materialize_fresh(i),
            ClientSlot::Parked(parked) => {
                parked.as_ref().clone().unpark(self.template_of(i).spec())
            }
        }
    }

    /// Moves client `i`'s slot out of the pool, leaving it fresh. The
    /// caller owns the slot until it parks a replacement.
    pub fn take(&mut self, i: usize) -> ClientSlot {
        self.set_slot(i, ClientSlot::Fresh)
    }

    /// Parks a live client back into slot `i` as its flattened delta.
    pub fn park(&mut self, i: usize, client: ClientState) {
        self.set_slot(i, ClientSlot::Parked(Box::new(ParkedClient::park(client))));
    }

    /// Stores an already-parked slot back at `i`.
    pub fn put(&mut self, i: usize, slot: ClientSlot) {
        self.set_slot(i, slot);
    }

    /// Releases client `i`'s delta, returning it to template
    /// initialization. The freed memory is the point: a quarantined or
    /// decommissioned client stops costing anything.
    pub fn release(&mut self, i: usize) {
        self.set_slot(i, ClientSlot::Fresh);
    }

    /// How many client evaluations [`pooled_client_accuracies`] has run on
    /// this pool — the cost the accuracy cache exists to bound.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The one place a slot is written: stores `slot` at `i`, returns what
    /// was there, and drops the cached accuracy, which was computed from
    /// the old contents.
    fn set_slot(&mut self, i: usize, slot: ClientSlot) -> ClientSlot {
        self.accuracy[i] = None;
        std::mem::replace(&mut self.slots[i], slot)
    }

    fn materialize_fresh(&self, i: usize) -> ClientState {
        let mut rng = Rng::stream(self.seed, 1 + i as u64);
        let model = self.template_of(i).spec().build(&mut rng);
        ClientState {
            model,
            optimizer: Adam::new(self.learning_rate),
            rng,
        }
    }

    /// Turns a slot the caller took out into a live client, consuming it.
    fn slot_into_client(&self, i: usize, slot: ClientSlot) -> ClientState {
        match slot {
            ClientSlot::Fresh => self.materialize_fresh(i),
            ClientSlot::Parked(parked) => parked.unpark(self.template_of(i).spec()),
        }
    }
}

/// Streams `task` over the rostered clients of a [`ClientPool`] on a
/// bounded work-stealing pool of `workers` threads, committing results
/// **in ascending client order** as soon as each one's turn is reached —
/// the caller folds uploads into streaming accumulators instead of
/// buffering the whole cohort. The phase functions of
/// [`clients`](crate::clients) are its production callers.
///
/// `roster` names the client indices to run (out-of-range entries are
/// ignored, order and duplicates do not matter). Each worker materializes its client from the slot (template replay for
/// fresh, unpark for parked), runs `task`, and flattens the client back
/// into a delta *on the worker* — serialization cost rides the parallel
/// pool, and a full model is live only while its client occupies a
/// worker. Unrostered clients are never touched (fresh ones stay at zero
/// bytes). Determinism is inherited from the ordered commit point:
/// results are bit-identical to a sequential loop for any `workers`.
pub fn for_each_pooled_client_streaming<T: Send>(
    pool: &mut ClientPool,
    data: &[ClientData],
    roster: &[usize],
    workers: usize,
    task: impl Fn(usize, &mut ClientState, &ClientData) -> T + Sync,
    mut commit: impl FnMut(usize, T),
) {
    let mut member = vec![false; pool.len()];
    for &client in roster {
        if let Some(slot) = member.get_mut(client) {
            *slot = true;
        }
    }
    let items: Vec<(usize, ClientSlot, &ClientData)> = member
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(i, _)| (i, pool.take(i), &data[i]))
        .collect();
    // Shared reference for the workers; slot writes happen only at the
    // ordered commit point on the caller's thread.
    let pool_ref: &ClientPool = pool;
    let mut parked: Vec<(usize, ParkedClient)> = Vec::with_capacity(items.len());
    // Execution plan: seed same-template clients contiguously. It shares
    // nothing between clients; it is kept because mixed-tier client
    // training measured faster with it (DESIGN.md §5j). Seeding order is
    // the only thing that changes — the ordered commit point keeps the
    // result bit-identical.
    let keys: Vec<u64> = items
        .iter()
        .map(|&(i, _, _)| u64::from(pool.assignment[i]))
        .collect();
    let schedule = fedpkd_tensor::plan::grouped_schedule(&keys);
    dispatch_stealing_scheduled(
        items,
        &schedule,
        workers,
        |_, (i, slot, data)| {
            let mut client = pool_ref.slot_into_client(i, slot);
            let out = task(i, &mut client, data);
            (i, ParkedClient::park(client), out)
        },
        |_, (i, delta, out)| {
            parked.push((i, delta));
            commit(i, out);
        },
    );
    for (i, delta) in parked {
        pool.put(i, ClientSlot::Parked(Box::new(delta)));
    }
}

/// Per-client local-test accuracies, in client order.
///
/// Only clients whose slot was written since their last evaluation are
/// materialized, evaluated, and dropped (evaluation only touches forward
/// buffers, never parameters or RNG, so residency is unchanged); the rest
/// are answered from the pool's per-slot cache. Accuracy is a pure
/// function of the slot's contents and the client's test shard, so a
/// cached value is bit-for-bit what re-evaluating would return: the first
/// call, and the first after [`read_pool`], sweep the whole fleet, and a
/// sampled-cohort round afterwards costs O(cohort).
///
/// A pool must be evaluated against one `scenario` for its whole life —
/// the cache is keyed by client index, not by test shard.
pub fn pooled_client_accuracies(pool: &mut ClientPool, scenario: &FederatedScenario) -> Vec<f64> {
    let stale: Vec<usize> = (0..pool.len())
        .filter(|&i| pool.accuracy[i].is_none())
        .collect();
    pool.evaluations += stale.len() as u64;
    let shared: &ClientPool = pool;
    let mut fresh = Vec::with_capacity(stale.len());
    // Evaluation runs outside any round, so there is no `RoundContext`
    // budget to read: the machine's.
    dispatch_stealing(
        stale,
        max_workers(),
        |_, i| {
            let mut client = shared.materialize(i);
            let accuracy = eval::accuracy(&mut client.model, &scenario.clients[i].test);
            (i, accuracy)
        },
        |_, evaluated| fresh.push(evaluated),
    );
    for (i, accuracy) in fresh {
        pool.accuracy[i] = Some(accuracy);
    }
    pool.accuracy
        .iter()
        .map(|cached| cached.expect("every stale slot was just evaluated"))
        .collect()
}

/// Writes the fleet: the client count, the pool's seed and learning rate,
/// then per slot a `parked` flag, followed by the template's state width
/// for a fresh slot (9 bytes in all) or by the delta for a parked one —
/// its state, [`write_adam`](snapshot::write_adam) and
/// [`write_rng`](snapshot::write_rng). No client is materialized.
pub fn write_pool(w: &mut dyn StateSink, pool: &ClientPool) {
    w.put_usize(pool.len());
    w.put_u64(pool.seed);
    w.put_f32(pool.learning_rate);
    for (i, slot) in pool.slots.iter().enumerate() {
        w.put_bool(matches!(slot, ClientSlot::Parked(_)));
        match slot {
            ClientSlot::Fresh => w.put_usize(pool.template_of(i).state_len()),
            ClientSlot::Parked(p) => {
                w.put_f32s(&p.state);
                snapshot::write_adam(w, &p.optimizer);
                snapshot::write_rng(w, &p.rng);
            }
        }
    }
}

/// Reads a fleet written by [`write_pool`] into `pool`. A fresh slot is
/// restored fresh and a parked one parked; no model is built.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] if the snapshot's client count, seed or
/// learning rate disagrees with the pool (a fresh slot carries no weights,
/// so it is the pool's init only under the pool's seed and rate), if any
/// client's state width disagrees with its template, on optimizer state
/// that does not fit the client's template (step count, moment count or
/// shapes), or on an invalid RNG payload. The pool may be partially
/// overwritten on error.
pub fn read_pool(r: &mut dyn StateSource, pool: &mut ClientPool) -> Result<(), SnapshotError> {
    let count = r.take_usize()?;
    if count != pool.len() {
        return Err(SnapshotError::Malformed(format!(
            "snapshot has {count} clients, pool has {}",
            pool.len()
        )));
    }
    let (seed, learning_rate) = (r.take_u64()?, r.take_f32()?);
    if seed != pool.seed || learning_rate.to_bits() != pool.learning_rate.to_bits() {
        return Err(SnapshotError::Malformed(format!(
            "snapshot of a pool with seed {seed} and learning rate {learning_rate}, \
             pool has {} and {}",
            pool.seed, pool.learning_rate
        )));
    }
    for i in 0..count {
        let layout = pool.template_of(i).layout();
        let check_width = |width: usize| {
            if width == layout.state_len {
                return Ok(());
            }
            Err(SnapshotError::Malformed(format!(
                "snapshot client {i} carries {width} state values, template needs {}",
                layout.state_len
            )))
        };
        let slot = if r.take_bool()? {
            let state = r.take_f32s()?;
            check_width(state.len())?;
            ClientSlot::Parked(Box::new(ParkedClient {
                state,
                optimizer: snapshot::read_adam_state(r, &layout.param_shapes)?,
                rng: snapshot::read_rng(r)?,
            }))
        } else {
            check_width(r.take_usize()?)?;
            ClientSlot::Fresh
        };
        pool.put(i, slot);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{write_adam, write_rng};
    use crate::train::train_supervised;
    use fedpkd_data::{Partition, ScenarioBuilder, SyntheticConfig};
    use fedpkd_tensor::models::DepthTier;
    use fedpkd_tensor::serialize::param_vector;

    fn tiny_scenario(seed: u64) -> FederatedScenario {
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

    fn hetero_specs() -> Vec<ModelSpec> {
        vec![
            spec(DepthTier::T11),
            spec(DepthTier::T20),
            spec(DepthTier::T11),
        ]
    }

    /// One epoch of local training; returns the mean loss.
    fn train(i: usize, client: &mut ClientState, data: &ClientData) -> (usize, f64) {
        let (model, opt, rng) = (&mut client.model, &mut client.optimizer, &mut client.rng);
        (
            i,
            train_supervised(model, &data.train, 1, 32, opt, rng).mean_loss,
        )
    }

    /// The reference the dispatch is held to, needing no second store: one
    /// thread, ascending client order, `materialize(i)` → `task` →
    /// `park(i)`.
    fn reference_loop<T>(
        pool: &mut ClientPool,
        data: &[ClientData],
        roster: &[usize],
        task: impl Fn(usize, &mut ClientState, &ClientData) -> T,
    ) -> Vec<(usize, T)> {
        let mut roster = roster.to_vec();
        roster.sort_unstable();
        roster.dedup();
        let run = |i: usize| {
            let mut client = pool.materialize(i);
            let out = task(i, &mut client, &data[i]);
            pool.park(i, client);
            (i, out)
        };
        roster.into_iter().map(run).collect()
    }

    #[test]
    fn specs_collapse_to_one_template_per_tier() {
        let pool = ClientPool::new(&hetero_specs(), 0.001, 7);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.template_of(0).spec(), pool.template_of(2).spec());
        assert_eq!(pool.resident_clients(), 0);
        assert_eq!(pool.resident_bytes(), 0);
    }

    /// A pooled fleet keeps only the active cohort's deltas resident: at the
    /// 1000-client / 64-cohort fleet shape it costs exactly the cohort's
    /// dense price, at least 4× below every client owning dense state.
    #[test]
    fn pooled_fleet_residency_is_the_cohort_not_the_fleet() {
        const FLEET: usize = 1_000;
        const COHORT: usize = 64;
        let tiers = [DepthTier::T11, DepthTier::T20, DepthTier::T29];
        let dense: Vec<usize> = tiers
            .iter()
            .map(|&tier| {
                let one = ClientPool::new(&[spec(tier)], 0.003, 707).materialize(0);
                ParkedClient::park(one).resident_bytes()
            })
            .collect();
        let priced = |clients: usize| -> usize { (0..clients).map(|i| dense[i % 3]).sum() };

        let specs: Vec<ModelSpec> = (0..FLEET).map(|i| spec(tiers[i % 3])).collect();
        let mut pool = ClientPool::new(&specs, 0.003, 707);
        for i in 0..COHORT {
            let client = pool.materialize(i);
            pool.park(i, client);
        }
        assert_eq!(pool.resident_bytes(), priced(COHORT));
        assert!(pool.resident_bytes() * 4 <= priced(FLEET));
    }

    #[test]
    fn fresh_materialization_matches_build_clients() {
        // The repo-wide construction convention, spelled out: client `i`
        // is its spec built on stream `1 + i`, and keeps that stream.
        let specs = hetero_specs();
        let pool = ClientPool::new(&specs, 0.001, 42);
        for (i, spec) in specs.iter().enumerate() {
            let mut rng = Rng::stream(42, 1 + i as u64);
            let model = spec.build(&mut rng);
            let mat = pool.materialize(i);
            assert_eq!(state_vector(&mat.model), state_vector(&model));
            assert_eq!(mat.rng.state(), rng.state());
            assert_eq!(mat.optimizer.step_count(), 0);
        }
    }

    #[test]
    fn park_unpark_is_bit_exact_after_training() {
        let scenario = tiny_scenario(3);
        let specs = hetero_specs();
        let pool = ClientPool::new(&specs, 0.003, 9);
        let mut client = pool.materialize(1);
        train(1, &mut client, &scenario.clients[1]);
        let state_before = state_vector(&client.model);
        let steps_before = client.optimizer.step_count();
        let rng_before = client.rng.state();
        let moments_before: Vec<Vec<f32>> = {
            let (m, v) = client.optimizer.moments();
            m.iter().chain(v).map(|t| t.as_slice().to_vec()).collect()
        };
        let back = ParkedClient::park(client).unpark(&specs[1]);
        assert_eq!(state_vector(&back.model), state_before);
        assert_eq!(back.optimizer.step_count(), steps_before);
        assert_eq!(back.rng.state(), rng_before);
        let (m, v) = back.optimizer.moments();
        let moments_after: Vec<Vec<f32>> =
            m.iter().chain(v).map(|t| t.as_slice().to_vec()).collect();
        assert_eq!(moments_after, moments_before);
    }

    #[test]
    fn pooled_streaming_matches_owned_streaming_bitwise() {
        let scenario = tiny_scenario(11);
        let specs = hetero_specs();
        let mut reference = ClientPool::new(&specs, 0.003, 21);
        let expected = reference_loop(&mut reference, &scenario.clients, &[0, 2], train);
        for workers in [1, 4] {
            let mut pool = ClientPool::new(&specs, 0.003, 21);
            let mut pooled_out = Vec::new();
            for_each_pooled_client_streaming(
                &mut pool,
                &scenario.clients,
                &[0, 2],
                workers,
                train,
                |i, out| pooled_out.push((i, out)),
            );
            assert_eq!(pooled_out, expected);
            // Only the rostered clients became resident.
            assert_eq!(pool.resident_clients(), 2);
            assert!(matches!(pool.slot(1), ClientSlot::Fresh));
            // And their deltas equal the reference loop's bit for bit.
            for i in [0usize, 2] {
                let (ours, theirs) = (pool.materialize(i), reference.materialize(i));
                assert_eq!(state_vector(&ours.model), state_vector(&theirs.model));
                assert_eq!(ours.rng.state(), theirs.rng.state());
            }
        }
    }

    #[test]
    fn pooled_accuracies_match_owned_and_leave_residency_unchanged() {
        let scenario = tiny_scenario(5);
        let mut pool = ClientPool::new(&hetero_specs(), 0.001, 13);
        let expected: Vec<f64> = (0..pool.len())
            .map(|i| {
                let mut client = pool.materialize(i);
                eval::accuracy(&mut client.model, &scenario.clients[i].test)
            })
            .collect();
        assert_eq!(pooled_client_accuracies(&mut pool, &scenario), expected);
        assert_eq!(pool.resident_clients(), 0);
    }

    #[test]
    fn pool_snapshot_bytes_match_owned_fleet_bytes() {
        // Version 6's layout, field by field: the count, the seed and the
        // learning rate; then per slot its `parked` flag, and the state
        // width of a fresh slot or, for the parked client 1, its state,
        // Adam's rate, step count and moments, and its RNG words.
        use fedpkd_tensor::optim::Optimizer;
        let scenario = tiny_scenario(17);
        let mut pool = ClientPool::new(&hetero_specs(), 0.003, 31);
        for_each_pooled_client_streaming(&mut pool, &scenario.clients, &[1], 2, train, |_, _| {});
        let mut expected: Vec<u8> = Vec::new();
        expected.put_usize(3);
        expected.put_u64(31);
        expected.put_f32(0.003);
        for i in 0..3 {
            let client = pool.materialize(i);
            let state = state_vector(&client.model);
            expected.put_bool(i == 1);
            if i != 1 {
                expected.put_usize(state.len());
                continue;
            }
            expected.put_f32s(&state);
            expected.put_f32(client.optimizer.learning_rate());
            expected.put_u64(client.optimizer.step_count());
            let (m, v) = client.optimizer.moments();
            expected.put_usize(m.len());
            for t in m.iter().chain(v) {
                expected.put_usize(t.shape().len());
                for &dim in t.shape() {
                    expected.put_usize(dim);
                }
                expected.put_f32s(t.as_slice());
            }
            for word in client.rng.state() {
                expected.put_u64(word);
            }
        }
        let mut written: Vec<u8> = Vec::new();
        write_pool(&mut written, &pool);
        assert_eq!(written, expected);
    }

    #[test]
    fn a_fresh_slot_costs_nine_snapshot_bytes() {
        const FLEET: usize = 1_000;
        let scenario = tiny_scenario(19);
        let mut pool = ClientPool::new(&vec![spec(DepthTier::T11); FLEET], 0.003, 43);
        for_each_pooled_client_streaming(
            &mut pool,
            &scenario.clients,
            &[0, 2],
            2,
            train,
            |_, _| {},
        );
        let parked_payload = |i: usize| {
            let client = pool.materialize(i);
            let mut bytes: Vec<u8> = Vec::new();
            bytes.put_f32s(&state_vector(&client.model));
            write_adam(&mut bytes, &client.optimizer);
            write_rng(&mut bytes, &client.rng);
            bytes.len()
        };
        let mut written: Vec<u8> = Vec::new();
        write_pool(&mut written, &pool);
        assert_eq!(
            written.len(),
            20 + (FLEET - 2) * 9 + (1 + parked_payload(0)) + (1 + parked_payload(2))
        );
    }

    #[test]
    fn read_pool_round_trips_and_recovers_freshness() {
        let scenario = tiny_scenario(23);
        let specs = hetero_specs();
        let mut pool = ClientPool::new(&specs, 0.003, 37);
        for_each_pooled_client_streaming(&mut pool, &scenario.clients, &[2], 2, train, |_, _| {});
        let mut bytes: Vec<u8> = Vec::new();
        write_pool(&mut bytes, &pool);
        let mut restored = ClientPool::new(&specs, 0.003, 37);
        let mut r = bytes.as_slice();
        read_pool(&mut r, &mut restored).unwrap();
        assert!(r.is_empty());
        // Untrained clients come back fresh, the trained one parked.
        assert_eq!(restored.resident_clients(), 1);
        assert!(matches!(restored.slot(2), ClientSlot::Parked(_)));
        for i in 0..3 {
            assert_eq!(
                param_vector(&restored.materialize(i).model),
                param_vector(&pool.materialize(i).model)
            );
        }
    }

    #[test]
    fn read_pool_rejects_wrong_state_length() {
        let specs = vec![spec(DepthTier::T11)];
        let pool = ClientPool::new(&specs, 0.001, 1);
        let mut bytes: Vec<u8> = Vec::new();
        write_pool(&mut bytes, &pool);
        let mut other = ClientPool::new(&[spec(DepthTier::T20)], 0.001, 1);
        let mut r = bytes.as_slice();
        assert!(matches!(
            read_pool(&mut r, &mut other),
            Err(SnapshotError::Malformed(_))
        ));
    }

    /// A fresh slot carries no weights: under another seed or learning
    /// rate it would restore as the reader's init, not the writer's.
    #[test]
    fn read_pool_rejects_another_seed_or_learning_rate() {
        let specs = vec![spec(DepthTier::T11)];
        let mut bytes: Vec<u8> = Vec::new();
        write_pool(&mut bytes, &ClientPool::new(&specs, 0.001, 1));
        for mut other in [
            ClientPool::new(&specs, 0.001, 2),
            ClientPool::new(&specs, 0.002, 1),
        ] {
            let mut r = bytes.as_slice();
            assert!(matches!(
                read_pool(&mut r, &mut other),
                Err(SnapshotError::Malformed(_))
            ));
        }
    }

    #[test]
    fn read_pool_rejects_a_fresh_slot_of_another_width() {
        // Client 0 is parked and fits; client 1 is a fresh T20 slot read
        // into a T11 pool.
        let scenario = tiny_scenario(31);
        let mut pool = ClientPool::new(&[spec(DepthTier::T11), spec(DepthTier::T20)], 0.003, 5);
        for_each_pooled_client_streaming(&mut pool, &scenario.clients, &[0], 1, train, |_, _| {});
        let mut bytes: Vec<u8> = Vec::new();
        write_pool(&mut bytes, &pool);
        let mut other = ClientPool::new(&vec![spec(DepthTier::T11); 2], 0.003, 5);
        let mut r = bytes.as_slice();
        match read_pool(&mut r, &mut other) {
            Err(SnapshotError::Malformed(why)) => assert!(why.contains("client 1"), "{why}"),
            other => panic!("expected a malformed fresh slot, got {other:?}"),
        }
    }

    #[test]
    fn release_returns_a_client_to_its_template() {
        let scenario = tiny_scenario(29);
        let specs = hetero_specs();
        let mut pool = ClientPool::new(&specs, 0.003, 41);
        for_each_pooled_client_streaming(&mut pool, &scenario.clients, &[0], 1, train, |_, _| {});
        assert!(pool.resident_bytes() > 0);
        pool.release(0);
        assert_eq!(pool.resident_bytes(), 0);
        // Back to the deterministic init.
        let fresh = ClientPool::new(&specs, 0.003, 41);
        assert_eq!(
            state_vector(&pool.materialize(0).model),
            state_vector(&fresh.materialize(0).model)
        );
    }
}
