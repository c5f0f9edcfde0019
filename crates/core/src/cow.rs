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
//! park/unpark round-trips parameters, buffers, optimizer moments, and RNG
//! words without any re-encoding — a pooled run equals the single-threaded
//! loop `materialize(i)` → task → `park(i)` in ascending client order.
//! [`write_pool`] is the client count followed by
//! [`write_client`](crate::snapshot::write_client) of every materialized
//! client, whatever mix of fresh and parked slots holds them.

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
/// that diverged from its template, flattened. No activations, no
/// gradient buffers, no layer scratch.
#[derive(Debug, Clone)]
pub struct ParkedClient {
    /// Flat model state (parameters + persistent buffers) in
    /// `serialize::state_vector` order.
    state: Vec<f32>,
    /// Optimizer learning rate (parked verbatim so a per-client override
    /// survives the round trip).
    opt_lr: f32,
    /// Optimizer step count.
    opt_t: u64,
    /// First-moment buffers, one per parameter tensor.
    opt_m: Vec<fedpkd_tensor::Tensor>,
    /// Second-moment buffers, paired with `opt_m`.
    opt_v: Vec<fedpkd_tensor::Tensor>,
    /// The client's RNG position (raw xoshiro words).
    rng: [u64; 4],
}

impl ParkedClient {
    /// Flattens a live client into its parked delta, consuming it. The
    /// optimizer moments are moved, not copied.
    pub fn park(client: ClientState) -> Self {
        let state = state_vector(&client.model);
        let (opt_lr, opt_t, opt_m, opt_v) = client.optimizer.into_state();
        Self {
            state,
            opt_lr,
            opt_t,
            opt_m,
            opt_v,
            rng: client.rng.state(),
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
        load_state_vector(&mut model, &self.state)
            .expect("parked state matches its template's layout");
        let mut optimizer = Adam::new(self.opt_lr);
        optimizer.restore_state(self.opt_t, self.opt_m, self.opt_v);
        ClientState {
            model,
            optimizer,
            rng: Rng::from_state(self.rng),
        }
    }

    /// Resident size of this delta in bytes (model state + both moment
    /// buffers), for memory accounting.
    pub fn resident_bytes(&self) -> usize {
        let moments: usize = self
            .opt_m
            .iter()
            .chain(&self.opt_v)
            .map(|t| t.as_slice().len())
            .sum();
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
    // Execution plan: seed same-template clients contiguously so a worker
    // replays one template's weights (and one arena size class) back to
    // back. Seeding order is the only thing that changes — the ordered
    // commit point keeps the result bit-identical (DESIGN.md §5j).
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

/// Writes the fleet: count-prefixed, then per client model state, Adam
/// state, RNG words — [`write_client`](snapshot::write_client)'s layout
/// for every client. Parked slots are written from their delta; fresh
/// slots materialize ephemerally (one at a time) to produce their
/// template-initialization bytes.
pub fn write_pool(w: &mut dyn StateSink, pool: &ClientPool) {
    w.put_usize(pool.len());
    for (i, slot) in pool.slots.iter().enumerate() {
        match slot {
            ClientSlot::Parked(p) => {
                w.put_f32s(&p.state);
                w.put_f32(p.opt_lr);
                w.put_u64(p.opt_t);
                w.put_usize(p.opt_m.len());
                for t in p.opt_m.iter().chain(&p.opt_v) {
                    snapshot::write_tensor(w, t);
                }
                for word in p.rng {
                    w.put_u64(word);
                }
            }
            ClientSlot::Fresh => {
                let client = pool.materialize_fresh(i);
                snapshot::write_client(w, &client);
            }
        }
    }
}

/// Reads a fleet written by [`write_pool`] into `pool`.
///
/// A client whose decoded state is exactly its template initialization —
/// zero optimizer steps and the untouched `(seed, client)` init — is
/// restored as [`ClientSlot::Fresh`], so restoring a mostly-fresh fleet
/// reproduces its low residency instead of parking every client.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] if the snapshot's client count or any
/// client's state length disagrees with the pool, on optimizer state that
/// does not fit the client's template (step count, moment count or
/// shapes), or on invalid RNG payloads. The pool may be partially overwritten on
/// error.
pub fn read_pool(r: &mut dyn StateSource, pool: &mut ClientPool) -> Result<(), SnapshotError> {
    let count = r.take_usize()?;
    if count != pool.len() {
        return Err(SnapshotError::Malformed(format!(
            "snapshot has {count} clients, pool has {}",
            pool.len()
        )));
    }
    for i in 0..count {
        let state = r.take_f32s()?;
        let expected = pool.template_of(i).state_len();
        if state.len() != expected {
            return Err(SnapshotError::Malformed(format!(
                "snapshot client {i} carries {} state values, template needs {expected}",
                state.len()
            )));
        }
        let (opt_lr, opt_t, opt_m, opt_v) =
            snapshot::read_adam_state(r, &pool.template_of(i).layout().param_shapes)?;
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.take_u64()?;
        }
        if rng.iter().all(|&w| w == 0) {
            return Err(SnapshotError::Malformed("all-zero RNG state".into()));
        }
        let parked = ParkedClient {
            state,
            opt_lr,
            opt_t,
            opt_m,
            opt_v,
            rng,
        };
        let slot = if pool.is_template_init(i, &parked) {
            ClientSlot::Fresh
        } else {
            ClientSlot::Parked(Box::new(parked))
        };
        pool.put(i, slot);
    }
    Ok(())
}

impl ClientPool {
    /// Whether `parked` is bit-for-bit the template initialization of
    /// client `i` — the never-trained state [`read_pool`] may drop.
    fn is_template_init(&self, i: usize, parked: &ParkedClient) -> bool {
        if parked.opt_t != 0
            || !parked.opt_m.is_empty()
            || !parked.opt_v.is_empty()
            || parked.opt_lr.to_bits() != self.learning_rate.to_bits()
        {
            return false;
        }
        let mut rng = Rng::stream(self.seed, 1 + i as u64);
        let init = self.template_of(i).spec().build(&mut rng);
        rng.state() == parked.rng
            && state_vector(&init)
                .iter()
                .zip(&parked.state)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_client;
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
        // The byte layout every snapshot ever written relies on: the
        // count, then `write_client` of each client — parked (client 1) or
        // fresh alike.
        let scenario = tiny_scenario(17);
        let mut pool = ClientPool::new(&hetero_specs(), 0.003, 31);
        for_each_pooled_client_streaming(&mut pool, &scenario.clients, &[1], 2, train, |_, _| {});
        let mut expected: Vec<u8> = Vec::new();
        expected.put_usize(pool.len());
        for i in 0..pool.len() {
            write_client(&mut expected, &pool.materialize(i));
        }
        let mut written: Vec<u8> = Vec::new();
        write_pool(&mut written, &pool);
        assert_eq!(written, expected);
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
