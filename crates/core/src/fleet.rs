//! A synthetic fleet-scale federation for exercising the driver at
//! thousands of clients.
//!
//! [`FleetSim`] implements [`Federation`] with per-client work that is
//! cheap but *shaped* like FedPKD's prototype path: every invited client
//! synthesizes a class-prototype upload from its own `(round, client)`
//! RNG stream, the payload is charged to the ledger at real wire size,
//! and the server folds uploads into a streaming
//! [`PrototypeAccumulator`] in canonical client order. Server state is
//! `O(classes · dims)` — independent of the fleet size — which is the
//! property the 10 000-client benchmark asserts.
//!
//! The client phase runs on the work-stealing pool under the round
//! context's worker budget, and folding happens at the ordered commit
//! point, so results are bit-identical for any worker count.
//!
//! A served round is whole: the serving layer commits a round only once
//! every survivor's upload is staged, or rebuilds the cohort from those
//! that arrived. So a round with any staged survivor folds its staged
//! uploads alone, in client order, on the caller's thread, and spawns no
//! thread; a round with none synthesizes every survivor's upload.

use std::collections::BTreeMap;

use fedpkd_netsim::{CommLedger, Direction, Message, RoundContext};
use fedpkd_rng::Rng;
use fedpkd_tensor::parallel::{dispatch_stealing, max_workers};
use fedpkd_tensor::Tensor;

use crate::admission::{AdmissionPolicy, RejectReason};
use crate::fedpkd::prototypes::{from_wire_entries, to_wire_entries, Prototype};
use crate::remote::RemoteFederation;
use crate::runtime::{DriverState, Federation};
use crate::snapshot::{read_driver, write_driver, SnapshotError, StateSink, StateSource};
use crate::streaming::PrototypeAccumulator;
use crate::telemetry::RoundObserver;

/// Mixes the round index into the per-round RNG stream root.
const ROUND_KEY: u64 = 0x9E37_79B9_7F4A_7C15;

/// A synthetic prototype-uploading federation over a large client fleet.
///
/// See the [module docs](self) for what it models. Per-client telemetry is
/// deliberately not emitted: at fleet scale the event stream would dwarf
/// the round itself, and the driver's round framing already reports the
/// aggregate picture.
///
/// Every upload is [`client_payload`](Self::client_payload), a pure
/// function of `(seed, round, client)` and the problem shape, never of
/// server state. So a config-only replica in a client process computes
/// the same bytes the in-process simulation charges, and a served run
/// replays the simulated one bit for bit.
///
/// # Examples
///
/// ```
/// use fedpkd_core::driver::DriverBuilder;
/// use fedpkd_core::fleet::FleetSim;
/// use fedpkd_netsim::CohortPolicy;
///
/// let mut fleet = FleetSim::new(10_000, 10, 32, 42);
/// let result = DriverBuilder::new()
///     .rounds(2)
///     .cohort(CohortPolicy::Sample { size: 256, seed: 7 })
///     .build()
///     .run_silent(&mut fleet);
/// assert_eq!(result.history.len(), 2);
/// assert!(result.last().server_accuracy.is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSim {
    fleet: usize,
    classes: usize,
    dims: usize,
    seed: u64,
    /// Row-major `[classes, dims]` running mean of aggregated prototypes —
    /// the only state that scales with the problem, never with the fleet.
    centroids: Vec<f32>,
    /// Rounds whose aggregate actually updated the centroids.
    aggregated_rounds: usize,
    /// Uploads staged by the serving layer, keyed `(round, client)` and
    /// consumed by the matching `run_round` call. Transient within a
    /// round — snapshots are taken at commit boundaries, after every
    /// staged payload for the round has been drained — so this map is
    /// deliberately absent from `write_state`/`read_state`.
    staged: BTreeMap<(usize, usize), Vec<Option<Prototype>>>,
    driver: DriverState,
}

impl FleetSim {
    /// A fleet of `fleet` clients over a `classes`-way problem with
    /// `dims`-dimensional prototype vectors, seeded by `seed`.
    pub fn new(fleet: usize, classes: usize, dims: usize, seed: u64) -> Self {
        Self {
            fleet,
            classes,
            dims,
            seed,
            centroids: vec![0.0; classes * dims],
            aggregated_rounds: 0,
            staged: BTreeMap::new(),
            driver: DriverState::new(),
        }
    }

    /// The server's current per-class centroid matrix, row-major
    /// `[classes, dims]`.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// The exact wire payload client `client` uploads in round `round`.
    pub fn client_payload(&self, round: usize, client: usize) -> Message {
        let protos = Self::synth_prototypes(self.seed, self.classes, self.dims, round, client);
        Message::Prototypes {
            entries: to_wire_entries(&protos),
        }
    }

    /// Synthesizes the prototype upload client `client` produces in round
    /// `round` — a pure function of `(seed, round, client)`.
    fn synth_prototypes(
        seed: u64,
        classes: usize,
        dims: usize,
        round: usize,
        client: usize,
    ) -> Vec<Option<Prototype>> {
        let round_seed = seed.wrapping_add((round as u64).wrapping_mul(ROUND_KEY));
        let mut rng = Rng::stream(round_seed, client as u64);
        (0..classes)
            .map(|_| {
                // Each client holds a random subset of classes (non-IID).
                if rng.next_f32() < 0.5 {
                    return None;
                }
                let count = 1 + (rng.next_u64() % 64) as usize;
                let vector = Tensor::rand_uniform(&[dims], -1.0, 1.0, &mut rng);
                Some(Prototype { count, vector })
            })
            .collect()
    }

    /// Charges `protos` to the ledger as a wire payload and folds it.
    fn ingest(
        acc: &mut PrototypeAccumulator,
        ledger: &mut CommLedger,
        round: usize,
        client: usize,
        protos: &[Option<Prototype>],
    ) {
        ledger.record(
            round,
            client,
            Direction::Uplink,
            &Message::Prototypes {
                entries: to_wire_entries(protos),
            },
        );
        acc.fold(protos)
            .expect("fleet prototypes share the class count");
    }
}

impl Federation for FleetSim {
    fn name(&self) -> &'static str {
        "FleetSim"
    }

    fn num_clients(&self) -> usize {
        self.fleet
    }

    fn run_round(
        &mut self,
        round: usize,
        ctx: &RoundContext,
        ledger: &mut CommLedger,
        _obs: &mut dyn RoundObserver,
    ) {
        let (seed, classes, dims) = (self.seed, self.classes, self.dims);
        let workers = ctx.worker_budget().unwrap_or_else(max_workers);
        let mut acc = PrototypeAccumulator::new();

        // The survivors' staged uploads move out of the map; whatever else
        // was staged for this round is dropped, other rounds' is untouched.
        let survivors = ctx.cohort().survivors();
        let staged: Vec<_> = survivors
            .iter()
            .filter_map(|&client| Some((client, self.staged.remove(&(round, client))?)))
            .collect();
        self.staged.retain(|&(r, _), _| r != round);

        // Survivors fold in ascending client id: a served round's staged
        // uploads alone, else every survivor's, synthesized on the pool.
        if staged.is_empty() {
            dispatch_stealing(
                survivors,
                workers,
                |_, client| {
                    (
                        client,
                        Self::synth_prototypes(seed, classes, dims, round, client),
                    )
                },
                |_, (client, protos)| Self::ingest(&mut acc, ledger, round, client, &protos),
            );
        } else {
            for (client, protos) in staged {
                Self::ingest(&mut acc, ledger, round, client, &protos);
            }
        }

        if acc.clients() > 0 {
            let aggregate = acc
                .finish()
                .expect("accumulator is non-empty")
                .into_iter()
                .collect::<Vec<_>>();
            let blend = 1.0 / (self.aggregated_rounds as f32 + 1.0);
            for (class, mean) in aggregate.into_iter().enumerate() {
                if let Some(mean) = mean {
                    let row = &mut self.centroids[class * self.dims..(class + 1) * self.dims];
                    for (c, &m) in row.iter_mut().zip(mean.as_slice()) {
                        *c += (m - *c) * blend;
                    }
                }
            }
            self.aggregated_rounds += 1;
        }
    }

    fn server_accuracy(&mut self) -> Option<f64> {
        // Synthetic saturating curve: rises with each aggregated round.
        Some(1.0 - 1.0 / (1.0 + self.aggregated_rounds as f64 * 0.25))
    }

    fn client_accuracies(&mut self) -> Vec<f64> {
        // Evaluating 10k synthetic clients per round would dominate the
        // simulation for no signal; the fleet reports none.
        Vec::new()
    }

    fn driver(&self) -> &DriverState {
        &self.driver
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.driver
    }

    fn write_state(&self, w: &mut dyn StateSink) {
        w.put_usize(self.fleet);
        w.put_usize(self.classes);
        w.put_usize(self.dims);
        w.put_u64(self.seed);
        w.put_f32s(&self.centroids);
        w.put_usize(self.aggregated_rounds);
        write_driver(w, &self.driver);
    }

    fn read_state(&mut self, r: &mut dyn StateSource) -> Result<(), SnapshotError> {
        // The shape and seed are configuration, not state: a snapshot of
        // another fleet is refused, never adopted.
        let written = (
            r.take_usize()?,
            r.take_usize()?,
            r.take_usize()?,
            r.take_u64()?,
        );
        let own = (self.fleet, self.classes, self.dims, self.seed);
        if written != own {
            return Err(SnapshotError::Malformed(format!(
                "snapshot of fleet (clients, classes, dims, seed) {written:?}, this one is {own:?}"
            )));
        }
        let centroids = r.take_f32s()?;
        if centroids.len() != self.centroids.len() {
            return Err(SnapshotError::Malformed(format!(
                "{} centroid values for {} classes x {} dims",
                centroids.len(),
                self.classes,
                self.dims
            )));
        }
        self.centroids = centroids;
        self.aggregated_rounds = r.take_usize()?;
        // Staged uploads are transient within a round; a restored instance
        // starts with nothing staged.
        self.staged = BTreeMap::new();
        self.driver = read_driver(r)?;
        if self.aggregated_rounds > self.driver.rounds_driven() {
            return Err(SnapshotError::Malformed(format!(
                "{} aggregated rounds out of {} driven",
                self.aggregated_rounds,
                self.driver.rounds_driven()
            )));
        }
        Ok(())
    }
}

impl RemoteFederation for FleetSim {
    fn stage_upload(
        &mut self,
        round: usize,
        client: usize,
        payload: Message,
    ) -> Result<(), RejectReason> {
        let Message::Prototypes { entries } = payload else {
            return Err(RejectReason::UnexpectedPayload);
        };
        if client >= self.fleet {
            return Err(RejectReason::UnknownClient {
                client,
                fleet: self.fleet,
            });
        }
        let protos = from_wire_entries(entries, self.classes)?;
        AdmissionPolicy.check_prototypes(&protos, self.classes, self.dims)?;
        self.staged.insert((round, client), protos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Driver, DriverBuilder};
    use fedpkd_netsim::{CohortPolicy, FaultPlan, LinkModel, PrototypeEntry};

    fn sampled_builder(rounds: usize) -> DriverBuilder {
        DriverBuilder::new()
            .rounds(rounds)
            .cohort(CohortPolicy::Sample { size: 64, seed: 3 })
    }

    #[test]
    fn fleet_round_charges_only_invited_clients() {
        let mut fleet = FleetSim::new(1000, 10, 16, 5);
        let result = sampled_builder(1).build().run_silent(&mut fleet);
        let uplinks = result.ledger.round_client_uplinks(0, 1000);
        let senders = uplinks.iter().filter(|&&b| b > 0).count();
        assert!(senders <= 64, "only sampled clients upload, got {senders}");
        assert!(senders > 0);
        assert_eq!(result.last().participation_rate, 1.0);
    }

    #[test]
    fn fleet_replay_is_bit_identical_for_any_worker_budget() {
        let run = |workers: usize| {
            let mut fleet = FleetSim::new(500, 8, 16, 11);
            let result = sampled_builder(3)
                .workers(workers)
                .build()
                .run_silent(&mut fleet);
            (result, fleet)
        };
        let (r1, f1) = run(1);
        let (r8, f8) = run(8);
        assert_eq!(r1, r8);
        assert_eq!(f1, f8);
    }

    #[test]
    fn fleet_server_state_is_fleet_size_independent() {
        let small = FleetSim::new(100, 10, 32, 1);
        let large = FleetSim::new(10_000, 10, 32, 1);
        assert_eq!(small.centroids().len(), large.centroids().len());
        assert_eq!(small.centroids().len(), 10 * 32);
    }

    #[test]
    fn staged_uploads_replay_bit_identically_with_synthesis() {
        // A run where every invited client's payload is staged through the
        // remote SPI (as the serving layer does) must equal the in-process
        // run at the same seed — the bit-identity the chaos oracle rests on
        // — at any worker budget.
        let rounds = 3;
        let mut plain = FleetSim::new(64, 6, 8, 17);
        let reference = sampled_builder(rounds).build().run_silent(&mut plain);

        for workers in [None, Some(1), Some(2)] {
            let mut served = FleetSim::new(64, 6, 8, 17);
            let mut builder =
                DriverBuilder::new().cohort(CohortPolicy::Sample { size: 64, seed: 3 });
            if let Some(workers) = workers {
                builder = builder.workers(workers);
            }
            let mut history = Vec::new();
            for round in 0..rounds {
                let ctx = builder.context(&served);
                for client in ctx.cohort().survivors() {
                    let payload = served.client_payload(round, client);
                    served
                        .stage_upload(round, client, payload)
                        .expect("own payload is admissible");
                }
                history.push(served.round(&ctx, &mut crate::telemetry::NullObserver));
                assert!(
                    served.staged.is_empty(),
                    "round {round} drained its staging"
                );
            }
            let case = format!("budget {workers:?}");
            assert_eq!(history, reference.history, "{case}");
            assert_eq!(served.driver().ledger(), &reference.ledger, "{case}");
            assert_eq!(served.centroids(), plain.centroids(), "{case}");
        }
    }

    #[test]
    fn a_partly_staged_round_folds_only_what_was_staged() {
        // Staging every other survivor: the round bills and folds exactly
        // those uploads, and synthesizes nobody else's.
        let mut fleet = FleetSim::new(16, 6, 8, 17);
        let builder = DriverBuilder::new();
        let ctx = builder.context(&fleet);
        let survivors = ctx.cohort().survivors();
        let staged: Vec<usize> = survivors.iter().copied().step_by(2).collect();
        assert!(!staged.is_empty() && staged.len() < survivors.len());
        let mut acc = PrototypeAccumulator::new();
        let mut ledger = CommLedger::new();
        for &client in &staged {
            let payload = fleet.client_payload(0, client);
            fleet.stage_upload(0, client, payload).unwrap();
            let protos = FleetSim::synth_prototypes(17, 6, 8, 0, client);
            FleetSim::ingest(&mut acc, &mut ledger, 0, client, &protos);
        }
        fleet.round(&ctx, &mut crate::telemetry::NullObserver);

        assert!(fleet.staged.is_empty());
        assert_eq!(fleet.driver().ledger(), &ledger);
        let expected: Vec<f32> = acc
            .finish()
            .unwrap()
            .into_iter()
            .flat_map(|mean| mean.map_or(vec![0.0; 8], |m| m.as_slice().to_vec()))
            .collect();
        assert_eq!(fleet.centroids(), expected.as_slice());
    }

    #[test]
    fn stage_upload_rejects_hostile_payloads_typed() {
        let mut fleet = FleetSim::new(8, 4, 8, 1);
        let entry = |class: u32, count: u32, dims: usize| PrototypeEntry {
            class,
            count,
            vector: vec![0.5; dims],
        };
        // Wrong message kind.
        assert_eq!(
            fleet.stage_upload(0, 0, Message::SampleSelection { ids: vec![1] }),
            Err(RejectReason::UnexpectedPayload)
        );
        // Client outside the fleet.
        assert_eq!(
            fleet.stage_upload(0, 99, Message::Prototypes { entries: vec![] }),
            Err(RejectReason::UnknownClient {
                client: 99,
                fleet: 8
            })
        );
        // Class out of range and wrong vector width.
        assert_eq!(
            fleet.stage_upload(
                0,
                0,
                Message::Prototypes {
                    entries: vec![entry(9, 1, 8)]
                },
            ),
            Err(RejectReason::WrongShape)
        );
        assert_eq!(
            fleet.stage_upload(
                0,
                0,
                Message::Prototypes {
                    entries: vec![entry(0, 1, 3)]
                },
            ),
            Err(RejectReason::WrongShape)
        );
        // Out-of-order classes are malformed.
        assert_eq!(
            fleet.stage_upload(
                0,
                0,
                Message::Prototypes {
                    entries: vec![entry(2, 1, 8), entry(1, 1, 8)]
                },
            ),
            Err(RejectReason::Malformed)
        );
        assert_eq!(
            fleet.stage_upload(
                0,
                0,
                Message::Prototypes {
                    entries: vec![entry(1, 0, 8)]
                },
            ),
            Err(RejectReason::WrongShape),
            "a zero count is admission's wrong shape"
        );
        // Non-finite values.
        let mut bad = entry(1, 1, 8);
        bad.vector[3] = f32::NAN;
        assert_eq!(
            fleet.stage_upload(0, 0, Message::Prototypes { entries: vec![bad] }),
            Err(RejectReason::NonFinite)
        );
        // A vector past the norm cap.
        let mut huge = entry(1, 1, 8);
        huge.vector[0] = 2.0 * crate::admission::MAX_PROTOTYPE_NORM;
        assert_eq!(
            fleet.stage_upload(
                0,
                0,
                Message::Prototypes {
                    entries: vec![huge]
                }
            ),
            Err(RejectReason::NormExceeded)
        );
        // A failed staging leaves nothing behind; a clean one lands.
        assert!(fleet.staged.is_empty());
        let own = fleet.client_payload(0, 0);
        fleet.stage_upload(0, 0, own).unwrap();
        assert_eq!(fleet.staged.len(), 1);
    }

    #[test]
    fn fleet_snapshot_resume_is_bit_identical_under_deadlines() {
        let plan = FaultPlan::new(2).with_deadline(LinkModel::new(100.0, 0.0), 1.0);
        let driver = || {
            DriverBuilder::new()
                .rounds(3)
                .cohort(CohortPolicy::Sample { size: 32, seed: 9 })
                .faults(plan.clone())
        };
        let mut straight = FleetSim::new(200, 6, 8, 33);
        let _ = driver().build().run_silent(&mut straight);
        let full = driver().build().run_silent(&mut straight);

        let mut halted = FleetSim::new(200, 6, 8, 33);
        let _ = driver().build().run_silent(&mut halted);
        // Snapshot mid-run: the resumed loop must rebuild each client's
        // deadline estimate from the restored ledger.
        let state = Driver::snapshot(&halted, &mut crate::telemetry::NullObserver);
        let mut resumed = FleetSim::new(200, 6, 8, 33);
        let second = driver()
            .build()
            .resume(&mut resumed, &state, &mut crate::telemetry::NullObserver)
            .unwrap();
        assert_eq!(second.history, full.history);
        assert_eq!(resumed, straight);
    }

    #[test]
    fn snapshot_of_another_configuration_is_malformed() {
        let mut donor = FleetSim::new(8, 4, 8, 1);
        let _ = Driver::rounds(1).run_silent(&mut donor);
        let state = Driver::snapshot(&donor, &mut crate::telemetry::NullObserver);
        assert!(FleetSim::new(8, 4, 8, 1)
            .restore_from(&mut state.as_slice())
            .is_ok());
        // (8, 8, 4) has as many centroid values as the donor's (8, 4, 8).
        for mut other in [
            FleetSim::new(9, 4, 8, 1),
            FleetSim::new(8, 8, 4, 1),
            FleetSim::new(8, 4, 9, 1),
            FleetSim::new(8, 4, 8, 2),
        ] {
            let before = other.clone();
            assert!(matches!(
                other.restore_from(&mut state.as_slice()),
                Err(SnapshotError::Malformed(_))
            ));
            assert_eq!(other, before, "a refused snapshot changes nothing");
        }
    }
}
