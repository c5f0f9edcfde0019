//! The serving engine: real sockets in, bit-identical rounds out.
//!
//! [`serve`] runs a [`RemoteFederation`]'s round loop against live client
//! processes instead of in-process synthesis. The architecture is one
//! engine thread owning all federation state, fed by per-connection
//! handler threads over a *bounded* event channel:
//!
//! - An **acceptor** thread polls the listener. Past
//!   [`ServeConfig::max_conns`] live connections it sheds load: the new
//!   peer gets one [`Response::Overloaded`] frame and is closed, and the
//!   engine emits [`TelemetryEvent::ServerOverloaded`].
//! - A **handler** thread per connection speaks the frame codec under the
//!   connection's I/O deadline. A read timeout *between* frames is idle
//!   polling; one *inside* a frame — or any malformed, oversized, or
//!   corrupt frame — is a typed [`FrameRejectCause`] reported to the
//!   engine before the connection closes. The protocol is lock-step (one
//!   request, one response), so per-connection inflight work is one frame
//!   by construction; the bounded channel caps the whole server's queue,
//!   and a handler blocked on a full channel simply stops reading its
//!   socket — backpressure reaches the client as TCP/UDS flow control.
//! - The **engine** owns the federation and the round state machine. It
//!   answers [`Request::Hello`] with the authoritative round and
//!   invitation, admits or rejects uploads at the front door (decode →
//!   validate → [`RemoteFederation::stage_upload`]), and commits a round the
//!   way the in-process driver runs one: [`DriverBuilder::context`], then
//!   `Federation::round`, which bills the ledger and advances the round
//!   counter the federation's own driver state holds. Uploads rejected at
//!   admission are never billed.
//!
//! Every commit appends a deterministic history line and, on the snapshot
//! cadence, streams a snapshot to a temp file renamed into place — so
//! a `kill -9` at any instant loses at most the rounds since the last
//! snapshot, which a restarted server simply re-drives: clients recompute
//! the same payloads (they are pure functions of `(seed, round, client)`),
//! and [`canonical_rounds`](crate::history::canonical_rounds) proves the
//! re-driven lines byte-identical.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::remote::RemoteFederation;
use fedpkd_core::runtime::RoundMetrics;
use fedpkd_core::snapshot::SnapshotError;
use fedpkd_core::telemetry::{FrameRejectCause, RoundObserver, TelemetryEvent};
use fedpkd_netsim::{Cohort, Deadline, DropCause, Message, RoundContext, Wire};

use crate::frame::{read_frame_after_kind, write_frame, FrameError, DEFAULT_MAX_PAYLOAD};
use crate::history::{ledger_fingerprint, metrics_line, run_complete_line, HistoryError};
use crate::protocol::{Codec, Request, Response};
use crate::transport::{is_timeout, Conn, Listener};

/// Retry hint carried by [`Response::Overloaded`], in milliseconds.
const OVERLOAD_RETRY_MS: u32 = 100;

/// How the serving engine failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A socket or file I/O failure outside any one connection.
    Io(std::io::Error),
    /// Writing or reading a snapshot failed.
    Snapshot(SnapshotError),
    /// The history file failed.
    History(HistoryError),
    /// A committed round's billed uplink bytes disagree with the bytes
    /// observed on the sockets — the accounting invariant the serving
    /// layer exists to uphold.
    LedgerMismatch {
        /// The round that committed.
        round: usize,
        /// Uplink bytes the federation billed to the ledger.
        billed: usize,
        /// Payload bytes the server actually observed arriving.
        observed: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "serve i/o error: {e}"),
            Self::Snapshot(e) => write!(f, "serve snapshot error: {e}"),
            Self::History(e) => write!(f, "serve history error: {e}"),
            Self::LedgerMismatch {
                round,
                billed,
                observed,
            } => write!(
                f,
                "round {round}: ledger billed {billed} uplink bytes but sockets observed {observed}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Snapshot(e) => Some(e),
            Self::History(e) => Some(e),
            Self::LedgerMismatch { .. } => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

impl From<HistoryError> for ServeError {
    fn from(e: HistoryError) -> Self {
        Self::History(e)
    }
}

/// Server knobs; [`Default`] gives a deterministic 2-second-deadline
/// configuration with no snapshots, no history file, and no round
/// timeout.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total rounds of the run; a restored server continues from its
    /// snapshot's round up to this count.
    pub rounds: usize,
    /// Snapshot after every `n`th committed round (absolute cadence:
    /// rounds `n-1, 2n-1, …` regardless of restarts).
    pub snapshot_every: Option<usize>,
    /// Where snapshots stream to (temp file + atomic rename).
    pub snapshot_path: Option<PathBuf>,
    /// The round-history JSONL file, appended and fsynced per commit.
    pub history_path: Option<PathBuf>,
    /// Per-connection read/write deadline — the serving twin of the fault
    /// plan's transfer deadline, in the same [`Deadline`] currency.
    pub io_deadline: Deadline,
    /// Live-connection cap; connections beyond it are shed with
    /// [`Response::Overloaded`].
    pub max_conns: usize,
    /// Graceful degradation: commit the round with whichever cohort
    /// uploaded once this much time passes. Off by default — a degraded
    /// commit re-derives the cohort from who actually arrived, which is
    /// exactly the bit-identity-with-simulation guarantee the chaos
    /// oracle checks, so crash-recovery runs leave this `None`.
    pub round_timeout: Option<Duration>,
    /// After the final round, keep answering `done` hellos this long (or
    /// until every connection closes) so clients exit cleanly.
    pub drain: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            rounds: 1,
            snapshot_every: None,
            snapshot_path: None,
            history_path: None,
            io_deadline: Deadline::from_secs(2.0),
            max_conns: 64,
            round_timeout: None,
            drain: Duration::from_secs(2),
        }
    }
}

/// What a completed [`serve`] run did.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Rounds driven over the federation's lifetime (including rounds
    /// restored from a snapshot).
    pub rounds_driven: usize,
    /// Metrics of the rounds committed by *this* process.
    pub history: Vec<RoundMetrics>,
    /// Fingerprint of the full ledger (see
    /// [`ledger_fingerprint`]).
    pub ledger_fnv: u64,
    /// Total bytes across the ledger's lifetime.
    pub total_bytes: usize,
}

/// What handler threads report to the engine.
enum Event {
    Accepted {
        conn: usize,
    },
    Request {
        conn: usize,
        req: Request,
        reply: Sender<Response>,
    },
    BadFrame {
        conn: usize,
        cause: FrameRejectCause,
    },
    Closed {
        conn: usize,
        frames: usize,
        bytes: usize,
    },
    Shed,
}

fn frame_cause(err: &FrameError) -> FrameRejectCause {
    match err {
        FrameError::Truncated | FrameError::Io(_) => FrameRejectCause::Truncated,
        FrameError::ChunkTooLarge { .. } | FrameError::Oversized { .. } => {
            FrameRejectCause::Oversized
        }
        FrameError::ChecksumMismatch => FrameRejectCause::ChecksumMismatch,
    }
}

/// The round state machine: the federation, the builder that decides each
/// round's context, and the current round's expected/arrived bookkeeping.
/// The round counter and the ledger stay in the federation's driver state.
struct Engine<'a, F: RemoteFederation> {
    fed: &'a mut F,
    cfg: &'a ServeConfig,
    builder: &'a DriverBuilder,
    history: Vec<RoundMetrics>,
    history_file: Option<std::fs::File>,
    ctx: Option<RoundContext>,
    expected: BTreeSet<usize>,
    /// Observed socket payload bytes per arrived client this round.
    arrived: BTreeMap<usize, usize>,
    round_started: Instant,
}

impl<'a, F: RemoteFederation> Engine<'a, F> {
    fn new(
        fed: &'a mut F,
        builder: &'a DriverBuilder,
        cfg: &'a ServeConfig,
    ) -> Result<Self, ServeError> {
        let history_file = match &cfg.history_path {
            Some(path) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
            None => None,
        };
        let mut engine = Self {
            fed,
            cfg,
            builder,
            history: Vec::new(),
            history_file,
            ctx: None,
            expected: BTreeSet::new(),
            arrived: BTreeMap::new(),
            round_started: Instant::now(),
        };
        engine.begin_round();
        Ok(engine)
    }

    fn round(&self) -> usize {
        self.fed.driver().rounds_driven()
    }

    fn done(&self) -> bool {
        self.round() >= self.cfg.rounds
    }

    fn begin_round(&mut self) {
        self.arrived.clear();
        self.round_started = Instant::now();
        if self.done() {
            self.ctx = None;
            self.expected.clear();
            return;
        }
        let ctx = self.builder.context(self.fed);
        self.expected = ctx.cohort().survivors().into_iter().collect();
        self.ctx = Some(ctx);
    }

    /// Commits the current round. `degraded` re-derives the cohort from
    /// who actually arrived (round-timeout mode); a full commit uses the
    /// context verbatim, which is the bit-identical-with-simulation path.
    fn commit(&mut self, degraded: bool, obs: &mut dyn RoundObserver) -> Result<(), ServeError> {
        let round = self.round();
        let ctx = self.ctx.take().expect("commit only before done");
        let ctx = if degraded {
            let mut causes: Vec<Option<DropCause>> = vec![None; self.fed.num_clients()];
            for (client, cause) in ctx.cohort().dropped() {
                causes[client] = Some(cause);
            }
            for &client in &self.expected {
                if !self.arrived.contains_key(&client) {
                    causes[client] = Some(DropCause::Deadline);
                }
            }
            RoundContext::benign(Cohort::from_causes(causes))
                .with_worker_budget(ctx.worker_budget())
        } else {
            ctx
        };
        let metrics = self.fed.round(&ctx, obs);
        let billed = self.fed.driver().ledger().round_traffic(round).uplink;
        let observed: usize = self.arrived.values().sum();
        if billed != observed {
            return Err(ServeError::LedgerMismatch {
                round,
                billed,
                observed,
            });
        }
        self.append_history(&metrics_line(&metrics))?;
        self.history.push(metrics);
        if self
            .cfg
            .snapshot_every
            .is_some_and(|every| self.round().is_multiple_of(every))
        {
            self.write_snapshot()?;
        }
        self.begin_round();
        Ok(())
    }

    /// Commits rounds whose expected cohort is empty (nothing will ever
    /// arrive for them) until one needs uploads or the run completes.
    fn drive_unblocked_rounds(&mut self, obs: &mut dyn RoundObserver) -> Result<(), ServeError> {
        while !self.done() && self.expected.is_empty() {
            self.commit(false, obs)?;
        }
        Ok(())
    }

    fn append_history(&mut self, line: &str) -> Result<(), ServeError> {
        if let Some(f) = &mut self.history_file {
            f.write_all(line.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        Ok(())
    }

    /// Streams a snapshot to a temp file and renames it into place — a
    /// `kill -9` sees either the old snapshot or the new one, never a torn
    /// write.
    fn write_snapshot(&mut self) -> Result<(), ServeError> {
        let Some(path) = &self.cfg.snapshot_path else {
            return Ok(());
        };
        let tmp = path.with_extension("snap-tmp");
        let mut file = std::fs::File::create(&tmp)?;
        self.fed.snapshot_to(&mut file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// The run report.
    fn finish(self) -> ServeReport {
        let ledger = self.fed.driver().ledger();
        ServeReport {
            rounds_driven: self.round(),
            history: self.history,
            ledger_fnv: ledger_fingerprint(ledger),
            total_bytes: ledger.total_bytes(),
        }
    }

    /// Appends the terminal `run_complete` history line.
    fn finish_history(&mut self) -> Result<(), ServeError> {
        let ledger = self.fed.driver().ledger();
        let line = run_complete_line(
            self.round(),
            ledger.total_bytes(),
            ledger_fingerprint(ledger),
        );
        self.append_history(&line)
    }

    /// Answers one request, possibly committing the round it completes.
    fn handle(
        &mut self,
        req: Request,
        conn: usize,
        obs: &mut dyn RoundObserver,
    ) -> Result<Response, ServeError> {
        match req {
            Request::Hello { client } => Ok(Response::Assignment {
                done: self.done(),
                invited: !self.done()
                    && self.expected.contains(&(client as usize))
                    && !self.arrived.contains_key(&(client as usize)),
                round: self.round() as u64,
            }),
            Request::Upload {
                round,
                client,
                codec: Codec::Raw,
                payload,
            } => {
                if self.done() || round != self.round() as u64 {
                    return Ok(Response::Stale {
                        round: self.round() as u64,
                    });
                }
                let client = client as usize;
                if !self.expected.contains(&client) {
                    return Ok(Response::Rejected {
                        reason: "not_invited".to_string(),
                    });
                }
                if self.arrived.contains_key(&client) {
                    // A retry after a lost ack: the payload is a pure
                    // function of (round, client), so ack idempotently.
                    return Ok(Response::Ack { round });
                }
                let message = match decode_upload(&payload) {
                    Ok(message) => message,
                    Err((cause, reason)) => {
                        obs.record(&TelemetryEvent::FrameRejected {
                            round: self.round(),
                            conn,
                            cause,
                        });
                        return Ok(Response::Rejected {
                            reason: reason.to_string(),
                        });
                    }
                };
                if let Err(e) = self.fed.stage_upload(self.round(), client, message) {
                    obs.record(&TelemetryEvent::FrameRejected {
                        round: self.round(),
                        conn,
                        cause: FrameRejectCause::Inadmissible,
                    });
                    return Ok(Response::Rejected {
                        reason: e.name().to_string(),
                    });
                }
                self.arrived.insert(client, payload.len());
                if self.arrived.len() == self.expected.len() {
                    self.commit(false, obs)?;
                    self.drive_unblocked_rounds(obs)?;
                }
                Ok(Response::Ack { round })
            }
        }
    }
}

/// Decodes a raw upload payload, validating at the admission front door:
/// undecodable or over-long bytes are typed rejections before any
/// federation state is touched.
fn decode_upload(payload: &[u8]) -> Result<Message, (FrameRejectCause, &'static str)> {
    let mut buf = payload;
    let message = Message::decode(&mut buf)
        .map_err(|_| (FrameRejectCause::Malformed, "undecodable_payload"))?;
    if !buf.is_empty() {
        return Err((FrameRejectCause::Malformed, "trailing_bytes"));
    }
    Ok(message)
}

/// One connection's read/dispatch loop; runs on its own thread.
fn handle_conn(
    mut conn: Conn,
    id: usize,
    tx: SyncSender<Event>,
    done: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    io_deadline: Duration,
) {
    let _ = conn.set_io_deadline(io_deadline);
    let reply_wait = io_deadline.max(Duration::from_secs(1)) * 4;
    let mut frames = 0usize;
    let mut bytes = 0usize;
    loop {
        if done.load(Ordering::Relaxed) {
            break;
        }
        let mut kind = [0u8; 1];
        match std::io::Read::read(&mut conn, &mut kind) {
            Ok(0) => break,
            Ok(_) => {}
            // A deadline between frames is just an idle poll.
            Err(ref e) if is_timeout(e) => continue,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        let payload = match read_frame_after_kind(&mut conn, kind[0], DEFAULT_MAX_PAYLOAD) {
            Ok(payload) => payload,
            Err(err) => {
                // A deadline *inside* a frame, corruption, or a hostile
                // length: reject, report, and drop the connection — its
                // framing can no longer be trusted.
                let cause = frame_cause(&err);
                let _ = tx.send(Event::BadFrame { conn: id, cause });
                let resp = Response::Rejected {
                    reason: cause.name().to_string(),
                };
                let _ = write_frame(&mut conn, resp.kind(), &resp.to_bytes());
                break;
            }
        };
        frames += 1;
        bytes += 1 + payload.len();
        let req = match Request::decode(kind[0], &payload) {
            Ok(Some(req)) => req,
            Ok(None) => {
                // Intact frame, unknown kind/codec byte: reject but keep
                // the connection — the framing itself checked out.
                let _ = tx.send(Event::BadFrame {
                    conn: id,
                    cause: FrameRejectCause::UnknownKind,
                });
                let resp = Response::Rejected {
                    reason: "unknown_kind".to_string(),
                };
                if write_frame(&mut conn, resp.kind(), &resp.to_bytes()).is_err() {
                    break;
                }
                continue;
            }
            Err(_) => {
                let _ = tx.send(Event::BadFrame {
                    conn: id,
                    cause: FrameRejectCause::Malformed,
                });
                let resp = Response::Rejected {
                    reason: "malformed".to_string(),
                };
                if write_frame(&mut conn, resp.kind(), &resp.to_bytes()).is_err() {
                    break;
                }
                continue;
            }
        };
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        if tx
            .send(Event::Request {
                conn: id,
                req,
                reply: reply_tx,
            })
            .is_err()
        {
            break;
        }
        let Ok(resp) = reply_rx.recv_timeout(reply_wait) else {
            break;
        };
        if write_frame(&mut conn, resp.kind(), &resp.to_bytes()).is_err() {
            break;
        }
    }
    active.fetch_sub(1, Ordering::Relaxed);
    let _ = tx.send(Event::Closed {
        conn: id,
        frames,
        bytes,
    });
}

/// Runs a federation's round loop over real sockets until all
/// [`ServeConfig::rounds`] commit, then drains and returns.
///
/// A restored federation (non-zero `rounds_driven`) continues from its
/// snapshot; see the [module docs](self) for the crash-recovery story.
///
/// # Errors
///
/// [`ServeError`] on listener/snapshot/history failures or a ledger
/// accounting mismatch. Per-connection failures are telemetry, not
/// errors.
pub fn serve<F: RemoteFederation>(
    fed: &mut F,
    builder: &DriverBuilder,
    listener: Listener,
    cfg: &ServeConfig,
    obs: &mut dyn RoundObserver,
) -> Result<ServeReport, ServeError> {
    listener.set_nonblocking(true)?;
    let transport = listener.transport();
    let done = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let (tx, rx): (SyncSender<Event>, Receiver<Event>) =
        std::sync::mpsc::sync_channel(cfg.max_conns.max(1) * 2);
    let io_deadline = cfg.io_deadline.to_duration();

    let acceptor = {
        let tx = tx.clone();
        let done = Arc::clone(&done);
        let active = Arc::clone(&active);
        let max_conns = cfg.max_conns;
        std::thread::spawn(move || {
            let mut next_conn = 0usize;
            while !done.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok(mut conn) => {
                        let id = next_conn;
                        next_conn += 1;
                        if active.load(Ordering::Relaxed) >= max_conns {
                            // Shed: one Overloaded frame, then close. The
                            // frame is readable by the peer even after we
                            // drop the stream.
                            let _ = conn.set_io_deadline(Duration::from_millis(200));
                            let resp = Response::Overloaded {
                                retry_ms: OVERLOAD_RETRY_MS,
                            };
                            let _ = write_frame(&mut conn, resp.kind(), &resp.to_bytes());
                            // Shedding must not block on a full queue the
                            // overload itself caused.
                            if let Err(TrySendError::Disconnected(_)) = tx.try_send(Event::Shed) {
                                break;
                            }
                            continue;
                        }
                        active.fetch_add(1, Ordering::Relaxed);
                        if tx.send(Event::Accepted { conn: id }).is_err() {
                            break;
                        }
                        let tx = tx.clone();
                        let done = Arc::clone(&done);
                        let active = Arc::clone(&active);
                        std::thread::spawn(move || {
                            handle_conn(conn, id, tx, done, active, io_deadline);
                        });
                    }
                    Err(ref e) if is_timeout(e) => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })
    };
    drop(tx);

    let mut engine = Engine::new(fed, builder, cfg)?;
    let result = event_loop(&mut engine, &rx, &active, transport, obs);

    // Stop the acceptor and unblock handlers regardless of outcome.
    done.store(true, Ordering::Relaxed);
    drop(rx);
    let _ = acceptor.join();

    result?;
    Ok(engine.finish())
}

/// The engine's event loop: rounds commit as uploads complete them, the
/// optional round timeout degrades gracefully, and after the final round
/// the server drains `done` hellos until clients disconnect.
fn event_loop<F: RemoteFederation>(
    engine: &mut Engine<'_, F>,
    rx: &Receiver<Event>,
    active: &AtomicUsize,
    transport: &'static str,
    obs: &mut dyn RoundObserver,
) -> Result<(), ServeError> {
    let mut live_conns = 0usize;
    let mut drain_until: Option<Instant> = None;
    engine.drive_unblocked_rounds(obs)?;
    // A restart into an already-finished run has no connections yet, but
    // the crashed predecessor's clients may still be sleeping in backoff:
    // hold the listener open for the whole drain window so they learn
    // `done` instead of exhausting their retries against a dead socket.
    // A normal completion keeps the fast exit once every connection closes.
    let hold_full_drain = engine.done();
    loop {
        if engine.done() {
            match drain_until {
                None => {
                    engine.finish_history()?;
                    drain_until = Some(Instant::now() + engine.cfg.drain);
                }
                Some(until) => {
                    if (live_conns == 0 && !hold_full_drain) || Instant::now() >= until {
                        return Ok(());
                    }
                }
            }
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Event::Accepted { conn }) => {
                live_conns += 1;
                // Every late arrival restarts the drain clock, so a chain
                // of backoff-staggered stragglers all get their answer.
                if let Some(until) = &mut drain_until {
                    *until = Instant::now() + engine.cfg.drain;
                }
                obs.record(&TelemetryEvent::ConnAccepted {
                    round: engine.round(),
                    conn,
                    transport: transport.to_string(),
                });
            }
            Ok(Event::Closed {
                conn,
                frames,
                bytes,
            }) => {
                live_conns = live_conns.saturating_sub(1);
                obs.record(&TelemetryEvent::ConnClosed {
                    round: engine.round(),
                    conn,
                    frames,
                    bytes,
                });
            }
            Ok(Event::BadFrame { conn, cause }) => {
                obs.record(&TelemetryEvent::FrameRejected {
                    round: engine.round(),
                    conn,
                    cause,
                });
            }
            Ok(Event::Shed) => {
                obs.record(&TelemetryEvent::ServerOverloaded {
                    round: engine.round(),
                    inflight: active.load(Ordering::Relaxed),
                    limit: engine.cfg.max_conns,
                });
            }
            Ok(Event::Request { conn, req, reply }) => {
                let resp = engine.handle(req, conn, obs)?;
                let _ = reply.send(resp);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
        if let Some(timeout) = engine.cfg.round_timeout {
            if !engine.done() && engine.round_started.elapsed() > timeout {
                engine.commit(true, obs)?;
                engine.drive_unblocked_rounds(obs)?;
            }
        }
    }
}
