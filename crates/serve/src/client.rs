//! The client engine: one participant of the served federation over a
//! socket. The served federation is `FleetSim`, whose uploads stand in
//! for FedPKD's prototype uplink; a FedPKD client session crossing the
//! socket is ROADMAP item 1b-ii.
//!
//! [`run_client`] drives one client's whole life against a
//! `fedpkd-serve` server. The loop is lock-step with the protocol:
//! poll with [`Request::Hello`], and when invited compute the round's
//! payload *locally* — uploads are pure functions of
//! `(seed, round, client)`, so a config-only replica of the federation
//! produces byte-for-byte the message the in-process simulation would
//! have charged — then upload and wait for the verdict.
//!
//! Failure handling is what makes the client survive chaos runs:
//!
//! - Connect failures and mid-exchange I/O errors (the server was just
//!   `kill -9`ed) reconnect under seeded exponential [`Backoff`], each
//!   retry announced as [`TelemetryEvent::RetryScheduled`].
//! - [`Response::Overloaded`] sleeps the server's hint and retries.
//! - [`Response::Stale`] re-polls: the server moved on (or restarted into
//!   an earlier round) and the client recomputes for whatever round the
//!   server now wants — recovery is just the ordinary code path.
//! - [`Response::Rejected`] is fatal: an honest client's payload is never
//!   inadmissible, so a rejection means misconfiguration, not weather.

use std::time::Duration;

use fedpkd_core::telemetry::{RoundObserver, TelemetryEvent};
use fedpkd_netsim::Deadline;

use crate::backoff::Backoff;
use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_PAYLOAD};
use crate::protocol::{Codec, Request, Response};
use crate::transport::{Conn, Target};

/// First reconnect backoff delay, milliseconds.
const BACKOFF_BASE_MS: u64 = 25;

/// Reconnect backoff cap, milliseconds.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Why a client gave up.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The server rejected an upload; honest clients treat this as fatal.
    Rejected {
        /// The server's stated reason.
        reason: String,
    },
    /// Retries exhausted without reaching a server.
    RetriesExhausted {
        /// Attempts made on the final outage.
        attempts: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Rejected { reason } => write!(f, "server rejected upload: {reason}"),
            Self::RetriesExhausted { attempts } => {
                write!(f, "gave up after {attempts} connect attempts")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Client knobs; [`Default`] polls every 20 ms under a 2-second I/O
/// deadline with a 25 ms → 2 s backoff schedule and at most 40 attempts
/// per outage.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// This client's index in the fleet.
    pub client: usize,
    /// Jitter seed for the backoff schedule (deterministic per client).
    pub seed: u64,
    /// How long to sleep between hellos while uninvited.
    pub poll: Duration,
    /// Read/write deadline on the connection, shared currency with the
    /// server's [`ServeConfig::io_deadline`](crate::server::ServeConfig).
    pub io_deadline: Deadline,
    /// Consecutive failed connect/exchange attempts before giving up —
    /// bounds how long a client outlives a server that never comes back.
    pub max_attempts: u32,
}

impl ClientConfig {
    /// A default configuration for client `client`, jitter-seeded by its
    /// own index so a fleet desynchronizes naturally.
    pub fn new(client: usize) -> Self {
        Self {
            client,
            seed: client as u64,
            poll: Duration::from_millis(20),
            io_deadline: Deadline::from_secs(2.0),
            max_attempts: 40,
        }
    }
}

/// What a finished client did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientReport {
    /// Uploads the server acked (idempotent re-acks not counted twice by
    /// the server, but each ack the client saw is counted here).
    pub uploads_acked: usize,
    /// Times the client reconnected after an I/O failure.
    pub reconnects: usize,
    /// Times the server answered `Overloaded`.
    pub overloaded: usize,
}

/// Computes a round payload: the raw `Wire` bytes of the client's
/// `Message`. The payload must be a pure function of `(round, client)` — see
/// [`FleetSim::client_payload`](fedpkd_core::fleet::FleetSim::client_payload),
/// which this closure typically wraps.
pub type PayloadFn<'a> = dyn Fn(u64, usize) -> Vec<u8> + 'a;

fn exchange(conn: &mut Conn, req: &Request) -> Result<Response, FrameError> {
    write_frame(conn, req.kind(), &req.to_bytes())?;
    match read_frame(conn, DEFAULT_MAX_PAYLOAD)? {
        None => Err(FrameError::Truncated),
        Some((kind, body)) => Response::decode(kind, &body)?.ok_or(FrameError::Truncated),
    }
}

/// Runs one client to run completion (the server answers `done`).
///
/// `payload` computes the upload bytes for a round; they travel under
/// [`Codec::Raw`].
///
/// # Errors
///
/// [`ClientError::Rejected`] on an inadmissible upload,
/// [`ClientError::RetriesExhausted`] when the server stays unreachable.
pub fn run_client(
    target: &Target,
    cfg: &ClientConfig,
    payload: &PayloadFn<'_>,
    obs: &mut dyn RoundObserver,
) -> Result<ClientReport, ClientError> {
    let mut backoff = Backoff::new(cfg.seed, BACKOFF_BASE_MS, BACKOFF_CAP_MS);
    let mut report = ClientReport {
        uploads_acked: 0,
        reconnects: 0,
        overloaded: 0,
    };
    let mut last_round = 0u64;
    'reconnect: loop {
        if backoff.attempt() >= cfg.max_attempts {
            return Err(ClientError::RetriesExhausted {
                attempts: backoff.attempt(),
            });
        }
        let mut conn = match target.connect() {
            Ok(conn) => conn,
            Err(_) => {
                retry_sleep(&mut backoff, last_round, cfg.client, obs);
                continue 'reconnect;
            }
        };
        if backoff.attempt() > 0 {
            report.reconnects += 1;
        }
        backoff.reset();
        let _ = conn.set_io_deadline(cfg.io_deadline.to_duration());
        loop {
            let hello = Request::Hello {
                client: cfg.client as u32,
            };
            let assignment = match exchange(&mut conn, &hello) {
                Ok(resp) => resp,
                Err(_) => {
                    retry_sleep(&mut backoff, last_round, cfg.client, obs);
                    continue 'reconnect;
                }
            };
            let (invited, round) = match assignment {
                Response::Assignment { done: true, .. } => return Ok(report),
                Response::Assignment { invited, round, .. } => (invited, round),
                Response::Overloaded { retry_ms } => {
                    report.overloaded += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(retry_ms)));
                    continue 'reconnect;
                }
                // Anything else to a Hello is a confused peer; reconnect.
                _ => {
                    retry_sleep(&mut backoff, last_round, cfg.client, obs);
                    continue 'reconnect;
                }
            };
            last_round = round;
            if !invited {
                std::thread::sleep(cfg.poll);
                continue;
            }
            let upload = Request::Upload {
                round,
                client: cfg.client as u32,
                codec: Codec::Raw,
                payload: payload(round, cfg.client),
            };
            match exchange(&mut conn, &upload) {
                Ok(Response::Ack { .. }) => {
                    report.uploads_acked += 1;
                    backoff.reset();
                }
                // The server moved on (or restarted behind us): re-poll
                // and recompute for whatever round it now wants.
                Ok(Response::Stale { .. }) => continue,
                Ok(Response::Overloaded { retry_ms }) => {
                    report.overloaded += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(retry_ms)));
                }
                Ok(Response::Rejected { reason }) => {
                    return Err(ClientError::Rejected { reason });
                }
                Ok(_) => {
                    retry_sleep(&mut backoff, last_round, cfg.client, obs);
                    continue 'reconnect;
                }
                Err(_) => {
                    retry_sleep(&mut backoff, last_round, cfg.client, obs);
                    continue 'reconnect;
                }
            }
        }
    }
}

fn retry_sleep(backoff: &mut Backoff, round: u64, client: usize, obs: &mut dyn RoundObserver) {
    let attempt = backoff.attempt() as usize;
    let delay = backoff.next_delay();
    obs.record(&TelemetryEvent::RetryScheduled {
        round: round as usize,
        client,
        attempt,
        delay_ms: delay.as_millis() as usize,
    });
    std::thread::sleep(delay);
}
