//! SPI for federations whose client phase can run in *other processes*.
//!
//! The simulated driver computes every client's upload in-process. The
//! serving layer (`fedpkd-serve`) moves that computation out to real
//! client processes that speak the `Wire` format over a socket — but the
//! round itself must stay bit-identical to the simulation, because the
//! crash-recovery oracle compares a served run against an in-process run
//! at the same seed.
//!
//! [`RemoteFederation`] is the contract that makes this possible:
//!
//! - [`client_payload`](RemoteFederation::client_payload) exposes the
//!   exact wire [`Message`] a client uploads for a round, as a **pure
//!   function** of the federation's immutable configuration. A client
//!   binary constructs a config-only replica (no server state) and
//!   computes its own uploads locally.
//! - [`stage_upload`](RemoteFederation::stage_upload) injects a decoded
//!   upload back into the server-side instance; the next
//!   `run_round(round, ..)` consumes the staged payload for that
//!   `(round, client)` instead of synthesizing it.
//!
//! Staging validates eagerly — shape, finiteness, ordering — and returns a
//! typed [`StageError`] so the server can reject a hostile payload at its
//! front door (billing nothing) rather than poisoning the round. Staged
//! payloads are transient: they are consumed by the very next
//! `run_round` call for their round, so snapshots (taken at round
//! boundaries, after commit) never contain staged state.

use fedpkd_netsim::Message;

use crate::runtime::Federation;

/// Why a staged upload was refused before it touched round state.
///
/// The serving layer maps these to
/// [`FrameRejectCause::Inadmissible`](crate::telemetry::FrameRejectCause)
/// telemetry; the payload's bytes are *not* billed to the ledger, matching
/// the simulator's convention that rejected payloads never crossed the
/// admission boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StageError {
    /// The message kind is not what this federation's clients upload.
    UnexpectedPayload,
    /// The client index is outside the fleet.
    UnknownClient {
        /// The offending client index.
        client: usize,
        /// The fleet size it must be below.
        fleet: usize,
    },
    /// A vector length or class index does not match the problem shape.
    WrongShape,
    /// A payload value is NaN or infinite.
    NonFinite,
    /// Structurally invalid: class entries out of order, duplicated, or a
    /// zero sample count.
    Malformed,
}

impl StageError {
    /// The snake_case name used in diagnostics and wire rejections.
    pub fn name(self) -> &'static str {
        match self {
            Self::UnexpectedPayload => "unexpected_payload",
            Self::UnknownClient { .. } => "unknown_client",
            Self::WrongShape => "wrong_shape",
            Self::NonFinite => "non_finite",
            Self::Malformed => "malformed",
        }
    }
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnexpectedPayload => write!(f, "payload kind not accepted by this federation"),
            Self::UnknownClient { client, fleet } => {
                write!(f, "client {client} outside fleet of {fleet}")
            }
            Self::WrongShape => write!(f, "payload shape does not match the problem"),
            Self::NonFinite => write!(f, "payload contains non-finite values"),
            Self::Malformed => write!(f, "payload is structurally invalid"),
        }
    }
}

impl std::error::Error for StageError {}

/// A [`Federation`] whose client uploads can be computed outside the
/// server process and injected back in without changing the round's
/// result. See the [module docs](self) for the bit-identity argument.
pub trait RemoteFederation: Federation {
    /// The exact wire payload client `client` uploads in round `round`.
    ///
    /// Must be a pure function of the federation's immutable configuration
    /// (seed, problem shape) — never of mutable server state — so a
    /// stateless client replica produces the same bytes the in-process
    /// simulation would have charged.
    fn client_payload(&self, round: usize, client: usize) -> Message;

    /// Stages a decoded upload for consumption by the next
    /// `run_round(round, ..)` call.
    ///
    /// The round bills the message's canonical `encoded_len`, which is the
    /// payload size the socket carried: every upload is a raw `Wire`
    /// message.
    ///
    /// Validation is eager; on `Err` the federation is unchanged. Staging
    /// the same `(round, client)` twice replaces the earlier payload (a
    /// client retrying after a lost ack re-sends identical bytes).
    ///
    /// # Errors
    ///
    /// A typed [`StageError`] describing why the payload was refused.
    fn stage_upload(
        &mut self,
        round: usize,
        client: usize,
        payload: Message,
    ) -> Result<(), StageError>;
}
