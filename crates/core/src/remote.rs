//! SPI for federations whose client phase can run in *other processes*.
//!
//! The simulated driver computes every client's upload in-process. The
//! serving layer (`fedpkd-serve`) moves that computation out to real
//! client processes that speak the `Wire` format over a socket — but the
//! round itself must stay bit-identical to the simulation, because the
//! crash-recovery oracle compares a served run against an in-process run
//! at the same seed.
//!
//! [`RemoteFederation::stage_upload`] injects a decoded upload into the
//! server-side instance; the next `run_round(round, ..)` consumes the
//! staged payload for that `(round, client)` instead of computing it.
//!
//! Staging validates eagerly and returns the typed [`RejectReason`]
//! admission gives in process, so the server can reject a hostile payload
//! at its front door (billing nothing) rather than poisoning the round.
//! Staged payloads are transient: they are consumed by the very next
//! `run_round` call for their round, so snapshots (taken at round
//! boundaries, after commit) never contain staged state.

use fedpkd_netsim::Message;

use crate::admission::RejectReason;
use crate::runtime::Federation;

/// A [`Federation`] whose client uploads can be computed outside the
/// server process and injected back in without changing the round's
/// result. See the [module docs](self).
pub trait RemoteFederation: Federation {
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
    /// The [`RejectReason`] the payload was refused for. The serving
    /// layer maps it to
    /// [`FrameRejectCause::Inadmissible`](crate::telemetry::FrameRejectCause)
    /// telemetry and a rejection carrying its [`name`](RejectReason::name);
    /// the payload's bytes are *not* billed to the ledger.
    fn stage_upload(
        &mut self,
        round: usize,
        client: usize,
        payload: Message,
    ) -> Result<(), RejectReason>;
}
