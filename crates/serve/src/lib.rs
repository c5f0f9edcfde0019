//! Real-transport serving layer for FedPKD federations.
//!
//! Everything below `fedpkd-core` simulates the network; this crate makes
//! it real. `fedpkd-serve` binds a TCP or Unix-domain socket and drives a
//! [`RemoteFederation`](fedpkd_core::remote::RemoteFederation)'s round
//! loop against live `fedpkd-client` processes, which compute their own
//! uploads from a config-only replica and speak the bytes-accurate
//! [`Wire`](fedpkd_netsim::Wire) format inside checksummed streaming
//! frames.
//!
//! The layer's one non-negotiable property is **bit-identity with the
//! simulation**: a served run commits the same
//! [`RoundMetrics`](fedpkd_core::runtime::RoundMetrics) and bills the
//! same ledger as
//! `DriverBuilder::run` at the same seed, even across `kill -9` and
//! restart — uploads are pure functions of `(seed, round, client)`,
//! a round is the in-process driver's own
//! [`DriverBuilder::context`](fedpkd_core::driver::DriverBuilder::context)
//! then `Federation::round`, called from here, and periodic streaming
//! snapshots let a restarted server re-drive the lost rounds to
//! byte-identical history lines.
//!
//! Module map:
//!
//! - [`frame`] — a kind byte over the chunk envelope of
//!   [`fedpkd_netsim::chunk`] (the one the snapshot stream uses), with the
//!   payload cap and the clean-EOF rule a socket needs.
//! - [`protocol`] — the lock-step Hello/Assignment, Upload/Ack request
//!   grammar, whose one upload codec byte is `Codec::Raw`.
//! - [`transport`] — TCP and Unix-domain sockets behind one `Conn`.
//! - [`backoff`] — seeded exponential backoff with jitter.
//! - [`server`] — the accept/handler/engine threads, admission front
//!   door, backpressure, graceful degradation, and crash-safe commits.
//! - [`client`] — the reconnecting lock-step participant loop.
//! - [`history`] — the deterministic JSONL round history and the
//!   canonicalization oracle chaos tests compare against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod client;
pub mod frame;
pub mod history;
pub mod protocol;
pub mod server;
pub mod transport;

pub use backoff::Backoff;
pub use client::{run_client, ClientConfig, ClientError, ClientReport};
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_PAYLOAD, FRAME_CHUNK};
pub use history::{canonical_rounds, ledger_fingerprint, metrics_line, repair_history_file};
pub use protocol::{Codec, Request, Response};
pub use server::{serve, ServeConfig, ServeError, ServeReport};
pub use transport::{Conn, Listener, Target};
