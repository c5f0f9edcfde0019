//! Round-level observability: typed events, observers, and sinks.
//!
//! Every federated algorithm in this workspace reports its per-round
//! internals — local-training losses, aggregation confidence, filter
//! outcomes (Algorithm 1), distillation loss components (Eqs. 11–13),
//! prototype drift, wall-clock phase timings, and ledger deltas — through a
//! single [`RoundObserver`] threaded into
//! [`Federation::run_round`](crate::runtime::Federation::run_round) by the
//! shared [`Driver`](crate::driver::Driver).
//!
//! Three observers cover the common cases:
//!
//! - [`NullObserver`] — the zero-cost default. Its [`RoundObserver::enabled`]
//!   returns `false`, which algorithms use to skip computing diagnostic
//!   statistics entirely.
//! - [`JsonlSink`] — streams one [`JsonObject`] line per event to any
//!   [`std::io::Write`] (a file, a `Vec<u8>`, a socket), one per line.
//! - [`EventLog`] — collects events in memory for tests and diagnostics.
//!
//! Telemetry is observational by construction: events carry values the
//! algorithms already computed (or pure functions of them), never consume
//! randomness, and never feed back into training. Attaching any observer to
//! a run must not change a single metric bit; `tests/telemetry.rs` at the
//! workspace root enforces this.

use std::time::Instant;

use crate::admission::{PayloadKind, RejectReason};
use fedpkd_netsim::DropCause;

/// The wall-clock phases of a communication round.
///
/// Not every algorithm has every phase — FedAvg has no distillation,
/// FedMD/DS-FL have no server — so a round's `phase_timing` events cover a
/// subset of these in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Phase {
    /// Clients training on their private shards (plus knowledge extraction).
    ClientTraining,
    /// Server-side knowledge aggregation (logits, prototypes, parameters).
    Aggregation,
    /// Prototype-based public-set filtering (Algorithm 1).
    Filter,
    /// Server-model distillation (Eqs. 11–13). In a data-free round the
    /// generator's refine runs beside it (at budget 1, right after it), and
    /// this phase times both.
    ServerDistill,
    /// Clients distilling from the server/ensemble knowledge (Eq. 15).
    ClientDistill,
    /// Accuracy evaluation at the end of the round (driver-level).
    Evaluation,
}

impl Phase {
    /// The snake_case name used in serialized events.
    pub fn name(self) -> &'static str {
        match self {
            Self::ClientTraining => "client_training",
            Self::Aggregation => "aggregation",
            Self::Filter => "filter",
            Self::ServerDistill => "server_distill",
            Self::ClientDistill => "client_distill",
            Self::Evaluation => "evaluation",
        }
    }
}

/// Why the serving layer rejected a transport frame at its front door.
///
/// Frame rejection happens *before* payload admission: these causes cover
/// the byte-level trust boundary (framing, checksums, size caps, codec
/// decoding), while shape/finiteness/norm failures of a successfully
/// decoded payload surface as [`TelemetryEvent::PayloadRejected`] with an
/// [`admission::RejectReason`](crate::admission::RejectReason).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameRejectCause {
    /// The connection ended mid-frame.
    Truncated,
    /// The frame's running XXH64 trailer did not match its bytes.
    ChecksumMismatch,
    /// The frame exceeded the server's payload cap.
    Oversized,
    /// The frame kind byte is not part of the protocol.
    UnknownKind,
    /// The payload bytes failed `Wire` decoding.
    Malformed,
    /// The decoded payload failed admission control.
    Inadmissible,
}

impl FrameRejectCause {
    /// The snake_case name used in serialized events.
    pub fn name(self) -> &'static str {
        match self {
            Self::Truncated => "truncated",
            Self::ChecksumMismatch => "checksum_mismatch",
            Self::Oversized => "oversized",
            Self::UnknownKind => "unknown_kind",
            Self::Malformed => "malformed",
            Self::Inadmissible => "inadmissible",
        }
    }
}

/// Declares [`TelemetryEvent`] from one table. Each entry names a variant,
/// its snake_case kind and its fields, `round` first; the enum,
/// [`kind`](TelemetryEvent::kind), [`round`](TelemetryEvent::round) and
/// [`to_json`](TelemetryEvent::to_json) all come from it. A variant's JSON
/// line is `"event"` followed by its fields under their own names, in
/// declaration order, so a new event is one entry and nothing else.
macro_rules! telemetry_events {
    (
        $(#[$enum_attr:meta])*
        pub enum TelemetryEvent {
            $(
                $(#[$variant_attr:meta])*
                $variant:ident = $kind:literal {
                    $(#[$round_attr:meta])*
                    round: usize,
                    $(
                        $(#[$field_attr:meta])*
                        $field:ident: $ty:ty,
                    )*
                },
            )*
        }
    ) => {
        $(#[$enum_attr])*
        pub enum TelemetryEvent {
            $(
                $(#[$variant_attr])*
                $variant {
                    $(#[$round_attr])*
                    round: usize,
                    $(
                        $(#[$field_attr])*
                        $field: $ty,
                    )*
                },
            )*
        }

        impl TelemetryEvent {
            /// The snake_case event tag, also the `"event"` field of
            /// [`to_json`](Self::to_json).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $kind,)*
                }
            }

            /// The round the event belongs to.
            pub fn round(&self) -> usize {
                match self {
                    $(Self::$variant { round, .. } => *round,)*
                }
            }

            /// Serializes the event as a single JSON object through
            /// [`JsonObject`]: `"event"`, `"round"`, then the variant's
            /// other fields in declaration order. Non-finite floats become
            /// `null`.
            pub fn to_json(&self) -> String {
                let obj = JsonObject::default().field("event", self.kind());
                match self {
                    $(Self::$variant { round, $($field),* } => obj
                        .field("round", round)
                        $(.field(stringify!($field), $field))*,)*
                }
                .finish()
            }
        }
    };
}

telemetry_events! {
    /// One typed observation from inside a federated round.
    ///
    /// Every variant carries its `round` so serialized streams are
    /// self-describing. Loss values are per-batch means over the phase that
    /// produced them.
    #[derive(Debug, Clone, PartialEq)]
    #[non_exhaustive]
    pub enum TelemetryEvent {
        /// A round is starting.
        RoundStart = "round_start" {
            /// Zero-based round index.
            round: usize,
            /// Algorithm display name (`"FedPKD"`, `"FedAvg"`, …).
            algorithm: String,
            /// Number of participating clients.
            clients: usize,
        },
        /// A client missed the round (fault injection).
        ClientDropped = "client_dropped" {
            /// Round index.
            round: usize,
            /// Client index.
            client: usize,
            /// Why the client missed the round.
            cause: DropCause,
        },
        /// One client finished its local (private) training.
        ClientTrained = "client_trained" {
            /// Round index.
            round: usize,
            /// Client index.
            client: usize,
            /// Private training samples the client holds.
            samples: usize,
            /// Mean per-batch training loss over the local epochs.
            mean_loss: f64,
        },
        /// Admission control rejected a client's upload.
        PayloadRejected = "payload_rejected" {
            /// Round index.
            round: usize,
            /// Client index.
            client: usize,
            /// Which payload failed validation.
            payload: PayloadKind,
            /// Why it was rejected.
            reason: RejectReason,
        },
        /// A client crossed the consecutive-rejection threshold and is
        /// quarantined for the rest of the run.
        ClientQuarantined = "client_quarantined" {
            /// Round index.
            round: usize,
            /// Client index.
            client: usize,
            /// Consecutive flagged rounds at the moment of quarantine.
            consecutive: usize,
        },
        /// Robust aggregation was applied to the round's knowledge (trimmed
        /// Eq. 6–7 logits and/or distance-to-median Eq. 8 prototypes).
        AggregationTrim = "aggregation_trim" {
            /// Round index.
            round: usize,
            /// Fraction trimmed from each tail of every logit coordinate.
            logit_trim: f64,
            /// Prototype contributions rejected as distance-to-median outliers.
            prototype_outliers: usize,
            /// Total prototype contributions inspected.
            prototype_contributions: usize,
        },
        /// The server aggregated the clients' public-set logits (Eqs. 6–7).
        LogitAggregation = "logit_aggregation" {
            /// Round index.
            round: usize,
            /// Number of contributing clients.
            clients: usize,
            /// Whether variance weighting (Eq. 7) was active.
            variance_weighting: bool,
            /// Per-client mean aggregation weight (uniform when disabled).
            mean_client_weight: Vec<f64>,
            /// Fraction of samples on which client argmax predictions disagree.
            disagreement: f64,
        },
        /// Distance between the previous and new global prototypes (Eq. 8).
        PrototypeDrift = "prototype_drift" {
            /// Round index.
            round: usize,
            /// Classes with a global prototype after this round.
            classes_present: usize,
            /// Mean L2 distance over classes present in both rounds.
            mean_l2: f64,
            /// Maximum L2 distance over classes present in both rounds.
            max_l2: f64,
        },
        /// Outcome of prototype-based public-set filtering (Algorithm 1).
        FilterOutcome = "filter_outcome" {
            /// Round index.
            round: usize,
            /// Total samples kept.
            kept: usize,
            /// Total samples dropped.
            dropped: usize,
            /// Samples kept per pseudo-class.
            kept_per_class: Vec<usize>,
            /// Pseudo-class populations before filtering.
            total_per_class: Vec<usize>,
            /// Five-number summary (min, q25, median, q75, max) of the Eq. 10
            /// prototype distances; empty when no class had a prototype.
            distance_quantiles: Vec<f64>,
            /// Samples dropped because their pseudo-class has no global
            /// prototype (data-free mode only; 0 otherwise).
            dropped_uncovered: usize,
        },
        /// The server-side sample generator was refined against the client
        /// logit ensemble (data-free mode).
        GeneratorRefined = "generator_refined" {
            /// Round index.
            round: usize,
            /// KL of the server's generated-sample predictions against the
            /// aggregated ensemble distribution.
            ensemble_loss: f64,
            /// Cross-entropy against the intended (conditioning) labels.
            ce_loss: f64,
            /// Mean squared embedding-to-prototype distance (covered classes).
            proto_loss: f64,
            /// Mean squared distance of per-class generated batch means to the
            /// aggregated real input-space class means (observed classes).
            moment_loss: f64,
        },
        /// Server distillation finished (Eqs. 11–13).
        ServerDistill = "server_distill" {
            /// Round index.
            round: usize,
            /// Mean distillation term `L_kd` (KL + CE, Eq. 11).
            kd_loss: f64,
            /// Mean prototype term `L_p` (MSE, Eq. 12); 0 when disabled.
            proto_loss: f64,
            /// Mean combined objective `F = δ·L_kd + (1−δ)·L_p` (Eq. 13).
            combined_loss: f64,
            /// Mini-batches processed.
            batches: usize,
        },
        /// One client finished distilling from the downlinked knowledge.
        ClientDistilled = "client_distilled" {
            /// Round index.
            round: usize,
            /// Client index.
            client: usize,
            /// Mean per-batch distillation loss (Eq. 15).
            mean_loss: f64,
        },
        /// Wall-clock duration of one phase of the round.
        PhaseTiming = "phase_timing" {
            /// Round index.
            round: usize,
            /// Which phase.
            phase: Phase,
            /// Elapsed wall-clock seconds.
            seconds: f64,
        },
        /// Bytes that crossed the simulated network this round.
        LedgerDelta = "ledger_delta" {
            /// Round index.
            round: usize,
            /// Client → server bytes this round.
            uplink_bytes: usize,
            /// Server → client bytes this round.
            downlink_bytes: usize,
            /// Cumulative bytes through this round.
            cumulative_bytes: usize,
        },
        /// A round completed, with its end-of-round metrics.
        RoundEnd = "round_end" {
            /// Round index.
            round: usize,
            /// Total wall-clock seconds for the round (including evaluation).
            seconds: f64,
            /// Server accuracy, if the algorithm has a server model.
            server_accuracy: Option<f64>,
            /// Mean per-client local-test accuracy.
            mean_client_accuracy: f64,
            /// Cumulative communication bytes through this round.
            cumulative_bytes: usize,
            /// Fraction of clients that participated this round (1.0 without
            /// fault injection).
            participation_rate: f64,
        },
        /// A state snapshot was captured at a round boundary
        /// (see [`Driver::snapshot`](crate::driver::Driver::snapshot)).
        SnapshotTaken = "snapshot_taken" {
            /// Rounds driven when the snapshot was taken — the round a resumed
            /// run will start from.
            round: usize,
            /// Length of the snapshot stream in bytes — what
            /// [`Federation::snapshot_to`](crate::runtime::Federation::snapshot_to)
            /// writes for this state.
            bytes: usize,
        },
        /// A state snapshot was restored into a fresh instance
        /// (see [`Driver::resume`](crate::driver::Driver::resume)).
        SnapshotRestored = "snapshot_restored" {
            /// Rounds driven recorded in the snapshot — the next round to run.
            round: usize,
            /// Length of the snapshot stream in bytes — what
            /// [`Federation::snapshot_to`](crate::runtime::Federation::snapshot_to)
            /// writes for this state.
            bytes: usize,
        },
        /// The serving layer accepted a client connection.
        ConnAccepted = "conn_accepted" {
            /// Round the server engine was on when the connection arrived.
            round: usize,
            /// Server-local connection id (monotonic per server lifetime).
            conn: usize,
            /// Transport name (`"tcp"` or `"uds"`).
            transport: String,
        },
        /// A client connection ended (cleanly or otherwise).
        ConnClosed = "conn_closed" {
            /// Round the server engine was on when the connection closed.
            round: usize,
            /// Server-local connection id.
            conn: usize,
            /// Frames successfully received on the connection.
            frames: usize,
            /// Payload bytes successfully received on the connection.
            bytes: usize,
        },
        /// The serving layer rejected a transport frame at decode time.
        FrameRejected = "frame_rejected" {
            /// Round the server engine was on when the frame arrived.
            round: usize,
            /// Server-local connection id the frame arrived on.
            conn: usize,
            /// Why the frame was rejected.
            cause: FrameRejectCause,
        },
        /// A client scheduled a retry after a failed attempt (connection
        /// refused, deadline missed, or an `Overloaded` rejection).
        RetryScheduled = "retry_scheduled" {
            /// Round the client was trying to upload for.
            round: usize,
            /// Client index.
            client: usize,
            /// One-based retry attempt number.
            attempt: usize,
            /// Backoff delay before the retry, in milliseconds.
            delay_ms: usize,
        },
        /// The server shed load: a connection or frame was turned away with a
        /// typed `Overloaded` reply instead of being queued.
        ServerOverloaded = "server_overloaded" {
            /// Round the server engine was on.
            round: usize,
            /// Inflight frames/connections at the moment of shedding.
            inflight: usize,
            /// The configured bound that was hit.
            limit: usize,
        },
    }
}

/// The one JSON object writer of the workspace: telemetry lines and the
/// serve engine's history lines both go through it (hand-rolled; the
/// workspace carries no serialization dependency, consistent with the
/// `netsim` wire codec).
///
/// ```
/// use fedpkd_core::telemetry::JsonObject;
///
/// let line = JsonObject::default()
///     .field("round", &3usize)
///     .field("acc", &[0.5, f64::NAN][..])
///     .field("server", &None::<f64>)
///     .finish();
/// assert_eq!(line, r#"{"round":3,"acc":[0.5,null],"server":null}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    out: String,
}

impl JsonObject {
    /// Appends `"key":value`.
    pub fn field<V: JsonValue + ?Sized>(mut self, key: &str, value: &V) -> Self {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        key.write_json(&mut self.out);
        self.out.push(':');
        value.write_json(&mut self.out);
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

/// A value [`JsonObject`] can write: one impl per field type a telemetry
/// event or a history line carries.
pub trait JsonValue {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl JsonValue for usize {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

/// Shortest round-trip decimal; `null` for NaN and ±∞, which JSON lacks.
impl JsonValue for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl JsonValue for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl JsonValue for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl JsonValue for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// `None` is `null`.
impl<T: JsonValue> JsonValue for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: JsonValue> JsonValue for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: JsonValue> JsonValue for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// The name enums a telemetry event carries are written as their
/// snake_case `name()`.
macro_rules! json_by_name {
    ($($ty:ty),*) => {$(
        impl JsonValue for $ty {
            fn write_json(&self, out: &mut String) {
                self.name().write_json(out);
            }
        }
    )*};
}

json_by_name! { Phase, FrameRejectCause, DropCause, PayloadKind, RejectReason }

/// Receives the typed event stream of a federated run.
///
/// Implementations must be purely observational: never consume randomness
/// shared with the algorithm and never influence results. The contract is
/// enforced by the workspace determinism test — a run's `RunResult` must be
/// bit-identical whatever observer is attached.
pub trait RoundObserver {
    /// Handles one event.
    fn record(&mut self, event: &TelemetryEvent);

    /// Whether the observer wants events at all.
    ///
    /// Algorithms gate the *computation* of diagnostic statistics (filter
    /// quantiles, aggregation disagreement, prototype drift) on this, so a
    /// disabled observer costs nothing beyond the check itself.
    fn enabled(&self) -> bool {
        true
    }
}

/// The zero-cost default observer: drops every event and reports itself
/// disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    fn record(&mut self, _event: &TelemetryEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// A telemetry-sink failure, surfaced as a typed error instead of a bare
/// [`std::io::Error`] so callers can tell *what was lost* — a sink that
/// failed mid-run has silently dropped every event since the failure, and
/// the count is part of the diagnosis.
#[derive(Debug)]
#[non_exhaustive]
pub enum TelemetryError {
    /// An event write failed; `events_dropped` counts the events discarded
    /// *after* the failing one (the failing event itself is also lost).
    Write {
        /// The underlying I/O failure.
        source: std::io::Error,
        /// Events dropped after the failure.
        events_dropped: usize,
    },
    /// The final flush failed; every event line was written but the tail
    /// may not have reached the underlying device.
    Flush {
        /// The underlying I/O failure.
        source: std::io::Error,
    },
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Write {
                source,
                events_dropped,
            } => write!(
                f,
                "telemetry write failed ({source}); {events_dropped} later event(s) dropped"
            ),
            Self::Flush { source } => write!(f, "telemetry flush failed ({source})"),
        }
    }
}

impl std::error::Error for TelemetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Write { source, .. } | Self::Flush { source } => Some(source),
        }
    }
}

/// Streams one JSON object per event to a writer, newline-delimited
/// (JSONL). The first I/O error is captured as a [`TelemetryError`] (see
/// [`JsonlSink::error`]) and subsequent events are counted and dropped;
/// telemetry never aborts a run, but the failure — and how many events it
/// swallowed — is reported instead of vanishing.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    writer: W,
    error: Option<TelemetryError>,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            error: None,
        }
    }

    /// The sink's failure state: the first write error encountered,
    /// carrying the number of events dropped since.
    pub fn error(&self) -> Option<&TelemetryError> {
        self.error.as_ref()
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Write`] if any event failed to write during the
    /// run (with the count of events dropped after it), or
    /// [`TelemetryError::Flush`] if the final flush fails.
    pub fn into_inner(mut self) -> Result<W, TelemetryError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer
            .flush()
            .map_err(|source| TelemetryError::Flush { source })?;
        Ok(self.writer)
    }
}

impl<W: std::io::Write> RoundObserver for JsonlSink<W> {
    fn record(&mut self, event: &TelemetryEvent) {
        if let Some(TelemetryError::Write { events_dropped, .. }) = &mut self.error {
            *events_dropped += 1;
            return;
        }
        let mut line = event.to_json();
        line.push('\n');
        if let Err(source) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(TelemetryError::Write {
                source,
                events_dropped: 0,
            });
        }
    }
}

/// Collects events in memory, for tests and diagnostics.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<TelemetryEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded events, in arrival order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Events of one kind (as named by [`TelemetryEvent::kind`]).
    pub fn of_kind(&self, kind: &str) -> impl Iterator<Item = &TelemetryEvent> {
        let kind = kind.to_string();
        self.events.iter().filter(move |e| e.kind() == kind)
    }
}

impl RoundObserver for EventLog {
    fn record(&mut self, event: &TelemetryEvent) {
        self.events.push(event.clone());
    }
}

/// Emits a [`TelemetryEvent::PhaseTiming`] for a phase started at `started`.
///
/// Timings are always recorded when the observer accepts events; they feed
/// telemetry only and never influence the run.
pub fn emit_phase_timing(
    obs: &mut dyn RoundObserver,
    round: usize,
    phase: Phase,
    started: Instant,
) {
    obs.record(&TelemetryEvent::PhaseTiming {
        round,
        phase,
        seconds: started.elapsed().as_secs_f64(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::RoundStart {
                algorithm: "FedPKD".to_string(),
                round: 0,
                clients: 3,
            },
            TelemetryEvent::ClientDropped {
                round: 0,
                client: 2,
                cause: DropCause::Dropout,
            },
            TelemetryEvent::PayloadRejected {
                round: 0,
                client: 2,
                payload: PayloadKind::Logits,
                reason: RejectReason::NonFinite,
            },
            TelemetryEvent::ClientQuarantined {
                round: 0,
                client: 2,
                consecutive: 3,
            },
            TelemetryEvent::AggregationTrim {
                round: 0,
                logit_trim: 0.2,
                prototype_outliers: 1,
                prototype_contributions: 5,
            },
            TelemetryEvent::ClientTrained {
                round: 0,
                client: 1,
                samples: 120,
                mean_loss: 2.25,
            },
            TelemetryEvent::LogitAggregation {
                round: 0,
                clients: 3,
                variance_weighting: true,
                mean_client_weight: vec![0.5, 0.25, 0.25],
                disagreement: 0.125,
            },
            TelemetryEvent::PrototypeDrift {
                round: 0,
                classes_present: 10,
                mean_l2: 0.5,
                max_l2: 1.5,
            },
            TelemetryEvent::FilterOutcome {
                round: 0,
                kept: 84,
                dropped: 36,
                kept_per_class: vec![42, 42],
                total_per_class: vec![60, 60],
                distance_quantiles: vec![0.0, 0.25, 0.5, 0.75, 1.0],
                dropped_uncovered: 4,
            },
            TelemetryEvent::GeneratorRefined {
                round: 0,
                ensemble_loss: 1.5,
                ce_loss: 2.0,
                proto_loss: 0.125,
                moment_loss: 0.25,
            },
            TelemetryEvent::ServerDistill {
                round: 0,
                kd_loss: 2.5,
                proto_loss: 0.75,
                combined_loss: 2.0,
                batches: 12,
            },
            TelemetryEvent::ClientDistilled {
                round: 0,
                client: 0,
                mean_loss: 1.5,
            },
            TelemetryEvent::PhaseTiming {
                round: 0,
                phase: Phase::Filter,
                seconds: 0.125,
            },
            TelemetryEvent::LedgerDelta {
                round: 0,
                uplink_bytes: 1000,
                downlink_bytes: 500,
                cumulative_bytes: 1500,
            },
            TelemetryEvent::RoundEnd {
                round: 0,
                seconds: 1.0,
                server_accuracy: Some(0.5),
                mean_client_accuracy: 0.25,
                cumulative_bytes: 1500,
                participation_rate: 1.0,
            },
            TelemetryEvent::SnapshotTaken {
                round: 0,
                bytes: 4096,
            },
            TelemetryEvent::SnapshotRestored {
                round: 0,
                bytes: 4096,
            },
            TelemetryEvent::ConnAccepted {
                round: 0,
                conn: 7,
                transport: "uds".to_string(),
            },
            TelemetryEvent::ConnClosed {
                round: 0,
                conn: 7,
                frames: 12,
                bytes: 4096,
            },
            TelemetryEvent::FrameRejected {
                round: 0,
                conn: 7,
                cause: FrameRejectCause::ChecksumMismatch,
            },
            TelemetryEvent::RetryScheduled {
                round: 0,
                client: 3,
                attempt: 2,
                delay_ms: 250,
            },
            TelemetryEvent::ServerOverloaded {
                round: 0,
                inflight: 64,
                limit: 64,
            },
        ]
    }

    /// The exact line of every sample event, one per variant, in
    /// `sample_events()` order. Any byte change here is a format change
    /// for every trace reader, not a refactor.
    #[test]
    fn every_event_serializes_to_its_pinned_line() {
        let golden = [
            r#"{"event":"round_start","round":0,"algorithm":"FedPKD","clients":3}"#,
            r#"{"event":"client_dropped","round":0,"client":2,"cause":"dropout"}"#,
            r#"{"event":"payload_rejected","round":0,"client":2,"payload":"logits","reason":"non_finite"}"#,
            r#"{"event":"client_quarantined","round":0,"client":2,"consecutive":3}"#,
            r#"{"event":"aggregation_trim","round":0,"logit_trim":0.2,"prototype_outliers":1,"prototype_contributions":5}"#,
            r#"{"event":"client_trained","round":0,"client":1,"samples":120,"mean_loss":2.25}"#,
            r#"{"event":"logit_aggregation","round":0,"clients":3,"variance_weighting":true,"mean_client_weight":[0.5,0.25,0.25],"disagreement":0.125}"#,
            r#"{"event":"prototype_drift","round":0,"classes_present":10,"mean_l2":0.5,"max_l2":1.5}"#,
            r#"{"event":"filter_outcome","round":0,"kept":84,"dropped":36,"kept_per_class":[42,42],"total_per_class":[60,60],"distance_quantiles":[0,0.25,0.5,0.75,1],"dropped_uncovered":4}"#,
            r#"{"event":"generator_refined","round":0,"ensemble_loss":1.5,"ce_loss":2,"proto_loss":0.125,"moment_loss":0.25}"#,
            r#"{"event":"server_distill","round":0,"kd_loss":2.5,"proto_loss":0.75,"combined_loss":2,"batches":12}"#,
            r#"{"event":"client_distilled","round":0,"client":0,"mean_loss":1.5}"#,
            r#"{"event":"phase_timing","round":0,"phase":"filter","seconds":0.125}"#,
            r#"{"event":"ledger_delta","round":0,"uplink_bytes":1000,"downlink_bytes":500,"cumulative_bytes":1500}"#,
            r#"{"event":"round_end","round":0,"seconds":1,"server_accuracy":0.5,"mean_client_accuracy":0.25,"cumulative_bytes":1500,"participation_rate":1}"#,
            r#"{"event":"snapshot_taken","round":0,"bytes":4096}"#,
            r#"{"event":"snapshot_restored","round":0,"bytes":4096}"#,
            r#"{"event":"conn_accepted","round":0,"conn":7,"transport":"uds"}"#,
            r#"{"event":"conn_closed","round":0,"conn":7,"frames":12,"bytes":4096}"#,
            r#"{"event":"frame_rejected","round":0,"conn":7,"cause":"checksum_mismatch"}"#,
            r#"{"event":"retry_scheduled","round":0,"client":3,"attempt":2,"delay_ms":250}"#,
            r#"{"event":"server_overloaded","round":0,"inflight":64,"limit":64}"#,
        ];
        let events = sample_events();
        assert_eq!(events.len(), golden.len());
        for (event, line) in events.iter().zip(golden) {
            assert_eq!(event.to_json(), line);
        }

        // Escapes, non-finite floats, `None` and an empty array.
        let odd = [
            (
                TelemetryEvent::RoundStart {
                    algorithm: "q\"b\\n\nr\tc\u{1}".to_string(),
                    round: 12,
                    clients: 0,
                },
                r#"{"event":"round_start","round":12,"algorithm":"q\"b\\n\nr\tc\u0001","clients":0}"#,
            ),
            (
                TelemetryEvent::RoundEnd {
                    round: 1,
                    seconds: f64::NAN,
                    server_accuracy: None,
                    mean_client_accuracy: -0.0,
                    cumulative_bytes: 0,
                    participation_rate: f64::NEG_INFINITY,
                },
                r#"{"event":"round_end","round":1,"seconds":null,"server_accuracy":null,"mean_client_accuracy":-0,"cumulative_bytes":0,"participation_rate":null}"#,
            ),
            (
                TelemetryEvent::FilterOutcome {
                    round: 2,
                    kept: 0,
                    dropped: 0,
                    kept_per_class: Vec::new(),
                    total_per_class: vec![3],
                    distance_quantiles: vec![f64::INFINITY, 1e-7, 1e21],
                    dropped_uncovered: 0,
                },
                r#"{"event":"filter_outcome","round":2,"kept":0,"dropped":0,"kept_per_class":[],"total_per_class":[3],"distance_quantiles":[null,0.0000001,1000000000000000000000],"dropped_uncovered":0}"#,
            ),
            (
                TelemetryEvent::LogitAggregation {
                    round: 3,
                    clients: 2,
                    variance_weighting: false,
                    mean_client_weight: vec![1.0 / 3.0, 2.0 / 3.0],
                    disagreement: 0.1,
                },
                r#"{"event":"logit_aggregation","round":3,"clients":2,"variance_weighting":false,"mean_client_weight":[0.3333333333333333,0.6666666666666666],"disagreement":0.1}"#,
            ),
        ];
        for (event, line) in odd {
            assert_eq!(event.to_json(), line);
        }
    }

    #[test]
    fn snapshot_events_serialize_their_size() {
        let taken = TelemetryEvent::SnapshotTaken {
            round: 5,
            bytes: 1234,
        };
        let json = taken.to_json();
        assert!(json.contains("\"event\":\"snapshot_taken\""), "{json}");
        assert!(json.contains("\"round\":5"), "{json}");
        assert!(json.contains("\"bytes\":1234"), "{json}");
        let restored = TelemetryEvent::SnapshotRestored {
            round: 5,
            bytes: 1234,
        };
        assert!(
            restored
                .to_json()
                .contains("\"event\":\"snapshot_restored\""),
            "{}",
            restored.to_json()
        );
    }

    #[test]
    fn every_event_serializes_with_its_kind_and_round() {
        for event in sample_events() {
            let json = event.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(
                json.contains(&format!("\"event\":\"{}\"", event.kind())),
                "{json}"
            );
            assert!(json.contains("\"round\":0"), "{json}");
        }
    }

    #[test]
    fn json_escapes_strings_and_maps_non_finite_to_null() {
        let event = TelemetryEvent::RoundStart {
            algorithm: "weird\"name\\with\ncontrol".to_string(),
            round: 3,
            clients: 1,
        };
        let json = event.to_json();
        assert!(json.contains("weird\\\"name\\\\with\\ncontrol"), "{json}");
        let event = TelemetryEvent::PrototypeDrift {
            round: 0,
            classes_present: 0,
            mean_l2: f64::NAN,
            max_l2: f64::INFINITY,
        };
        let json = event.to_json();
        assert!(json.contains("\"mean_l2\":null"), "{json}");
        assert!(json.contains("\"max_l2\":null"), "{json}");
    }

    #[test]
    fn none_accuracy_serializes_as_null() {
        let event = TelemetryEvent::RoundEnd {
            round: 2,
            seconds: 0.5,
            server_accuracy: None,
            mean_client_accuracy: 0.5,
            cumulative_bytes: 10,
            participation_rate: 0.75,
        };
        let json = event.to_json();
        assert!(json.contains("\"server_accuracy\":null"));
        assert!(json.contains("\"participation_rate\":0.75"));
    }

    #[test]
    fn client_dropped_serializes_its_cause() {
        let event = TelemetryEvent::ClientDropped {
            round: 5,
            client: 3,
            cause: DropCause::Deadline,
        };
        let json = event.to_json();
        assert!(json.contains("\"event\":\"client_dropped\""), "{json}");
        assert!(json.contains("\"client\":3"), "{json}");
        assert!(json.contains("\"cause\":\"deadline\""), "{json}");
    }

    #[test]
    fn transport_events_serialize_their_fields() {
        let rejected = TelemetryEvent::FrameRejected {
            round: 9,
            conn: 4,
            cause: FrameRejectCause::Oversized,
        };
        let json = rejected.to_json();
        assert!(json.contains("\"event\":\"frame_rejected\""), "{json}");
        assert!(json.contains("\"conn\":4"), "{json}");
        assert!(json.contains("\"cause\":\"oversized\""), "{json}");

        let retry = TelemetryEvent::RetryScheduled {
            round: 9,
            client: 2,
            attempt: 3,
            delay_ms: 800,
        };
        let json = retry.to_json();
        assert!(json.contains("\"event\":\"retry_scheduled\""), "{json}");
        assert!(json.contains("\"attempt\":3"), "{json}");
        assert!(json.contains("\"delay_ms\":800"), "{json}");

        let shed = TelemetryEvent::ServerOverloaded {
            round: 9,
            inflight: 32,
            limit: 32,
        };
        let json = shed.to_json();
        assert!(json.contains("\"event\":\"server_overloaded\""), "{json}");
        assert!(json.contains("\"inflight\":32"), "{json}");
        assert!(json.contains("\"limit\":32"), "{json}");

        for cause in [
            FrameRejectCause::Truncated,
            FrameRejectCause::ChecksumMismatch,
            FrameRejectCause::Oversized,
            FrameRejectCause::UnknownKind,
            FrameRejectCause::Malformed,
            FrameRejectCause::Inadmissible,
        ] {
            assert!(!cause.name().is_empty());
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        for event in sample_events() {
            sink.record(&event);
        }
        assert!(sink.error().is_none());
        let buf = sink.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), sample_events().len());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    /// Fails every write after the first `ok_writes`.
    #[derive(Debug)]
    struct FlakyWriter {
        ok_writes: usize,
        seen: usize,
    }

    impl std::io::Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.seen += 1;
            if self.seen > self.ok_writes {
                Err(std::io::Error::other("disk full"))
            } else {
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_surfaces_write_failures_with_drop_count() {
        let mut sink = JsonlSink::new(FlakyWriter {
            ok_writes: 2,
            seen: 0,
        });
        let events = sample_events();
        assert!(events.len() >= 5, "need enough events to drop some");
        for event in &events {
            sink.record(event);
        }
        let dropped_after_failure = events.len() - 3;
        match sink.error() {
            Some(TelemetryError::Write {
                source,
                events_dropped,
            }) => {
                assert_eq!(source.to_string(), "disk full");
                assert_eq!(*events_dropped, dropped_after_failure);
            }
            other => panic!("expected a write error, got {other:?}"),
        }
        let err = sink.into_inner().unwrap_err();
        assert!(err.to_string().contains("telemetry write failed"));
        assert!(err.to_string().contains(&dropped_after_failure.to_string()));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn jsonl_sink_surfaces_flush_failures() {
        struct NoFlush;
        impl std::io::Write for NoFlush {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("pipe gone"))
            }
        }
        let mut sink = JsonlSink::new(NoFlush);
        sink.record(&sample_events()[0]);
        assert!(sink.error().is_none());
        match sink.into_inner() {
            Err(TelemetryError::Flush { source }) => {
                assert_eq!(source.to_string(), "pipe gone")
            }
            other => panic!("expected a flush error, got {:?}", other.err()),
        }
    }

    #[test]
    fn null_observer_is_disabled() {
        let mut obs = NullObserver;
        assert!(!obs.enabled());
        obs.record(&sample_events()[0]);
    }

    #[test]
    fn event_log_collects_in_order() {
        let mut log = EventLog::new();
        for event in sample_events() {
            log.record(&event);
        }
        assert_eq!(log.events().len(), sample_events().len());
        assert_eq!(log.of_kind("round_end").count(), 1);
        assert_eq!(log.events()[0].kind(), "round_start");
    }

    #[test]
    fn phase_timing_helper_records_nonnegative_seconds() {
        let mut log = EventLog::new();
        let started = Instant::now();
        emit_phase_timing(&mut log, 4, Phase::Aggregation, started);
        match &log.events()[0] {
            TelemetryEvent::PhaseTiming {
                round,
                phase,
                seconds,
            } => {
                assert_eq!(*round, 4);
                assert_eq!(*phase, Phase::Aggregation);
                assert!(*seconds >= 0.0);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
