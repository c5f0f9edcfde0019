//! Server-side payload admission control.
//!
//! Clients that *show up* are not automatically trustworthy: a single
//! NaN-laden logit matrix or wrong-width prototype used to panic the Eq. 6–8
//! aggregations and poison everything downstream of them (the Eq. 10 filter,
//! the Eq. 12/16 regularizers). This module is the server's first line of
//! defense — every upload is validated *before* it reaches aggregation, and
//! failures become per-client rejections with a typed [`RejectReason`]
//! instead of process-wide panics.
//!
//! Two layers compose:
//!
//! - [`AdmissionPolicy`] — stateless per-payload checks: finite values,
//!   expected shapes, plausible magnitudes.
//! - [`QuarantineTracker`] — cross-round state: a client whose uploads are
//!   flagged in `K` consecutive rounds is quarantined for the rest of the
//!   run and its payloads are dropped without further inspection.
//!
//! Rejections and quarantines surface as
//! [`TelemetryEvent::PayloadRejected`](crate::telemetry::TelemetryEvent::PayloadRejected)
//! and
//! [`TelemetryEvent::ClientQuarantined`](crate::telemetry::TelemetryEvent::ClientQuarantined)
//! on the round's observer. Admission control never alters accepted
//! payloads; robust *aggregation* (see [`crate::robust`]) is the second,
//! statistical line of defense against adversaries whose payloads are
//! well-formed but wrong.

use crate::fedpkd::prototypes::Prototype;
use fedpkd_tensor::Tensor;

/// Per-entry magnitude cap for logit uploads.
pub const MAX_ABS_LOGIT: f32 = 1e4;

/// L2-norm cap for each prototype vector.
pub const MAX_PROTOTYPE_NORM: f32 = 1e4;

/// A client is quarantined after this many *consecutive* rounds with a
/// rejected upload.
pub const QUARANTINE_AFTER: usize = 3;

/// Which upload failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PayloadKind {
    /// Public-set logits (Eq. 5 knowledge upload).
    Logits,
    /// Per-class prototypes (Eq. 5 knowledge upload).
    Prototypes,
    /// A flat model-parameter vector (FedAvg/FedProx-style upload).
    ModelUpdate,
}

impl PayloadKind {
    /// The snake_case name used in serialized telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Self::Logits => "logits",
            Self::Prototypes => "prototypes",
            Self::ModelUpdate => "model_update",
        }
    }
}

/// Why a message was refused: a client's upload, in process or staged
/// from a socket, or a server message a client session cannot read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RejectReason {
    /// The payload contains NaN or ±Inf.
    NonFinite,
    /// The payload's dimensions disagree with what the receiver expects
    /// (logit matrix shape, prototype width or class count, update length,
    /// a zero sample count, a class index or row id out of range).
    WrongShape,
    /// A magnitude cap was exceeded (per-entry for logits, L2 per vector
    /// for prototypes).
    NormExceeded,
    /// The client is quarantined; its uploads are dropped unseen.
    Quarantined,
    /// A message is not of the kind expected in its place.
    UnexpectedPayload,
    /// The client index is outside the fleet.
    UnknownClient {
        /// The offending client index.
        client: usize,
        /// The fleet size it must be below.
        fleet: usize,
    },
    /// Structurally invalid: class entries out of order or duplicated.
    Malformed,
}

impl RejectReason {
    /// The snake_case name used in serialized telemetry and wire
    /// rejections.
    pub fn name(self) -> &'static str {
        match self {
            Self::NonFinite => "non_finite",
            Self::WrongShape => "wrong_shape",
            Self::NormExceeded => "norm_exceeded",
            Self::Quarantined => "quarantined",
            Self::UnexpectedPayload => "unexpected_payload",
            Self::UnknownClient { .. } => "unknown_client",
            Self::Malformed => "malformed",
        }
    }
}

/// Stateless validation rules applied to every client upload.
///
/// The caps ([`MAX_ABS_LOGIT`], [`MAX_PROTOTYPE_NORM`]) are deliberately
/// loose — generous magnitudes that no honestly trained model approaches —
/// so the policy rejects only payloads that are malformed or wildly
/// implausible, never merely low-quality ones. Statistical outliers are the
/// business of robust aggregation, not admission. There is no off switch:
/// every upload of every algorithm passes these checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionPolicy;

impl AdmissionPolicy {
    /// Checks a logit upload against the expected `rows × cols` shape.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] on shape mismatch, non-finite entries,
    /// or entries beyond [`MAX_ABS_LOGIT`].
    pub fn check_logits(
        &self,
        logits: &Tensor,
        rows: usize,
        cols: usize,
    ) -> Result<(), RejectReason> {
        if logits.shape() != [rows, cols] {
            return Err(RejectReason::WrongShape);
        }
        if !logits.all_finite() {
            return Err(RejectReason::NonFinite);
        }
        if logits.as_slice().iter().any(|v| v.abs() > MAX_ABS_LOGIT) {
            return Err(RejectReason::NormExceeded);
        }
        Ok(())
    }

    /// Checks a prototype upload: `num_classes` slots, each present vector
    /// of width `dim`, finite, within the norm cap, with a sample count in
    /// `1..=u32::MAX` — the wire's width, which a restored count must meet
    /// too, so that Eq. 8's totals cannot overflow.
    ///
    /// # Errors
    ///
    /// Returns the first [`RejectReason`] encountered.
    pub fn check_prototypes(
        &self,
        prototypes: &[Option<Prototype>],
        num_classes: usize,
        dim: usize,
    ) -> Result<(), RejectReason> {
        if prototypes.len() != num_classes {
            return Err(RejectReason::WrongShape);
        }
        for p in prototypes.iter().flatten() {
            if p.vector.shape() != [dim] || !(1..=u32::MAX as usize).contains(&p.count) {
                return Err(RejectReason::WrongShape);
            }
            if !p.vector.all_finite() {
                return Err(RejectReason::NonFinite);
            }
            if f64::from(p.vector.l2_norm()) > f64::from(MAX_PROTOTYPE_NORM) {
                return Err(RejectReason::NormExceeded);
            }
        }
        Ok(())
    }

    /// Checks a flat parameter upload against the expected length.
    /// Magnitude is unconstrained here, and nothing downstream bounds it
    /// either: no baseline clips or norm-bounds a large-but-finite update,
    /// so the model-averaging baselines average one in as it arrives.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] on length mismatch or non-finite
    /// entries.
    pub fn check_update(&self, params: &[f32], expected_len: usize) -> Result<(), RejectReason> {
        if params.len() != expected_len {
            return Err(RejectReason::WrongShape);
        }
        if params.iter().any(|v| !v.is_finite()) {
            return Err(RejectReason::NonFinite);
        }
        Ok(())
    }
}

/// Cross-round quarantine state: clients whose uploads are rejected in
/// [`QUARANTINE_AFTER`] consecutive rounds are permanently excluded from
/// admission (until the tracker is rebuilt).
///
/// A round with an accepted upload resets the client's streak; rounds the
/// client does not participate in leave the streak untouched, so flaky
/// connectivity cannot launder a poisoner's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineTracker {
    consecutive: Vec<usize>,
    quarantined: Vec<bool>,
}

impl QuarantineTracker {
    /// A tracker over `num_clients` clients.
    pub fn new(num_clients: usize) -> Self {
        Self {
            consecutive: vec![0; num_clients],
            quarantined: vec![false; num_clients],
        }
    }

    /// Whether `client` is quarantined.
    pub fn is_quarantined(&self, client: usize) -> bool {
        self.quarantined.get(client).copied().unwrap_or(false)
    }

    /// Records that `client`'s upload was rejected this round. Returns
    /// `true` exactly when this rejection tips the client into quarantine.
    pub fn record_rejection(&mut self, client: usize) -> bool {
        let Some(streak) = self.consecutive.get_mut(client) else {
            return false;
        };
        *streak += 1;
        if *streak >= QUARANTINE_AFTER && !self.quarantined[client] {
            self.quarantined[client] = true;
            return true;
        }
        false
    }

    /// Records that `client`'s upload passed admission, resetting its
    /// streak.
    pub fn record_accepted(&mut self, client: usize) {
        if let Some(streak) = self.consecutive.get_mut(client) {
            *streak = 0;
        }
    }

    /// The client's current consecutive-rejection streak.
    pub fn streak(&self, client: usize) -> usize {
        self.consecutive.get(client).copied().unwrap_or(0)
    }

    /// Per-client consecutive-rejection streaks, for checkpointing.
    pub fn streaks(&self) -> &[usize] {
        &self.consecutive
    }

    /// Per-client quarantine flags, for checkpointing.
    pub fn quarantined_flags(&self) -> &[bool] {
        &self.quarantined
    }

    /// Restores streaks and flags captured via
    /// [`streaks`](Self::streaks)/[`quarantined_flags`](Self::quarantined_flags).
    ///
    /// # Panics
    ///
    /// Panics if either vector's length differs from the tracker's client
    /// count — callers deserializing untrusted bytes must length-check
    /// first.
    pub fn restore_parts(&mut self, consecutive: Vec<usize>, quarantined: Vec<bool>) {
        // Unreachable from snapshot bytes: `read_quarantine` checks their count first.
        assert_eq!(
            consecutive.len(),
            self.consecutive.len(),
            "streak count must match client count"
        );
        // Unreachable from snapshot bytes: the flags are read to that same count.
        assert_eq!(
            quarantined.len(),
            self.quarantined.len(),
            "flag count must match client count"
        );
        self.consecutive = consecutive;
        self.quarantined = quarantined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    fn proto(count: usize, values: &[f32]) -> Prototype {
        Prototype {
            count,
            vector: t(values, &[values.len()]),
        }
    }

    #[test]
    fn clean_logits_pass() {
        assert_eq!(
            AdmissionPolicy.check_logits(&t(&[1.0, -2.0], &[1, 2]), 1, 2),
            Ok(())
        );
    }

    #[test]
    fn logits_checks_catch_each_failure() {
        let p = AdmissionPolicy;
        assert_eq!(
            p.check_logits(&t(&[1.0, 2.0, 3.0], &[1, 3]), 1, 2),
            Err(RejectReason::WrongShape)
        );
        assert_eq!(
            p.check_logits(&t(&[1.0, f32::NAN], &[1, 2]), 1, 2),
            Err(RejectReason::NonFinite)
        );
        assert_eq!(
            p.check_logits(&t(&[1.0, 1e6], &[1, 2]), 1, 2),
            Err(RejectReason::NormExceeded)
        );
    }

    #[test]
    fn prototype_checks_catch_each_failure() {
        let p = AdmissionPolicy;
        let ok = vec![Some(proto(3, &[1.0, 2.0])), None];
        assert_eq!(p.check_prototypes(&ok, 2, 2), Ok(()));
        // Wrong class count.
        assert_eq!(p.check_prototypes(&ok, 3, 2), Err(RejectReason::WrongShape));
        // Wrong width.
        assert_eq!(p.check_prototypes(&ok, 2, 4), Err(RejectReason::WrongShape));
        // Zero count, and one past the wire's `u32`.
        for count in [0, u32::MAX as usize + 1, usize::MAX] {
            let bad = vec![Some(proto(count, &[1.0, 2.0])), None];
            assert_eq!(
                p.check_prototypes(&bad, 2, 2),
                Err(RejectReason::WrongShape)
            );
        }
        let widest = vec![Some(proto(u32::MAX as usize, &[1.0, 2.0])), None];
        assert_eq!(p.check_prototypes(&widest, 2, 2), Ok(()));
        // Non-finite.
        let nan = vec![Some(proto(3, &[f32::NAN, 2.0])), None];
        assert_eq!(p.check_prototypes(&nan, 2, 2), Err(RejectReason::NonFinite));
        // Norm cap.
        let huge = vec![Some(proto(3, &[1e5, 0.0])), None];
        assert_eq!(
            p.check_prototypes(&huge, 2, 2),
            Err(RejectReason::NormExceeded)
        );
    }

    #[test]
    fn update_checks_shape_and_finiteness() {
        let p = AdmissionPolicy;
        assert_eq!(p.check_update(&[1.0, 2.0], 2), Ok(()));
        assert_eq!(p.check_update(&[1.0], 2), Err(RejectReason::WrongShape));
        assert_eq!(
            p.check_update(&[1.0, f32::NEG_INFINITY], 2),
            Err(RejectReason::NonFinite)
        );
        // Large-but-finite updates are admitted, and no later stage bounds
        // them.
        assert_eq!(p.check_update(&[1e30, 0.0], 2), Ok(()));
    }

    #[test]
    fn quarantine_trips_after_consecutive_rejections() {
        let mut q = QuarantineTracker::new(2);
        for _ in 1..QUARANTINE_AFTER {
            assert!(!q.record_rejection(0));
        }
        assert!(
            q.record_rejection(0),
            "the last consecutive rejection trips"
        );
        assert!(q.is_quarantined(0));
        assert!(!q.record_rejection(0), "tripping is reported once");
        assert!(!q.is_quarantined(1));
    }

    #[test]
    fn acceptance_resets_the_streak() {
        let mut q = QuarantineTracker::new(1);
        for _ in 1..QUARANTINE_AFTER {
            q.record_rejection(0);
        }
        q.record_accepted(0);
        assert_eq!(q.streak(0), 0);
        for _ in 1..QUARANTINE_AFTER {
            assert!(!q.record_rejection(0));
        }
        assert!(!q.is_quarantined(0));
        assert!(q.record_rejection(0));
    }

    #[test]
    fn out_of_range_clients_are_harmless() {
        let mut q = QuarantineTracker::new(1);
        assert!(!q.record_rejection(5));
        q.record_accepted(5);
        assert!(!q.is_quarantined(5));
        assert_eq!(q.streak(5), 0);
    }

    #[test]
    fn names_are_snake_case() {
        assert_eq!(PayloadKind::Logits.name(), "logits");
        assert_eq!(PayloadKind::Prototypes.name(), "prototypes");
        assert_eq!(PayloadKind::ModelUpdate.name(), "model_update");
        assert_eq!(RejectReason::NonFinite.name(), "non_finite");
        assert_eq!(RejectReason::WrongShape.name(), "wrong_shape");
        assert_eq!(RejectReason::NormExceeded.name(), "norm_exceeded");
        assert_eq!(RejectReason::Quarantined.name(), "quarantined");
        assert_eq!(RejectReason::UnexpectedPayload.name(), "unexpected_payload");
        let unknown = RejectReason::UnknownClient {
            client: 9,
            fleet: 8,
        };
        assert_eq!(unknown.name(), "unknown_client");
        assert_eq!(RejectReason::Malformed.name(), "malformed");
    }
}
