//! Benchmark-side tracing: a span recorder (`run > round > phase`,
//! `run > probe.*`) and the one [`RoundObserver`] both run kinds attach.
//!
//! Spans are recorded from outside the product, around the calls into each
//! layer and from the existing telemetry events; they stay in memory and
//! are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use fedpkd_core::telemetry::{Phase, RoundObserver, TelemetryEvent};

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer-qualified name (`round`, `phase.server_distill`, `probe.…`).
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset; equals `start_ns` until the span is closed.
    pub end_ns: u64,
}

/// An in-memory span tree.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.record(name, Instant::now(), None);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span — spans nest.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    /// Records an already finished interval as a child of the innermost
    /// open span (how `PhaseTiming` events, which arrive at phase end,
    /// become spans).
    pub fn closed(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        self.record(name, start, Some(end))
    }

    fn record(&mut self, name: &str, start: Instant, end: Option<Instant>) -> usize {
        let id = self.spans.len();
        let start_ns = self.offset(start);
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: end.map_or(start_ns, |e| self.offset(e).max(start_ns)),
        });
        id
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Every span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of that interval its direct
    /// children cover (overlapping children are counted once).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut frontier = span.start_ns;
        for (start, end) in children {
            let start = start.max(frontier);
            if end > start {
                covered += end - start;
                frontier = end;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// Writes one JSON object per span: id, parent, name, start, end and
    /// self time, all in nanoseconds.
    ///
    /// # Errors
    ///
    /// Any I/O failure, including the final flush.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(s.id)
            )?;
        }
        out.flush()
    }
}

/// The phases `PhaseTiming` reports, in the order metrics list them.
pub const PHASES: [Phase; 6] = [
    Phase::ClientTraining,
    Phase::Aggregation,
    Phase::Filter,
    Phase::ServerDistill,
    Phase::ClientDistill,
    Phase::Evaluation,
];

fn phase_index(phase: Phase) -> usize {
    PHASES
        .iter()
        .position(|&p| p == phase)
        .expect("PHASES lists every phase the product reports")
}

/// What the observer saw of one round.
#[derive(Debug, Clone)]
pub struct RoundSample {
    /// When `RoundStart` arrived.
    pub start: Instant,
    /// When `RoundEnd` arrived.
    pub end: Instant,
    /// Server accuracy the round reported.
    pub server_accuracy: Option<f64>,
    /// Mean client accuracy the round reported.
    pub mean_client_accuracy: f64,
    /// Seconds per phase, indexed like [`PHASES`] (summed when a phase
    /// reports more than once in a round).
    pub phase_seconds: [f64; 6],
    /// Mini-batches the round's `ServerDistill` event reported.
    pub distill_batches: usize,
    /// `(kept, dropped)` of the round's `FilterOutcome`, which FedPKD only
    /// computes for an enabled observer.
    pub filter: Option<(usize, usize)>,
}

impl RoundSample {
    /// `RoundStart` → `RoundEnd`, in seconds.
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Round time no `PhaseTiming` event covers.
    pub fn unattributed_seconds(&self) -> f64 {
        (self.seconds() - self.phase_seconds.iter().sum::<f64>()).max(0.0)
    }
}

/// The benchmark's observer. Timed runs attach it without a recorder: it
/// reports `enabled() == false`, so the product skips every diagnostic
/// computation and the observer only timestamps round framing. Traced runs
/// hand it a [`SpanRecorder`]: it reports `enabled() == true` and turns
/// the same events into `round > phase.*` spans.
pub struct RoundClock<'a> {
    spans: Option<&'a mut SpanRecorder>,
    open_round: Option<usize>,
    /// Completed rounds, in commit order.
    pub rounds: Vec<RoundSample>,
    /// `PayloadRejected` + `FrameRejected` events seen.
    pub rejected: usize,
}

impl<'a> RoundClock<'a> {
    /// The timed-run observer (`enabled() == false`).
    pub fn timed() -> Self {
        Self {
            spans: None,
            open_round: None,
            rounds: Vec::new(),
            rejected: 0,
        }
    }

    /// The traced-run observer (`enabled() == true`), recording into `spans`.
    pub fn traced(spans: &'a mut SpanRecorder) -> Self {
        Self {
            spans: Some(spans),
            ..Self::timed()
        }
    }
}

impl RoundObserver for RoundClock<'_> {
    fn record(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::RoundStart { .. } => {
                let now = Instant::now();
                self.open_round = self.spans.as_mut().map(|s| s.open("round"));
                self.rounds.push(RoundSample {
                    start: now,
                    end: now,
                    server_accuracy: None,
                    mean_client_accuracy: 0.0,
                    phase_seconds: [0.0; 6],
                    distill_batches: 0,
                    filter: None,
                });
            }
            TelemetryEvent::PhaseTiming { phase, seconds, .. } => {
                let now = Instant::now();
                if let Some(sample) = self.rounds.last_mut() {
                    sample.phase_seconds[phase_index(*phase)] += seconds;
                }
                if let Some(spans) = self.spans.as_mut() {
                    let start = now
                        .checked_sub(std::time::Duration::from_secs_f64(seconds.max(0.0)))
                        .unwrap_or(now);
                    spans.closed(&format!("phase.{}", phase.name()), start, now);
                }
            }
            TelemetryEvent::RoundEnd {
                server_accuracy,
                mean_client_accuracy,
                ..
            } => {
                if let Some(sample) = self.rounds.last_mut() {
                    sample.end = Instant::now();
                    sample.server_accuracy = *server_accuracy;
                    sample.mean_client_accuracy = *mean_client_accuracy;
                }
                if let (Some(spans), Some(id)) = (self.spans.as_mut(), self.open_round.take()) {
                    spans.close(id);
                }
            }
            TelemetryEvent::ServerDistill { batches, .. } => {
                if let Some(sample) = self.rounds.last_mut() {
                    sample.distill_batches += batches;
                }
            }
            TelemetryEvent::FilterOutcome { kept, dropped, .. } => {
                if let Some(sample) = self.rounds.last_mut() {
                    sample.filter = Some((*kept, *dropped));
                }
            }
            TelemetryEvent::PayloadRejected { .. } | TelemetryEvent::FrameRejected { .. } => {
                self.rejected += 1;
            }
            _ => {}
        }
    }

    fn enabled(&self) -> bool {
        self.spans.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(rec: &SpanRecorder, ns: u64) -> Instant {
        rec.origin + std::time::Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = SpanRecorder::new();
        let run = rec.open("run");
        let (a, b, c) = (at(&rec, 100), at(&rec, 400), at(&rec, 300));
        rec.closed("x", a, b);
        // Overlaps `x` on [300, 400]: only [400, 700] is new cover.
        let y = rec.closed("y", c, at(&rec, 700));
        rec.spans[run].start_ns = 0;
        rec.open.pop();
        rec.spans[run].end_ns = 1_000;
        assert_eq!(rec.self_time_ns(run), 1_000 - 600);
        assert_eq!(rec.self_time_ns(y), 400);
        assert_eq!(rec.spans()[y].parent, Some(run));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut rec = SpanRecorder::new();
        let round = rec.open("round");
        // A phase whose reported seconds reach back before the round began.
        rec.closed("phase", at(&rec, 0), at(&rec, 500));
        rec.open.pop();
        rec.spans[round].start_ns = 200;
        rec.spans[round].end_ns = 800;
        assert_eq!(rec.self_time_ns(round), 300);
    }

    #[test]
    fn scopes_nest_and_close_in_order() {
        let mut rec = SpanRecorder::new();
        rec.scope("run", |rec| {
            rec.scope("probe.a", |_| ());
            rec.scope("probe.b", |_| ());
        });
        let names: Vec<_> = rec
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [("run", None), ("probe.a", Some(0)), ("probe.b", Some(0))]
        );
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn clock_is_disabled_without_a_recorder() {
        assert!(!RoundClock::timed().enabled());
        let mut rec = SpanRecorder::new();
        assert!(RoundClock::traced(&mut rec).enabled());
    }
}
