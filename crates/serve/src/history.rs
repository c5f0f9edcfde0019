//! The server's crash-safe round history: a JSONL file with one line per
//! committed round.
//!
//! The history file is the chaos oracle's ground truth. Three properties
//! make it usable across kill-9 restarts:
//!
//! - **No wall-clock fields.** A line is a pure function of the round's
//!   [`RoundMetrics`], so the line a re-driven round appends after a
//!   restart is byte-identical to the one the killed process wrote.
//! - **Append + repair.** Lines are appended and fsynced per round. A
//!   process killed mid-write leaves at most one unterminated trailing
//!   line, which [`repair_history_file`] drops on restart.
//! - **Canonicalization as an oracle.** A resumed run re-commits rounds
//!   between the last snapshot and the kill point, appending duplicate
//!   lines for them. [`canonical_rounds`] deduplicates by round index and
//!   *asserts the duplicates are byte-identical* — a re-driven round that
//!   produced different metrics is a determinism bug, not noise to paper
//!   over.

use std::io::Write;
use std::path::Path;

use fedpkd_core::runtime::RoundMetrics;
use fedpkd_core::telemetry::JsonObject;
use fedpkd_netsim::{CommLedger, Fnv1a};

/// Why a history file could not be interpreted.
#[derive(Debug)]
#[non_exhaustive]
pub enum HistoryError {
    /// Two lines claim the same round with different bytes — the
    /// determinism the serving layer promises is broken.
    DivergentRound {
        /// The round with conflicting lines.
        round: u64,
    },
    /// A line is not of the expected shape.
    Malformed {
        /// Zero-based line number.
        line: usize,
    },
    /// An I/O failure touching the file.
    Io(std::io::Error),
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DivergentRound { round } => {
                write!(f, "history lines for round {round} disagree byte-for-byte")
            }
            Self::Malformed { line } => write!(f, "history line {line} is malformed"),
            Self::Io(e) => write!(f, "history i/o error: {e}"),
        }
    }
}

impl std::error::Error for HistoryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HistoryError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Renders one round's metrics as the history JSONL line (no trailing
/// newline). Deterministic: shortest-round-trip float formatting, `null`
/// for absent or non-finite values, and no timestamps.
pub fn metrics_line(m: &RoundMetrics) -> String {
    JsonObject::default()
        .field("round", &m.round)
        .field("server_accuracy", &m.server_accuracy)
        .field("client_accuracies", &m.client_accuracies)
        .field("cumulative_bytes", &m.cumulative_bytes)
        .field("participation_rate", &m.participation_rate)
        .finish()
}

/// A fingerprint of every transfer the ledger recorded, in recording
/// order — FNV-1a64 over `(round, client, direction, bytes)` tuples. Two
/// runs with equal fingerprints moved the same bytes for the same clients
/// in the same rounds, in the same order.
pub fn ledger_fingerprint(ledger: &CommLedger) -> u64 {
    let mut fnv = Fnv1a::new();
    for t in ledger.transfers() {
        fnv.update(&(t.round as u64).to_le_bytes());
        fnv.update(&(t.client as u64).to_le_bytes());
        fnv.update(&[u8::from(t.direction == fedpkd_netsim::Direction::Uplink)]);
        fnv.update(&(t.bytes as u64).to_le_bytes());
    }
    fnv.finish()
}

/// The terminal line a completed run appends after its final round.
pub fn run_complete_line(rounds: usize, total_bytes: usize, ledger_fnv: u64) -> String {
    JsonObject::default()
        .field("event", "run_complete")
        .field("rounds", &rounds)
        .field("total_bytes", &total_bytes)
        .field("ledger_fnv", &format!("{ledger_fnv:016x}"))
        .finish()
}

/// The round index of a history line, or `None` for non-round lines
/// (`run_complete`) and anything unparseable.
fn line_round(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"round\":")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// Deduplicates a history file's round lines, returning them in round
/// order. Duplicate lines for a round (a resumed run re-committing rounds
/// past its snapshot) are verified byte-identical; non-round lines are
/// dropped.
///
/// # Errors
///
/// [`HistoryError::DivergentRound`] when duplicates disagree — the
/// serving layer's determinism contract is broken and the history cannot
/// be trusted.
pub fn canonical_rounds(text: &str) -> Result<Vec<String>, HistoryError> {
    let mut by_round: std::collections::BTreeMap<u64, String> = std::collections::BTreeMap::new();
    for line in text.lines() {
        let Some(round) = line_round(line) else {
            continue;
        };
        match by_round.entry(round) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(line.to_string());
            }
            std::collections::btree_map::Entry::Occupied(o) => {
                if o.get() != line {
                    return Err(HistoryError::DivergentRound { round });
                }
            }
        }
    }
    Ok(by_round.into_values().collect())
}

/// Drops an unterminated trailing line left by a process killed mid-write
/// (every complete line ends in `\n`). Rewrites via a synced temp file
/// and an atomic rename; a missing file is fine (fresh start). Returns
/// whether a partial line was dropped.
///
/// # Errors
///
/// Any I/O failure.
pub fn repair_history_file(path: &Path) -> Result<bool, HistoryError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e.into()),
    };
    let keep = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(last_newline) => last_newline + 1,
        None => 0,
    };
    if keep == bytes.len() {
        return Ok(false);
    }
    // Synced before the rename, as every append and the snapshot are: a
    // crash right after it must not leave a renamed but unwritten file.
    let tmp = path.with_extension("repair-tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&bytes[..keep])?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(round: usize) -> RoundMetrics {
        RoundMetrics {
            round,
            server_accuracy: Some(0.5 + round as f64 / 100.0),
            client_accuracies: vec![0.25, 0.75],
            cumulative_bytes: 1000 * (round + 1),
            participation_rate: 1.0,
        }
    }

    #[test]
    fn lines_are_deterministic_and_timestamp_free() {
        let m = metrics(3);
        assert_eq!(metrics_line(&m), metrics_line(&m.clone()));
        assert_eq!(
            metrics_line(&m),
            "{\"round\":3,\"server_accuracy\":0.53,\"client_accuracies\":[0.25,0.75],\
             \"cumulative_bytes\":4000,\"participation_rate\":1}"
        );
        let none = RoundMetrics {
            server_accuracy: None,
            ..metrics(0)
        };
        assert!(metrics_line(&none).contains("\"server_accuracy\":null"));
    }

    /// The exact bytes of the history lines: a byte change here changes the
    /// history file every served run writes, and the resume oracle compares
    /// those files across restarts.
    #[test]
    fn history_lines_are_pinned() {
        let m = RoundMetrics {
            round: 7,
            server_accuracy: None,
            client_accuracies: vec![0.5, f64::NAN, 0.1],
            cumulative_bytes: 123_456,
            participation_rate: 0.75,
        };
        assert_eq!(
            metrics_line(&m),
            r#"{"round":7,"server_accuracy":null,"client_accuracies":[0.5,null,0.1],"cumulative_bytes":123456,"participation_rate":0.75}"#
        );
        let empty = RoundMetrics {
            round: 0,
            server_accuracy: Some(1.0 / 3.0),
            client_accuracies: Vec::new(),
            cumulative_bytes: 0,
            participation_rate: f64::INFINITY,
        };
        assert_eq!(
            metrics_line(&empty),
            r#"{"round":0,"server_accuracy":0.3333333333333333,"client_accuracies":[],"cumulative_bytes":0,"participation_rate":null}"#
        );
        assert_eq!(
            run_complete_line(12, 98_765, 0x00ab_cdef_0123_4567),
            r#"{"event":"run_complete","rounds":12,"total_bytes":98765,"ledger_fnv":"00abcdef01234567"}"#
        );
    }

    #[test]
    fn canonical_rounds_dedups_identical_and_rejects_divergent() {
        let a = metrics_line(&metrics(0));
        let b = metrics_line(&metrics(1));
        let text = format!("{a}\n{b}\n{b}\n{}\n", run_complete_line(2, 9, 7));
        let rounds = canonical_rounds(&text).unwrap();
        assert_eq!(rounds, vec![a.clone(), b.clone()]);

        let mut divergent = metrics(1);
        divergent.cumulative_bytes += 1;
        let text = format!("{a}\n{b}\n{}\n", metrics_line(&divergent));
        assert!(matches!(
            canonical_rounds(&text),
            Err(HistoryError::DivergentRound { round: 1 })
        ));
    }

    #[test]
    fn repair_drops_only_an_unterminated_tail() {
        let dir = std::env::temp_dir().join(format!("fedpkd-hist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");

        // Missing file: nothing to repair.
        assert!(!repair_history_file(&path).unwrap());

        let complete = format!(
            "{}\n{}\n",
            metrics_line(&metrics(0)),
            metrics_line(&metrics(1))
        );
        std::fs::write(&path, &complete).unwrap();
        assert!(!repair_history_file(&path).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), complete);

        // A kill mid-write leaves a partial third line.
        std::fs::write(&path, format!("{complete}{{\"round\":2,\"serv")).unwrap();
        assert!(repair_history_file(&path).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), complete);
    }

    #[test]
    fn ledger_fingerprints_detect_any_difference() {
        use fedpkd_netsim::{Direction, Message};
        let mut a = CommLedger::default();
        a.record(
            0,
            1,
            Direction::Uplink,
            &Message::SampleSelection { ids: vec![1, 2] },
        );
        a.record(
            1,
            2,
            Direction::Downlink,
            &Message::SampleSelection { ids: vec![3] },
        );
        let mut b = a.clone();
        assert_eq!(ledger_fingerprint(&a), ledger_fingerprint(&b));
        b.record_bytes(1, 2, Direction::Downlink, 1);
        assert_ne!(ledger_fingerprint(&a), ledger_fingerprint(&b));
    }
}
