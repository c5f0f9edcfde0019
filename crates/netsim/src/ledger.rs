//! Byte-accurate communication accounting.

use crate::{Message, Wire};

/// Direction of a transfer relative to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server.
    Uplink,
    /// Server → client.
    Downlink,
}

/// One recorded transfer.
///
/// [`CommLedger::transfers`] exposes the full transfer log in recording
/// order and [`CommLedger::from_transfers`] rebuilds an identical ledger
/// from it, so a ledger can round-trip through any external encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRecord {
    /// Round in which the transfer happened.
    pub round: usize,
    /// Client on the far end of the link.
    pub client: usize,
    /// Direction relative to the server.
    pub direction: Direction,
    /// Exact encoded payload size.
    pub bytes: usize,
}

/// Aggregated traffic of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTraffic {
    /// Client → server bytes.
    pub uplink: usize,
    /// Server → client bytes.
    pub downlink: usize,
}

impl RoundTraffic {
    /// Total bytes in both directions.
    pub fn total(&self) -> usize {
        self.uplink + self.downlink
    }
}

/// Records every byte that crosses the simulated network.
///
/// The experiments read this ledger to reproduce the paper's communication
/// metrics: per-round overhead (Fig. 3) and cumulative bytes until a target
/// accuracy (Table I).
///
/// # Examples
///
/// ```
/// use fedpkd_netsim::{CommLedger, Direction, Message};
///
/// let mut ledger = CommLedger::new();
/// ledger.record(0, 0, Direction::Uplink, &Message::SampleSelection { ids: vec![1, 2] });
/// ledger.record(1, 0, Direction::Downlink, &Message::SampleSelection { ids: vec![3] });
/// assert_eq!(ledger.rounds_recorded(), 2);
/// assert!(ledger.cumulative_bytes_through_round(0) < ledger.total_bytes());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommLedger {
    transfers: Vec<TransferRecord>,
}

impl CommLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the transfer of `message` in `round` for `client`, charging
    /// its exact encoded size.
    pub fn record(&mut self, round: usize, client: usize, direction: Direction, message: &Message) {
        self.record_bytes(round, client, direction, message.encoded_len());
    }

    /// Records a transfer of a known byte size (for payloads not in the
    /// [`Message`] catalog).
    pub fn record_bytes(
        &mut self,
        round: usize,
        client: usize,
        direction: Direction,
        bytes: usize,
    ) {
        self.transfers.push(TransferRecord {
            round,
            client,
            direction,
            bytes,
        });
    }

    /// Total bytes recorded, both directions.
    pub fn total_bytes(&self) -> usize {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Total bytes in one direction.
    pub fn direction_bytes(&self, direction: Direction) -> usize {
        self.transfers
            .iter()
            .filter(|t| t.direction == direction)
            .map(|t| t.bytes)
            .sum()
    }

    /// Bytes sent and received by one client across all rounds.
    pub fn client_bytes(&self, client: usize) -> usize {
        self.transfers
            .iter()
            .filter(|t| t.client == client)
            .map(|t| t.bytes)
            .sum()
    }

    /// Traffic of a single round.
    pub fn round_traffic(&self, round: usize) -> RoundTraffic {
        let mut traffic = RoundTraffic::default();
        for t in self.transfers.iter().filter(|t| t.round == round) {
            match t.direction {
                Direction::Uplink => traffic.uplink += t.bytes,
                Direction::Downlink => traffic.downlink += t.bytes,
            }
        }
        traffic
    }

    /// Cumulative bytes over rounds `0..=round` (Table I's "communication
    /// overhead used to reach the target accuracy").
    pub fn cumulative_bytes_through_round(&self, round: usize) -> usize {
        self.transfers
            .iter()
            .filter(|t| t.round <= round)
            .map(|t| t.bytes)
            .sum()
    }

    /// Number of distinct rounds with at least one transfer.
    pub fn rounds_recorded(&self) -> usize {
        let mut rounds: Vec<usize> = self.transfers.iter().map(|t| t.round).collect();
        rounds.sort_unstable();
        rounds.dedup();
        rounds.len()
    }

    /// Per-client uplink bytes of one round (for straggler analysis with a
    /// [`crate::LinkModel`]).
    ///
    /// The result has at least `num_clients` entries and grows to cover the
    /// largest client id actually recorded in the round, so no transfer is
    /// ever silently excluded from straggler analysis.
    pub fn round_client_uplinks(&self, round: usize, num_clients: usize) -> Vec<usize> {
        let mut per_client = vec![0usize; num_clients];
        for t in self
            .transfers
            .iter()
            .filter(|t| t.round == round && t.direction == Direction::Uplink)
        {
            if t.client >= per_client.len() {
                per_client.resize(t.client + 1, 0);
            }
            per_client[t.client] += t.bytes;
        }
        per_client
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Every recorded transfer, in recording order (skipping a prefix is
    /// O(1)).
    pub fn transfers(&self) -> impl Iterator<Item = TransferRecord> + '_ {
        self.transfers.iter().copied()
    }

    /// Number of recorded transfers.
    pub fn num_transfers(&self) -> usize {
        self.transfers.len()
    }

    /// Rebuilds a ledger from records captured via
    /// [`transfers`](Self::transfers). Order is preserved, so the result
    /// compares equal to the original ledger.
    pub fn from_transfers(records: impl IntoIterator<Item = TransferRecord>) -> Self {
        Self {
            transfers: records.into_iter().collect(),
        }
    }
}

/// Converts bytes to the megabytes used in the paper's tables.
pub fn bytes_to_mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(n: usize) -> Message {
        Message::ModelUpdate {
            params: vec![0.0; n],
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut ledger = CommLedger::new();
        ledger.record(0, 0, Direction::Uplink, &msg(10));
        ledger.record(0, 1, Direction::Uplink, &msg(10));
        ledger.record(0, 0, Direction::Downlink, &msg(20));
        let one = msg(10).encoded_len();
        let big = msg(20).encoded_len();
        assert_eq!(ledger.total_bytes(), 2 * one + big);
        assert_eq!(ledger.direction_bytes(Direction::Uplink), 2 * one);
        assert_eq!(ledger.direction_bytes(Direction::Downlink), big);
        assert_eq!(ledger.client_bytes(0), one + big);
        assert_eq!(ledger.client_bytes(1), one);
        assert_eq!(ledger.client_bytes(9), 0);
    }

    #[test]
    fn round_traffic_separates_rounds() {
        let mut ledger = CommLedger::new();
        ledger.record(0, 0, Direction::Uplink, &msg(10));
        ledger.record(1, 0, Direction::Uplink, &msg(30));
        let r0 = ledger.round_traffic(0);
        let r1 = ledger.round_traffic(1);
        assert_eq!(r0.uplink, msg(10).encoded_len());
        assert_eq!(r1.uplink, msg(30).encoded_len());
        assert_eq!(r0.downlink, 0);
        assert_eq!(r0.total(), r0.uplink);
        assert_eq!(ledger.rounds_recorded(), 2);
    }

    #[test]
    fn cumulative_bytes_is_monotone() {
        let mut ledger = CommLedger::new();
        for round in 0..5 {
            ledger.record(round, 0, Direction::Uplink, &msg(round + 1));
        }
        let mut prev = 0;
        for round in 0..5 {
            let cum = ledger.cumulative_bytes_through_round(round);
            assert!(cum > prev);
            prev = cum;
        }
        assert_eq!(prev, ledger.total_bytes());
    }

    #[test]
    fn per_client_uplinks() {
        let mut ledger = CommLedger::new();
        ledger.record(2, 0, Direction::Uplink, &msg(1));
        ledger.record(2, 2, Direction::Uplink, &msg(2));
        ledger.record(2, 2, Direction::Downlink, &msg(50));
        let ups = ledger.round_client_uplinks(2, 3);
        assert_eq!(ups[0], msg(1).encoded_len());
        assert_eq!(ups[1], 0);
        assert_eq!(ups[2], msg(2).encoded_len());
    }

    #[test]
    fn per_client_uplinks_grow_past_num_clients() {
        // Transfers from a client id beyond the caller's estimate must show
        // up rather than being silently dropped.
        let mut ledger = CommLedger::new();
        ledger.record(0, 0, Direction::Uplink, &msg(1));
        ledger.record(0, 5, Direction::Uplink, &msg(2));
        let ups = ledger.round_client_uplinks(0, 2);
        assert_eq!(ups.len(), 6);
        assert_eq!(ups[0], msg(1).encoded_len());
        assert_eq!(ups[5], msg(2).encoded_len());
        assert_eq!(ups[1..5].iter().sum::<usize>(), 0);
    }

    #[test]
    fn transfer_records_round_trip() {
        let mut ledger = CommLedger::new();
        ledger.record(0, 0, Direction::Uplink, &msg(3));
        ledger.record(0, 1, Direction::Downlink, &msg(7));
        ledger.record(4, 2, Direction::Uplink, &msg(1));
        assert_eq!(ledger.num_transfers(), 3);
        let rebuilt = CommLedger::from_transfers(ledger.transfers());
        assert_eq!(rebuilt, ledger);
    }

    #[test]
    fn empty_ledger() {
        let ledger = CommLedger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.total_bytes(), 0);
        assert_eq!(ledger.rounds_recorded(), 0);
    }

    #[test]
    fn mb_conversion() {
        assert!((bytes_to_mb(1024 * 1024) - 1.0).abs() < 1e-12);
        assert_eq!(bytes_to_mb(0), 0.0);
    }
}
