//! Round, message, and bit accounting.
//!
//! Two clocks are kept:
//!
//! * `rounds` — simulator steps, one per synchronous protocol round;
//! * `congest_rounds` — CONGEST-model rounds *charged*, which exceed
//!   `rounds` when a step carried a message wider than the per-link budget
//!   and the protocol (per the paper) serializes it bit by bit. A step's
//!   charge is `max over messages of ⌈bits/budget⌉` because links serialize
//!   in parallel.
//!
//! Message counts are point-to-point messages; bit counts are the sum of
//! payload wire sizes — the two units Theorems 1 and 3 bound.

/// Per-round counters, recorded when tracing is enabled
/// ([`Network::enable_trace`](crate::network::Network::enable_trace)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTrace {
    /// Round number (0-based).
    pub round: u64,
    /// Messages delivered out of this round.
    pub messages: u64,
    /// Payload bits delivered out of this round.
    pub bits: u64,
    /// Widest payload this round, in bits.
    pub max_bits: usize,
}

/// A per-round observation handed to a live
/// [`TraceSink`](crate::trace::TraceSink) — what [`RoundTrace`] records,
/// plus the engine-health signals a telemetry layer wants (active-set
/// size and the delivery-buffer high-water mark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundInfo {
    /// Round number (0-based).
    pub round: u64,
    /// Messages delivered out of this round.
    pub messages: u64,
    /// Payload bits delivered out of this round.
    pub bits: u64,
    /// Widest payload this round, in bits.
    pub max_bits: usize,
    /// Non-halted processes *after* this round (nodes that halted during
    /// the round are already excluded).
    pub active: usize,
    /// High-water mark (capacity) of the engine's delivery buffer, in
    /// messages — engine-specific: the lockstep driver reports its two
    /// inbox arenas' slots, the event-queue driver its delivery ring, the
    /// reference engine its per-node send buffer.
    pub buffer_cap: usize,
}

/// Aggregated counters for one network run.
///
/// All fields are plain counters, so the type is `Copy`: harnesses can
/// take cheap point-in-time snapshots mid-run (see [`Metrics::snapshot`])
/// without borrowing the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metrics {
    /// Simulator steps executed.
    pub rounds: u64,
    /// CONGEST rounds charged (≥ `rounds`; see module docs).
    pub congest_rounds: u64,
    /// Point-to-point messages delivered.
    pub messages: u64,
    /// Total payload bits delivered.
    pub bits: u64,
    /// Per-link-per-round CONGEST budget in bits.
    pub budget_bits: usize,
    /// Messages whose payload exceeded the budget (each charged as multiple
    /// serialized CONGEST rounds).
    pub oversize_messages: u64,
    /// Largest single payload observed, in bits.
    pub max_message_bits: usize,
    /// Rounds in which some node sent more than one message through the
    /// same port — a protocol bug under CONGEST; counted, not merged.
    pub multi_send_violations: u64,
    /// Messages actually enqueued for delivery. On the fault-free
    /// synchronous engines this always equals `messages`; under the
    /// asynchronous adversary it is `messages - dropped + duplicated`.
    pub delivered: u64,
    /// Messages the adversary discarded at send time (never delivered).
    pub dropped: u64,
    /// Extra copies the adversary injected (each delivered separately).
    pub duplicated: u64,
}

impl Metrics {
    /// Creates zeroed metrics with the given CONGEST budget.
    pub fn new(budget_bits: usize) -> Self {
        Metrics {
            budget_bits,
            ..Metrics::default()
        }
    }

    /// Records one simulator step in which the widest message had
    /// `max_bits` bits. Charges serialized CONGEST rounds accordingly.
    pub(crate) fn record_step(&mut self, max_bits: usize) {
        self.rounds += 1;
        let charge = if self.budget_bits == 0 || max_bits == 0 {
            1
        } else {
            max_bits.div_ceil(self.budget_bits).max(1) as u64
        };
        self.congest_rounds += charge;
    }

    /// Folds one committed round's send-time counters into the run totals
    /// and charges the step — the arena engine's batched alternative to
    /// per-send [`Metrics::record_message`] calls (sums and maxes commute,
    /// so the resulting metrics are identical; the per-message oversize
    /// test already happened at send time).
    pub(crate) fn record_round(&mut self, stats: &crate::process::RoundStats) {
        self.messages += stats.messages;
        self.bits += stats.bits;
        if stats.max_bits > self.max_message_bits {
            self.max_message_bits = stats.max_bits;
        }
        self.oversize_messages += stats.oversize;
        self.delivered += stats.messages - stats.dropped + stats.duplicated;
        self.dropped += stats.dropped;
        self.duplicated += stats.duplicated;
        self.record_step(stats.max_bits);
    }

    /// Records one delivered message of `bits` payload bits.
    pub(crate) fn record_message(&mut self, bits: usize) {
        self.messages += 1;
        self.delivered += 1;
        self.bits += bits as u64;
        if bits > self.max_message_bits {
            self.max_message_bits = bits;
        }
        if self.budget_bits > 0 && bits > self.budget_bits {
            self.oversize_messages += 1;
        }
    }

    /// Records a multi-send violation.
    pub(crate) fn record_multi_send(&mut self) {
        self.multi_send_violations += 1;
    }

    /// A point-in-time copy of the counters — the cheap snapshot hook the
    /// experiment harness streams into its aggregators (one `Copy` of nine
    /// words; no allocation, no borrow held).
    pub fn snapshot(&self) -> Metrics {
        *self
    }

    /// True when every message fit the CONGEST budget and no port was
    /// double-used — i.e. the run was a legal CONGEST execution without
    /// charged serialization.
    pub fn congest_clean(&self) -> bool {
        self.oversize_messages == 0 && self.multi_send_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_charging() {
        let mut m = Metrics::new(10);
        m.record_step(0); // empty round: 1 congest round
        assert_eq!(m.rounds, 1);
        assert_eq!(m.congest_rounds, 1);
        m.record_step(10); // exactly budget: 1 round
        assert_eq!(m.congest_rounds, 2);
        m.record_step(11); // just over: 2 rounds
        assert_eq!(m.congest_rounds, 4);
        m.record_step(35); // 4 serialized rounds
        assert_eq!(m.congest_rounds, 8);
        assert_eq!(m.rounds, 4);
    }

    #[test]
    fn message_accounting() {
        let mut m = Metrics::new(8);
        m.record_message(5);
        m.record_message(9);
        assert_eq!(m.messages, 2);
        assert_eq!(m.delivered, 2);
        assert_eq!(m.bits, 14);
        assert_eq!(m.max_message_bits, 9);
        assert_eq!(m.oversize_messages, 1);
        assert!(!m.congest_clean());
    }

    #[test]
    fn fault_counters_reconcile_through_record_round() {
        let mut m = Metrics::new(8);
        let stats = crate::process::RoundStats {
            messages: 10,
            bits: 40,
            max_bits: 4,
            oversize: 0,
            dropped: 3,
            duplicated: 2,
            broadcasters: 0,
        };
        m.record_round(&stats);
        assert_eq!(m.messages, 10);
        assert_eq!(m.dropped, 3);
        assert_eq!(m.duplicated, 2);
        // delivered = sent - dropped + duplicated, always.
        assert_eq!(m.delivered, m.messages - m.dropped + m.duplicated);
        assert!(m.congest_clean(), "faults are not protocol violations");
    }

    #[test]
    fn clean_run_detection() {
        let mut m = Metrics::new(16);
        m.record_step(12);
        m.record_message(12);
        assert!(m.congest_clean());
        m.record_multi_send();
        assert!(!m.congest_clean());
        assert_eq!(m.multi_send_violations, 1);
    }

    #[test]
    fn zero_budget_does_not_divide_by_zero() {
        let mut m = Metrics::new(0);
        m.record_step(100);
        assert_eq!(m.congest_rounds, 1);
        m.record_message(100);
        assert_eq!(m.oversize_messages, 0);
    }
}
