//! Election outcomes and their verification.
//!
//! Both protocols (and the baselines in `ale-baselines`) report an
//! [`ElectionOutcome`]: who raised the leader flag, who was a candidate,
//! and what the run cost — the quantities Definitions 1 and 2 and
//! Theorems 1 and 3 of the paper talk about.

use ale_congest::{Metrics, RunStatus};
use ale_graph::NodeId;

/// The result of running a leader-election protocol on a network.
#[derive(Debug, Clone, PartialEq)]
pub struct ElectionOutcome {
    /// Nodes whose leader flag is raised (host-side ids).
    pub leaders: Vec<NodeId>,
    /// Nodes that stood as candidates (empty for protocols without an
    /// explicit candidacy step).
    pub candidates: Vec<NodeId>,
    /// Cost accounting from the simulator.
    pub metrics: Metrics,
    /// Why the run stopped.
    pub status: RunStatus,
}

impl ElectionOutcome {
    /// Creates an outcome from its parts.
    pub fn new(
        leaders: Vec<NodeId>,
        candidates: Vec<NodeId>,
        metrics: Metrics,
        status: RunStatus,
    ) -> Self {
        ElectionOutcome {
            leaders,
            candidates,
            metrics,
            status,
        }
    }

    /// The elected leader, if the election produced exactly one.
    pub fn unique_leader(&self) -> Option<NodeId> {
        match self.leaders.as_slice() {
            [l] => Some(*l),
            _ => None,
        }
    }

    /// Number of nodes with a raised flag (the paper's success criterion is
    /// exactly one, with high probability).
    pub fn leader_count(&self) -> usize {
        self.leaders.len()
    }

    /// True when exactly one leader was elected.
    pub fn is_successful(&self) -> bool {
        self.leaders.len() == 1
    }

    /// Convenience accessor mirroring the examples in the README.
    pub fn leaders(&self) -> &[NodeId] {
        &self.leaders
    }
}

/// Success-rate summary across repeated seeded runs — the unit the
/// experiment harness reports ("whp" claims become empirical rates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SuccessStats {
    /// Total runs.
    pub runs: usize,
    /// Runs with exactly one leader.
    pub unique: usize,
    /// Runs with no leader at all.
    pub none: usize,
    /// Runs with more than one leader (split brain).
    pub multiple: usize,
}

impl SuccessStats {
    /// Folds one outcome into the tally.
    pub fn record(&mut self, outcome: &ElectionOutcome) {
        self.runs += 1;
        match outcome.leader_count() {
            0 => self.none += 1,
            1 => self.unique += 1,
            _ => self.multiple += 1,
        }
    }

    /// Fraction of runs with exactly one leader.
    pub fn success_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.unique as f64 / self.runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(leaders: Vec<NodeId>) -> ElectionOutcome {
        ElectionOutcome::new(leaders, vec![], Metrics::new(32), RunStatus::AllHalted)
    }

    #[test]
    fn unique_leader_detection() {
        assert_eq!(outcome(vec![3]).unique_leader(), Some(3));
        assert_eq!(outcome(vec![]).unique_leader(), None);
        assert_eq!(outcome(vec![1, 2]).unique_leader(), None);
        assert!(outcome(vec![5]).is_successful());
        assert!(!outcome(vec![1, 2]).is_successful());
        assert_eq!(outcome(vec![1, 2]).leader_count(), 2);
    }

    #[test]
    fn stats_tally() {
        let mut s = SuccessStats::default();
        s.record(&outcome(vec![1]));
        s.record(&outcome(vec![1]));
        s.record(&outcome(vec![]));
        s.record(&outcome(vec![1, 2, 3]));
        assert_eq!(s.runs, 4);
        assert_eq!(s.unique, 2);
        assert_eq!(s.none, 1);
        assert_eq!(s.multiple, 1);
        assert!((s.success_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SuccessStats::default();
        assert_eq!(s.success_rate(), 0.0);
    }
}
