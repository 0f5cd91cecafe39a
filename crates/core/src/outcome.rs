//! Election outcomes: how every election in the workspace is run and
//! read.
//!
//! Both protocols (and the baselines in `ale-baselines`) report an
//! [`ElectionOutcome`]: who raised the leader flag, who was a candidate,
//! and what the run cost — the quantities Definitions 1 and 2 and
//! Theorems 1 and 3 of the paper talk about. [`ElectionOutcome::from_flags`]
//! is the one reader of per-node results, and [`run_lockstep`] the one
//! driver of the elections that run to halt on the lockstep engine.

use crate::error::CoreError;
use ale_congest::{congest_budget, Metrics, Network, Process, RunStatus};
use ale_graph::{Graph, NodeId};
use rand::rngs::StdRng;

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
    /// Reads an outcome from each node's `(candidate, leader)` flags, in
    /// node order, and the run's cost and stop reason.
    pub fn from_flags(
        flags: impl IntoIterator<Item = (bool, bool)>,
        metrics: Metrics,
        status: RunStatus,
    ) -> Self {
        let mut leaders = Vec::new();
        let mut candidates = Vec::new();
        for (v, (candidate, leader)) in flags.into_iter().enumerate() {
            if candidate {
                candidates.push(v);
            }
            if leader {
                leaders.push(v);
            }
        }
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

/// Runs one election on the lockstep engine and reads its outcome.
///
/// Spawns one process per node with `spawn` (given the node's degree and
/// seeded RNG) into a [`Network`] metered against the CONGEST budget of
/// the protocol's known size `n`, and runs it until every node halts or
/// 4 rounds past the protocol's `schedule` (its own round count), the
/// outcome's status saying which. Each node's `(candidate, leader)`
/// flags are read off its output with `flags`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_lockstep<P: Process>(
    graph: &Graph,
    n: usize,
    seed: u64,
    schedule: u64,
    spawn: impl FnMut(usize, &mut StdRng) -> P,
    flags: impl Fn(&P::Output) -> (bool, bool),
) -> Result<ElectionOutcome, CoreError> {
    let mut net = Network::from_fn(graph, seed, congest_budget(n), spawn);
    let status = net.run_to_halt(schedule + 4)?;
    Ok(ElectionOutcome::from_flags(
        net.outputs().iter().map(flags),
        *net.metrics(),
        status,
    ))
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
        let flags = (0..8).map(|v| (false, leaders.contains(&v)));
        ElectionOutcome::from_flags(flags, Metrics::new(32), RunStatus::AllHalted)
    }

    #[test]
    fn reads_flags_in_node_order() {
        let flags = [(true, false), (false, false), (true, true), (false, true)];
        let o = ElectionOutcome::from_flags(flags, Metrics::new(32), RunStatus::AllHalted);
        assert_eq!(o.candidates, [0, 2]);
        assert_eq!(o.leaders, [2, 3]);
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
