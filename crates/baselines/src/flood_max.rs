//! Naive flood-max baseline.
//!
//! Every node draws a random ID from `{1..n⁴}` and floods the maximum for
//! `D` (diameter) rounds; the unique maximum's holder raises its flag.
//! Requires knowing `n` (ID range) and `D` (when to stop): the classic
//! folklore algorithm the paper's related-work baselines refine.
//!
//! Two flooding disciplines are provided:
//!
//! * [`FloodDiscipline::OnChange`] — forward only when the known maximum
//!   improves: `O(m)`–`O(m·n)` messages depending on arrival order
//!   (`O(m·log n)` expected on random orders), `O(D)` rounds;
//! * [`FloodDiscipline::EveryRound`] — the textbook repeat-everything
//!   variant: exactly `m·2·D` messages, useful as an upper anchor in the
//!   Table 1 experiment.

use ale_congest::{congest_budget, Incoming, Network, NodeCtx, OutCtx, Process};
use ale_core::{CoreError, ElectionOutcome};
use ale_graph::Graph;
use rand::rngs::StdRng;
use rand::Rng;

/// Forwarding discipline for the flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloodDiscipline {
    /// Forward only improvements.
    OnChange,
    /// Re-broadcast the current maximum every round.
    EveryRound,
}

/// Configuration for the flood-max baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodMaxConfig {
    /// Known network size (ID range is `{1..n⁴}`).
    pub n: usize,
    /// Known diameter (flood duration).
    pub diameter: u64,
    /// Forwarding discipline.
    pub discipline: FloodDiscipline,
    /// CONGEST budget factor.
    pub congest_factor: usize,
}

impl FloodMaxConfig {
    /// Builds a config with the graph's exact diameter and on-change
    /// forwarding.
    pub fn for_graph(graph: &Graph) -> Self {
        FloodMaxConfig {
            n: graph.n(),
            diameter: graph.diameter() as u64,
            discipline: FloodDiscipline::OnChange,
            congest_factor: 8,
        }
    }
}

/// One node of the flood-max baseline.
#[derive(Debug, Clone)]
pub struct FloodMaxProcess {
    id: u64,
    best: u64,
    rounds: u64,
    discipline: FloodDiscipline,
    dirty: bool,
    leader: bool,
    halted: bool,
}

impl FloodMaxProcess {
    /// Creates a node with a random ID from `{1..n⁴}`.
    pub fn new(cfg: &FloodMaxConfig, rng: &mut StdRng) -> Self {
        let id_space = (cfg.n as u64).saturating_pow(4).max(2);
        let id = rng.gen_range(1..=id_space);
        FloodMaxProcess {
            id,
            best: id,
            // Flood for D rounds plus one decision round; every node knows
            // the global max after D rounds of synchronous flooding.
            rounds: cfg.diameter.max(1),
            discipline: cfg.discipline,
            dirty: true,
            leader: false,
            halted: false,
        }
    }
}

impl Process for FloodMaxProcess {
    type Msg = u64;
    type Output = bool;

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Incoming<u64>], out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            if m.msg > self.best {
                self.best = m.msg;
                self.dirty = true;
            }
        }
        if ctx.round >= self.rounds {
            self.leader = self.best == self.id;
            self.halted = true;
            return;
        }
        let send = match self.discipline {
            FloodDiscipline::EveryRound => true,
            FloodDiscipline::OnChange => self.dirty,
        };
        self.dirty = false;
        if send {
            out.broadcast(self.best);
        }
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    fn output(&self) -> bool {
        self.leader
    }
}

/// Runs flood-max on `graph`.
///
/// # Errors
///
/// Propagates simulator errors; [`CoreError::InvalidConfig`] on a size
/// mismatch.
pub fn run_flood_max(
    graph: &Graph,
    cfg: &FloodMaxConfig,
    seed: u64,
) -> Result<ElectionOutcome, CoreError> {
    if graph.n() != cfg.n {
        return Err(CoreError::InvalidConfig {
            reason: format!("config n = {} but graph has {}", cfg.n, graph.n()),
        });
    }
    let budget = congest_budget(cfg.n, cfg.congest_factor);
    let cfg_copy = *cfg;
    let mut net = Network::from_fn(graph, seed, budget, |_deg, rng| {
        FloodMaxProcess::new(&cfg_copy, rng)
    });
    let status = net.run_to_halt(cfg.diameter + 4)?;
    let leaders = net
        .outputs()
        .iter()
        .enumerate()
        .filter(|(_, &l)| l)
        .map(|(i, _)| i)
        .collect();
    let candidates = (0..graph.n()).collect();
    Ok(ElectionOutcome::new(
        leaders,
        candidates,
        *net.metrics(),
        status,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_graph::generators;

    #[test]
    fn elects_exactly_one_leader() {
        let g = generators::random_regular(40, 3, 2).unwrap();
        let cfg = FloodMaxConfig::for_graph(&g);
        for seed in 0..20 {
            let o = run_flood_max(&g, &cfg, seed).unwrap();
            assert_eq!(o.leader_count(), 1, "seed {seed}");
        }
    }

    #[test]
    fn every_round_message_count_is_exact() {
        let g = generators::cycle(10).unwrap();
        let mut cfg = FloodMaxConfig::for_graph(&g);
        cfg.discipline = FloodDiscipline::EveryRound;
        let o = run_flood_max(&g, &cfg, 1).unwrap();
        // 2m messages per round for D rounds.
        assert_eq!(o.metrics.messages, 2 * 10 * g.diameter() as u64);
    }

    #[test]
    fn on_change_sends_fewer_messages() {
        let g = generators::grid2d(5, 5, false).unwrap();
        let mut every = FloodMaxConfig::for_graph(&g);
        every.discipline = FloodDiscipline::EveryRound;
        let on_change = FloodMaxConfig::for_graph(&g);
        let oe = run_flood_max(&g, &every, 3).unwrap();
        let oc = run_flood_max(&g, &on_change, 3).unwrap();
        assert!(oc.metrics.messages < oe.metrics.messages);
        assert_eq!(oc.leader_count(), 1);
    }

    #[test]
    fn rejects_wrong_size() {
        let g = generators::cycle(6).unwrap();
        let cfg = FloodMaxConfig {
            n: 7,
            diameter: 3,
            discipline: FloodDiscipline::OnChange,
            congest_factor: 8,
        };
        assert!(run_flood_max(&g, &cfg, 0).is_err());
    }

    #[test]
    fn runs_exactly_diameter_plus_decision() {
        let g = generators::path(9).unwrap();
        let cfg = FloodMaxConfig::for_graph(&g);
        let o = run_flood_max(&g, &cfg, 5).unwrap();
        assert_eq!(o.metrics.rounds, g.diameter() as u64 + 1);
    }
}
