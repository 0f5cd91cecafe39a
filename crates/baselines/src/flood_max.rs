//! Flood-max baselines: the folklore all-nodes flood and Kutten et al.'s
//! candidate flood.
//!
//! Each node that stands draws a random ID from `{1..n⁴}`, and the network
//! floods the maximum for `D` (diameter) rounds; the node whose own ID is
//! the maximum it heard raises its flag. Requires knowing `n` (ID range and
//! candidate probability) and `D` (when to stop).
//!
//! Who stands is the [`Candidacy`]:
//!
//! * [`Candidacy::All`] — every node stands and draws only its ID: the
//!   classic folklore algorithm (`flood-chg`, `flood-all` in Table 1);
//! * [`Candidacy::Coin`] — each node first draws a coin and stands with
//!   probability `min(1, c·ln n/n)`, then draws its rank; non-candidates
//!   originate nothing and only forward. This is the knowledge regime of
//!   Kutten, Pandurangan, Peleg, Robinson & Trehan (J. ACM 2015, \[16\] in
//!   the paper), `kutten15` in Table 1: with `n` and `D` known, flood-max
//!   among `O(log n)` random candidates costs `O(m)` messages per surviving
//!   rank prefix and `O(D)` rounds, the `O(m)`-message, `O(D)`-round row of
//!   Table 1. It is a baseline of the same shape, not a line-by-line
//!   reproduction of \[16\] (whose protocol suite spans several knowledge
//!   regimes).
//!
//! Two flooding disciplines are provided:
//!
//! * [`FloodDiscipline::OnChange`] — forward only when the known maximum
//!   improves: `O(m)`–`O(m·n)` messages depending on arrival order
//!   (`O(m·log n)` expected on random orders), `O(D)` rounds;
//! * [`FloodDiscipline::EveryRound`] — the textbook repeat-everything
//!   variant: exactly `m·2·D` messages when every node stands, useful as an
//!   upper anchor in the Table 1 experiment.
//!
//! Every variant runs `D + 1` rounds (`D` flooding rounds and the decision
//! round; at least 2).

use ale_congest::{Inbox, NodeCtx, OutCtx, Process};
use ale_core::irrevocable::{candidate_probability, id_space};
use ale_core::{run_lockstep, CoreError, ElectionOutcome};
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

/// Which nodes stand for election.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Candidacy {
    /// Every node stands; no coin is drawn.
    All,
    /// Each node stands with probability `min(1, c·ln n/n)`.
    Coin {
        /// The candidate-probability constant `c`.
        c: f64,
    },
}

/// Configuration for the flood-max baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodMaxConfig {
    /// Known network size (ID range is `{1..n⁴}`).
    pub n: usize,
    /// Known diameter (flood duration).
    pub diameter: u64,
    /// Forwarding discipline.
    pub discipline: FloodDiscipline,
    /// Who stands.
    pub candidacy: Candidacy,
}

impl FloodMaxConfig {
    /// All-nodes flood-max with on-change forwarding, from the knowledge
    /// `(n, D)`.
    pub fn new(n: usize, diameter: u64) -> Self {
        FloodMaxConfig {
            n,
            diameter,
            discipline: FloodDiscipline::OnChange,
            candidacy: Candidacy::All,
        }
    }

    /// Kutten et al.'s candidate flood from the knowledge `(n, D)`:
    /// on-change forwarding among coin-drawn candidates with `c = 2`.
    pub fn kutten(n: usize, diameter: u64) -> Self {
        FloodMaxConfig {
            candidacy: Candidacy::Coin { c: 2.0 },
            ..Self::new(n, diameter)
        }
    }
}

/// One node of the flood-max baselines.
#[derive(Debug, Clone)]
pub struct FloodMaxProcess {
    candidate: bool,
    id: u64,
    /// Largest ID heard so far, 0 before any (IDs start at 1).
    best: u64,
    rounds: u64,
    discipline: FloodDiscipline,
    dirty: bool,
    leader: bool,
    halted: bool,
}

impl FloodMaxProcess {
    /// Creates a node: draws its candidacy coin (only under
    /// [`Candidacy::Coin`]), then its ID from `{1..n⁴}`.
    pub fn new(cfg: &FloodMaxConfig, rng: &mut StdRng) -> Self {
        let candidate = match cfg.candidacy {
            Candidacy::All => true,
            Candidacy::Coin { c } => rng.gen_bool(candidate_probability(c, cfg.n)),
        };
        let id = rng.gen_range(1..=id_space(cfg.n));
        FloodMaxProcess {
            candidate,
            id,
            best: if candidate { id } else { 0 },
            // Flood for D rounds plus one decision round; every node knows
            // the global max after D rounds of synchronous flooding.
            rounds: cfg.diameter.max(1),
            discipline: cfg.discipline,
            dirty: candidate,
            leader: false,
            halted: false,
        }
    }
}

impl Process for FloodMaxProcess {
    type Msg = u64;
    type Output = (bool, bool); // (candidate, leader)

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            if m.msg > self.best {
                self.best = m.msg;
                self.dirty = true;
            }
        }
        if ctx.round >= self.rounds {
            self.leader = self.candidate && self.best == self.id;
            self.halted = true;
            return;
        }
        let send = match self.discipline {
            FloodDiscipline::EveryRound => self.best > 0,
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

    fn output(&self) -> (bool, bool) {
        (self.candidate, self.leader)
    }
}

/// Runs a flood-max baseline on `graph`.
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
    run_lockstep(
        graph,
        cfg.n,
        seed,
        cfg.diameter,
        |_deg, rng| FloodMaxProcess::new(cfg, rng),
        |&flags| flags,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_core::SuccessStats;
    use ale_graph::generators;

    fn for_graph(g: &Graph) -> FloodMaxConfig {
        FloodMaxConfig::new(g.n(), g.diameter() as u64)
    }

    fn kutten_for(g: &Graph) -> FloodMaxConfig {
        FloodMaxConfig::kutten(g.n(), g.diameter() as u64)
    }

    #[test]
    fn elects_exactly_one_leader() {
        let g = generators::random_regular(40, 3, 2).unwrap();
        let cfg = for_graph(&g);
        for seed in 0..20 {
            let o = run_flood_max(&g, &cfg, seed).unwrap();
            assert_eq!(o.leader_count(), 1, "seed {seed}");
        }
    }

    #[test]
    fn every_round_message_count_is_exact() {
        let g = generators::cycle(10).unwrap();
        let mut cfg = for_graph(&g);
        cfg.discipline = FloodDiscipline::EveryRound;
        let o = run_flood_max(&g, &cfg, 1).unwrap();
        // 2m messages per round for D rounds.
        assert_eq!(o.metrics.messages, 2 * 10 * g.diameter() as u64);
    }

    #[test]
    fn on_change_sends_fewer_messages() {
        let g = generators::grid2d(5, 5, false).unwrap();
        let mut every = for_graph(&g);
        every.discipline = FloodDiscipline::EveryRound;
        let on_change = for_graph(&g);
        let oe = run_flood_max(&g, &every, 3).unwrap();
        let oc = run_flood_max(&g, &on_change, 3).unwrap();
        assert!(oc.metrics.messages < oe.metrics.messages);
        assert_eq!(oc.leader_count(), 1);
    }

    #[test]
    fn rejects_wrong_size() {
        let g = generators::cycle(6).unwrap();
        let cfg = FloodMaxConfig::new(7, 3);
        assert!(run_flood_max(&g, &cfg, 0).is_err());
        let mut cfg = kutten_for(&g);
        cfg.n = 60;
        assert!(run_flood_max(&g, &cfg, 0).is_err());
    }

    #[test]
    fn runs_exactly_diameter_plus_decision() {
        let g = generators::path(9).unwrap();
        let cfg = for_graph(&g);
        let o = run_flood_max(&g, &cfg, 5).unwrap();
        assert_eq!(o.metrics.rounds, g.diameter() as u64 + 1);
    }

    #[test]
    fn candidate_flood_elects_unique_leader_whp() {
        let g = generators::random_regular(60, 4, 1).unwrap();
        let cfg = kutten_for(&g);
        let mut stats = SuccessStats::default();
        for seed in 0..40 {
            stats.record(&run_flood_max(&g, &cfg, seed).unwrap());
        }
        // Failures only when zero candidates stand (prob ~ n^-c) or ranks
        // collide (prob ~ n^-2); both negligible at these sizes.
        assert!(
            stats.success_rate() > 0.9,
            "success {}/{}",
            stats.unique,
            stats.runs
        );
        assert_eq!(stats.multiple, 0, "split brain must not occur");
    }

    #[test]
    fn candidate_flood_sends_fewer_messages_than_full_flood() {
        let g = generators::grid2d(6, 6, false).unwrap();
        let kcfg = kutten_for(&g);
        let fcfg = for_graph(&g);
        let mut k_total = 0u64;
        let mut f_total = 0u64;
        for seed in 0..10 {
            k_total += run_flood_max(&g, &kcfg, seed).unwrap().metrics.messages;
            f_total += run_flood_max(&g, &fcfg, seed).unwrap().metrics.messages;
        }
        assert!(
            k_total < f_total,
            "candidate flood ({k_total}) should beat all-nodes flood ({f_total})"
        );
    }

    #[test]
    fn zero_candidates_means_zero_leaders() {
        let g = generators::cycle(8).unwrap();
        let mut cfg = kutten_for(&g);
        cfg.candidacy = Candidacy::Coin { c: 1e-9 }; // force no candidates
        let o = run_flood_max(&g, &cfg, 7).unwrap();
        assert_eq!(o.leader_count(), 0);
        assert_eq!(o.candidates.len(), 0);
        assert_eq!(o.metrics.messages, 0);
    }
}
