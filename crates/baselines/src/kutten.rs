//! Kutten-style candidate flooding baseline.
//!
//! Models the knowledge regime of Kutten, Pandurangan, Peleg, Robinson &
//! Trehan (J. ACM 2015, \[16\] in the paper): `n` and `D` known, success whp.
//! A node stands as candidate with probability `c·ln n / n`, draws a random
//! rank, and the network floods the maximum **candidate** rank for `D`
//! rounds (forwarding improvements only). Expected messages are dominated
//! by `O(m)` flood traffic per surviving rank prefix — the `O(m)`-messages
//! `O(D)`-time point in Table 1's upper rows — while non-candidate nodes
//! originate nothing.
//!
//! This is a *baseline of the same shape*, not a line-by-line reproduction
//! of \[16\] (whose protocol suite spans several knowledge regimes).

use ale_congest::{congest_budget, Incoming, Network, NodeCtx, OutCtx, Process};
use ale_core::{CoreError, ElectionOutcome};
use ale_graph::Graph;
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration for the Kutten-style baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KuttenConfig {
    /// Known network size.
    pub n: usize,
    /// Known diameter.
    pub diameter: u64,
    /// Candidate-probability constant (`c·ln n / n`).
    pub c: f64,
    /// CONGEST budget factor.
    pub congest_factor: usize,
}

impl KuttenConfig {
    /// Builds a config from the graph with default constants.
    pub fn for_graph(graph: &Graph) -> Self {
        KuttenConfig {
            n: graph.n(),
            diameter: graph.diameter() as u64,
            c: 2.0,
            congest_factor: 8,
        }
    }

    /// Candidate probability `min(1, c·ln n/n)`.
    pub fn candidate_probability(&self) -> f64 {
        let n = self.n as f64;
        (self.c * n.ln().max(1.0) / n).min(1.0)
    }
}

/// One node of the Kutten-style baseline.
#[derive(Debug, Clone)]
pub struct KuttenProcess {
    candidate: bool,
    rank: u64,
    best: Option<u64>,
    rounds: u64,
    dirty: bool,
    leader: bool,
    halted: bool,
}

impl KuttenProcess {
    /// Creates a node, drawing candidacy and rank.
    pub fn new(cfg: &KuttenConfig, rng: &mut StdRng) -> Self {
        let candidate = rng.gen_bool(cfg.candidate_probability());
        let id_space = (cfg.n as u64).saturating_pow(4).max(2);
        let rank = rng.gen_range(1..=id_space);
        KuttenProcess {
            candidate,
            rank,
            best: candidate.then_some(rank),
            rounds: cfg.diameter.max(1),
            dirty: candidate,
            leader: false,
            halted: false,
        }
    }
}

impl Process for KuttenProcess {
    type Msg = u64;
    type Output = (bool, bool); // (candidate, leader)

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Incoming<u64>], out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            if self.best.is_none_or(|b| m.msg > b) {
                self.best = Some(m.msg);
                self.dirty = true;
            }
        }
        if ctx.round >= self.rounds {
            self.leader = self.candidate && self.best == Some(self.rank);
            self.halted = true;
            return;
        }
        if self.dirty {
            self.dirty = false;
            out.broadcast(self.best.expect("dirty implies a value"));
        }
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    fn output(&self) -> (bool, bool) {
        (self.candidate, self.leader)
    }
}

/// Runs the Kutten-style baseline.
///
/// # Errors
///
/// Propagates simulator errors; [`CoreError::InvalidConfig`] on a size
/// mismatch.
pub fn run_kutten(
    graph: &Graph,
    cfg: &KuttenConfig,
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
        KuttenProcess::new(&cfg_copy, rng)
    });
    let status = net.run_to_halt(cfg.diameter + 4)?;
    let outputs = net.outputs();
    let leaders = outputs
        .iter()
        .enumerate()
        .filter(|(_, (_, l))| *l)
        .map(|(i, _)| i)
        .collect();
    let candidates = outputs
        .iter()
        .enumerate()
        .filter(|(_, (c, _))| *c)
        .map(|(i, _)| i)
        .collect();
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
    use ale_core::SuccessStats;
    use ale_graph::generators;

    #[test]
    fn elects_unique_leader_whp() {
        let g = generators::random_regular(60, 4, 1).unwrap();
        let cfg = KuttenConfig::for_graph(&g);
        let mut stats = SuccessStats::default();
        for seed in 0..40 {
            stats.record(&run_kutten(&g, &cfg, seed).unwrap());
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
    fn fewer_messages_than_full_flood() {
        let g = generators::grid2d(6, 6, false).unwrap();
        let kcfg = KuttenConfig::for_graph(&g);
        let fcfg = crate::flood_max::FloodMaxConfig::for_graph(&g);
        let mut k_total = 0u64;
        let mut f_total = 0u64;
        for seed in 0..10 {
            k_total += run_kutten(&g, &kcfg, seed).unwrap().metrics.messages;
            f_total += crate::flood_max::run_flood_max(&g, &fcfg, seed)
                .unwrap()
                .metrics
                .messages;
        }
        assert!(
            k_total < f_total,
            "candidate flood ({k_total}) should beat all-nodes flood ({f_total})"
        );
    }

    #[test]
    fn zero_candidates_means_zero_leaders() {
        let g = generators::cycle(8).unwrap();
        let mut cfg = KuttenConfig::for_graph(&g);
        cfg.c = 1e-9; // force no candidates
        let o = run_kutten(&g, &cfg, 7).unwrap();
        assert_eq!(o.leader_count(), 0);
        assert_eq!(o.candidates.len(), 0);
        assert_eq!(o.metrics.messages, 0);
    }

    #[test]
    fn rejects_wrong_size() {
        let g = generators::cycle(6).unwrap();
        let mut cfg = KuttenConfig::for_graph(&g);
        cfg.n = 60;
        assert!(run_kutten(&g, &cfg, 0).is_err());
    }
}
