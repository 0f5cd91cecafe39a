//! Empirical companion to Theorem 2: split-brain elections on big cycles.
//!
//! Theorem 2 says no algorithm can solve *irrevocable* leader election in
//! bounded time `T(n)` without knowing `n`: on a long cycle `C_N`, far-apart
//! regions cannot be distinguished from full smaller networks within the
//! time budget, so with probability → 1 (as `N` grows) two regions finish
//! the election independently — two leaders.
//!
//! The experiment here realizes exactly that setup with this repo's own
//! Theorem 1 protocol as the stop-by-`T` algorithm `A`: nodes run it
//! **believing** the network is the cycle `C_{n₀}` (knowledge `n = n₀`,
//! `t_mix`, `Φ` of `C_{n₀}`), but the real network is `C_N`, `N ≫ n₀`.
//! Candidates' territories and walks are budgeted for `n₀` nodes, so
//! distant candidates never hear of each other and several raise flags.
//! The same instance run under the **revocable** protocol (which needs no
//! knowledge) converges to a single leader — the paper's motivation for
//! Definition 2.

use ale_congest::{congest_budget, Network};
use ale_core::irrevocable::{IrrevocableConfig, IrrevocableProcess};
use ale_core::{CoreError, ElectionOutcome};
use ale_graph::{analytic, generators, NetworkKnowledge, Topology};

/// Knowledge a node of `C_{n₀}` would legitimately hold: exact `n₀`, the
/// closed-form conductance of the cycle, and its mixing time (exact for
/// small `n₀`, the `2n₀²` closed-form bound otherwise).
///
/// Using the *exact* mixing time matters for the experiment's economy: the
/// protocol's total running time `T` is the information radius of the run,
/// and Theorem 2's phenomenon appears once `N` exceeds a few multiples of
/// `T` — the tighter `t_mix` is, the smaller the cycles that exhibit it.
pub fn believed_cycle_knowledge(n0: usize) -> NetworkKnowledge {
    let hints = analytic::hints(&Topology::Cycle { n: n0 });
    let fallback = hints.tmix_upper.unwrap_or(2 * (n0 as u64).pow(2));
    let tmix = if n0 <= 64 {
        generators::cycle(n0)
            .ok()
            .and_then(|g| ale_markov::MarkovChain::lazy_random_walk(&g.adjacency()).ok())
            .and_then(|c| ale_markov::mixing::mixing_time_exact(&c, 1 << 24).ok())
            .unwrap_or(fallback)
    } else {
        fallback
    };
    NetworkKnowledge {
        n: n0,
        tmix,
        phi: hints.conductance.unwrap_or(2.0 / n0 as f64),
    }
}

/// Runs the irrevocable protocol on `graph` with (possibly wrong)
/// `knowledge` — the deliberate model violation of Theorem 2's setup.
/// Unlike [`ale_core::irrevocable::run_irrevocable`], the knowledge is
/// **not** checked against the true graph size.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run_with_believed_knowledge(
    graph: &ale_graph::Graph,
    cfg: &IrrevocableConfig,
    seed: u64,
) -> Result<ElectionOutcome, CoreError> {
    cfg.validate()?;
    let budget = congest_budget(cfg.knowledge.n.max(2), cfg.congest_factor);
    let cfg_copy = *cfg;
    let mut net = Network::from_fn(graph, seed, budget, |deg, rng| {
        let params = cfg_copy.protocol_params(deg).expect("validated");
        IrrevocableProcess::new(params, rng)
    });
    let status = net.run_to_halt(cfg.total_rounds() + 4)?;
    let verdicts = net.outputs();
    let leaders = verdicts
        .iter()
        .enumerate()
        .filter(|(_, v)| v.leader)
        .map(|(i, _)| i)
        .collect();
    let candidates = verdicts
        .iter()
        .enumerate()
        .filter(|(_, v)| v.candidate)
        .map(|(i, _)| i)
        .collect();
    Ok(ElectionOutcome::new(
        leaders,
        candidates,
        *net.metrics(),
        status,
    ))
}

/// Result of one split-brain trial.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitBrainTrial {
    /// The believed size `n₀`.
    pub n0: usize,
    /// The true cycle size `N`.
    pub big_n: usize,
    /// Leaders elected (their cycle positions).
    pub leaders: Vec<usize>,
    /// Full outcome with cost metrics.
    pub outcome: ElectionOutcome,
}

impl SplitBrainTrial {
    /// Whether the run violated uniqueness (the Theorem 2 phenomenon).
    pub fn split_brain(&self) -> bool {
        self.leaders.len() >= 2
    }

    /// Minimum cycle distance between any two elected leaders — evidence
    /// that the split leaders are in far-apart "witness" regions.
    pub fn min_leader_distance(&self) -> Option<usize> {
        if self.leaders.len() < 2 {
            return None;
        }
        let mut best = usize::MAX;
        for (i, &a) in self.leaders.iter().enumerate() {
            for &b in &self.leaders[i + 1..] {
                let d = a.abs_diff(b);
                best = best.min(d.min(self.big_n - d));
            }
        }
        Some(best)
    }
}

/// Runs one split-brain trial: the stop-by-`T` protocol believing `n₀` on
/// the true cycle `C_N`.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn split_brain_trial(n0: usize, big_n: usize, seed: u64) -> Result<SplitBrainTrial, CoreError> {
    let graph = generators::cycle(big_n)?;
    let cfg = IrrevocableConfig::from_knowledge(believed_cycle_knowledge(n0));
    let outcome = run_with_believed_knowledge(&graph, &cfg, seed)?;
    Ok(SplitBrainTrial {
        n0,
        big_n,
        leaders: outcome.leaders.clone(),
        outcome,
    })
}

/// One point of the Theorem 2 series: split-brain frequency at a given
/// `N/n₀` blow-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitBrainPoint {
    /// Believed size.
    pub n0: usize,
    /// True size.
    pub big_n: usize,
    /// Trials run.
    pub trials: usize,
    /// Trials electing ≥ 2 leaders.
    pub splits: usize,
    /// Mean number of leaders.
    pub mean_leaders: f64,
}

/// Sweeps `N = factor·n₀` for each factor, running `trials` seeded trials
/// per point — the empirical analogue of Figures 1–2 + Theorem 2.
///
/// # Errors
///
/// Propagates trial failures.
pub fn split_brain_series(
    n0: usize,
    factors: &[usize],
    trials: usize,
    seed0: u64,
) -> Result<Vec<SplitBrainPoint>, CoreError> {
    let mut series = Vec::with_capacity(factors.len());
    for (fi, &f) in factors.iter().enumerate() {
        let big_n = n0 * f;
        let mut splits = 0usize;
        let mut total_leaders = 0usize;
        for t in 0..trials {
            let trial = split_brain_trial(n0, big_n, seed0 + (fi * trials + t) as u64)?;
            if trial.split_brain() {
                splits += 1;
            }
            total_leaders += trial.leaders.len();
        }
        series.push(SplitBrainPoint {
            n0,
            big_n,
            trials,
            splits,
            mean_leaders: total_leaders as f64 / trials.max(1) as f64,
        });
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn believed_knowledge_is_plausible() {
        let k = believed_cycle_knowledge(16);
        assert_eq!(k.n, 16);
        assert!(k.tmix >= 16);
        assert!((k.phi - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn correct_knowledge_elects_one_leader() {
        // Control: believed size == true size.
        for seed in 0..6 {
            let trial = split_brain_trial(8, 8, seed).unwrap();
            assert_eq!(trial.leaders.len(), 1, "control must elect uniquely");
            assert!(!trial.split_brain());
            assert_eq!(trial.min_leader_distance(), None);
        }
    }

    #[test]
    fn huge_blowup_splits_brain() {
        // N = 32·n0: the protocol's information radius (~2·broadcast steps
        // ≈ 108 hops for n0 = 8) is far below N/2, so distant local-king
        // candidates never hear of each other. Calibration runs show 6/6
        // splits with ~5 leaders at this point.
        let mut splits = 0;
        for seed in 0..5 {
            let trial = split_brain_trial(8, 256, seed).unwrap();
            if trial.split_brain() {
                splits += 1;
                let d = trial.min_leader_distance().unwrap();
                assert!(d > 0, "distinct leaders must be distinct positions");
            }
        }
        assert!(splits >= 4, "split brain in only {splits}/5 trials");
    }

    #[test]
    fn series_is_roughly_monotone() {
        let series = split_brain_series(8, &[1, 32], 5, 11).unwrap();
        assert_eq!(series.len(), 2);
        assert!(
            series[1].splits >= series[0].splits,
            "bigger blow-up should not reduce splits at equal trials: {:?}",
            series
        );
        assert!(series[1].mean_leaders > 1.5);
    }
}
