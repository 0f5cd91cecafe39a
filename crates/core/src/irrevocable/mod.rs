//! Irrevocable Leader Election for **known network size** (paper Section 4).
//!
//! The protocol of Theorem 1: with `n`, mixing time `t_mix`, and conductance
//! `Φ` known (linear upper bounds suffice), elect a unique leader whp using
//! `Õ(√(n·t_mix/Φ))` messages in `O(t_mix·log² n)` rounds in the CONGEST
//! model.
//!
//! * [`IrrevocableConfig`] — knowledge + calibration constants; derives the
//!   paper's parameters `x = Θ(√(n·log n/(Φ·t_mix)))`, the territory target
//!   `x·t_mix·Φ`, and the phase schedule.
//! * [`IrrevocableProcess`] — the per-node state machine (Algorithms 1–5).
//! * [`run_irrevocable`] — wires a network and runs to halt.
//!
//! ## Example
//!
//! ```
//! use ale_core::irrevocable::{run_irrevocable, IrrevocableConfig};
//! use ale_graph::Topology;
//!
//! let topo = Topology::Complete { n: 32 };
//! let g = topo.build(1)?;
//! let cfg = IrrevocableConfig::derive_for(&g, &topo)?;
//! let outcome = run_irrevocable(&g, &cfg, 7)?;
//! assert_eq!(outcome.leader_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cautious;
pub mod msg;
pub mod process;

use crate::error::CoreError;
use crate::outcome::ElectionOutcome;
use ale_congest::{congest_budget, Network};
use ale_graph::{Graph, GraphProps, NetworkKnowledge, Topology};

pub use cautious::{CbBody, ExecState, ReportDiscipline, Status};
pub use msg::IrrMsg;
pub use process::{IrrevocableProcess, NodeVerdict};

/// Configuration of the irrevocable protocol: the assumed network knowledge
/// plus calibration constants (the paper's `c` and the hidden constant in
/// `x = Θ̃(√(n log n/(Φ t_mix)))`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrrevocableConfig {
    /// Known network characteristics `(n, t_mix, Φ)`.
    pub knowledge: NetworkKnowledge,
    /// The paper's constant `c > 0` (phase lengths, candidate probability).
    pub c: f64,
    /// Multiplier on the derived `x` (walk count calibration).
    pub x_cal: f64,
    /// CONGEST budget factor: per-link budget is `congest_factor·⌈log₂n⌉`
    /// bits (message fields span up to `4·log₂ n` bits, so ≥ 6 keeps runs
    /// clean).
    pub congest_factor: usize,
    /// Cautious-broadcast parent-report discipline (ablation knob).
    pub report_discipline: ReportDiscipline,
}

impl IrrevocableConfig {
    /// Builds a config from explicit knowledge with default calibration
    /// (`c = 2`, `x_cal = 1`, budget factor 8).
    pub fn from_knowledge(knowledge: NetworkKnowledge) -> Self {
        IrrevocableConfig {
            knowledge,
            c: 2.0,
            x_cal: 1.0,
            congest_factor: 8,
            report_discipline: ReportDiscipline::OnCrossing,
        }
    }

    /// Computes the graph's properties and derives the config from them.
    ///
    /// # Errors
    ///
    /// Propagates property-computation failures.
    pub fn derive(graph: &Graph) -> Result<Self, CoreError> {
        let props = GraphProps::compute(graph)?;
        Ok(Self::from_knowledge(NetworkKnowledge::from_props(&props)))
    }

    /// Like [`IrrevocableConfig::derive`] but uses closed forms for the
    /// given topology family where available (much faster in sweeps).
    ///
    /// # Errors
    ///
    /// Propagates property-computation failures.
    pub fn derive_for(graph: &Graph, topology: &Topology) -> Result<Self, CoreError> {
        let props = GraphProps::compute_for(graph, topology)?;
        Ok(Self::from_knowledge(NetworkKnowledge::from_props(&props)))
    }

    /// `⌈log₂ n⌉`, at least 1.
    pub fn log2_n(&self) -> u64 {
        let n = self.knowledge.n;
        if n <= 1 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as u64
        }
    }

    /// Super-round width: `⌈4c·log n⌉` slots (the paper's bound on parallel
    /// cautious-broadcast executions, whp).
    pub fn slots(&self) -> u64 {
        ((4.0 * self.c * self.log2_n() as f64).ceil() as u64).max(1)
    }

    /// Cautious-broadcast steps per execution: `⌈c·t_mix·log n⌉`.
    pub fn broadcast_steps(&self) -> u64 {
        ((self.c * self.knowledge.tmix as f64 * self.log2_n() as f64).ceil() as u64).max(1)
    }

    /// Wall-clock rounds of the broadcast phase (steps × slots).
    pub fn broadcast_rounds(&self) -> u64 {
        self.broadcast_steps().saturating_mul(self.slots())
    }

    /// Rounds of the walk phase (walk length `c·t_mix·log n`).
    pub fn walk_rounds(&self) -> u64 {
        self.broadcast_steps()
    }

    /// Rounds of the convergecast phase.
    pub fn converge_rounds(&self) -> u64 {
        self.broadcast_steps()
    }

    /// Total protocol rounds including the decision round.
    pub fn total_rounds(&self) -> u64 {
        self.broadcast_rounds() + self.walk_rounds() + self.converge_rounds() + 1
    }

    /// Number of random walks per candidate:
    /// `x = max(1, ⌈x_cal·√(n·ln n/(Φ·t_mix))⌉)`.
    pub fn x(&self) -> u64 {
        let k = &self.knowledge;
        let n = k.n as f64;
        let raw = self.x_cal * (n * n.ln().max(1.0) / (k.phi * k.tmix as f64)).sqrt();
        (raw.ceil() as u64).max(1)
    }

    /// Territory target `⌈x·t_mix·Φ⌉` for cautious broadcast.
    pub fn final_threshold(&self) -> u64 {
        let k = &self.knowledge;
        ((self.x() as f64 * k.tmix as f64 * k.phi).ceil() as u64).max(2)
    }

    /// Candidate probability `min(1, c·ln n / n)` (Algorithm 1 line 3).
    pub fn candidate_probability(&self) -> f64 {
        let n = self.knowledge.n as f64;
        (self.c * n.ln().max(1.0) / n).min(1.0)
    }

    /// ID space `{1..n⁴}` (Algorithm 1 line 2).
    pub fn id_space(&self) -> u64 {
        (self.knowledge.n as u64).saturating_pow(4).max(2)
    }

    /// Freezes the per-node parameter bundle for a node of the given
    /// degree.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the knowledge is degenerate
    /// (`n < 2`, `t_mix = 0`, `Φ ∉ (0, 1]`, non-positive constants).
    pub fn protocol_params(&self, degree: usize) -> Result<ProtocolParams, CoreError> {
        self.validate()?;
        if degree == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "node degree must be positive in a connected network".into(),
            });
        }
        Ok(ProtocolParams {
            n: self.knowledge.n,
            degree,
            id_space: self.id_space(),
            candidate_probability: self.candidate_probability(),
            x: self.x(),
            final_threshold: self.final_threshold(),
            slots: self.slots(),
            broadcast_rounds: self.broadcast_rounds(),
            walk_rounds: self.walk_rounds(),
            converge_rounds: self.converge_rounds(),
            report_discipline: self.report_discipline,
        })
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] with the violated constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        let k = &self.knowledge;
        if k.n < 2 {
            return Err(CoreError::InvalidConfig {
                reason: format!("need n >= 2, got {}", k.n),
            });
        }
        if k.tmix == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "t_mix must be positive".into(),
            });
        }
        if !(k.phi > 0.0 && k.phi <= 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("conductance must be in (0, 1], got {}", k.phi),
            });
        }
        if self.c <= 0.0 || self.x_cal <= 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: "calibration constants must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Per-node frozen parameters (what every anonymous node knows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolParams {
    /// Network size.
    pub n: usize,
    /// This node's degree.
    pub degree: usize,
    /// ID space upper bound (`n⁴`).
    pub id_space: u64,
    /// Candidate probability.
    pub candidate_probability: f64,
    /// Walks per candidate.
    pub x: u64,
    /// Territory target.
    pub final_threshold: u64,
    /// Super-round width.
    pub slots: u64,
    /// Broadcast phase length in rounds.
    pub broadcast_rounds: u64,
    /// Walk phase length in rounds.
    pub walk_rounds: u64,
    /// Convergecast phase length in rounds.
    pub converge_rounds: u64,
    /// Cautious-broadcast parent-report discipline.
    pub report_discipline: ReportDiscipline,
}

/// Runs the irrevocable protocol on `graph` with experiment seed `seed`.
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run_irrevocable(
    graph: &Graph,
    cfg: &IrrevocableConfig,
    seed: u64,
) -> Result<ElectionOutcome, CoreError> {
    cfg.validate()?;
    if graph.n() != cfg.knowledge.n {
        return Err(CoreError::InvalidConfig {
            reason: format!(
                "knowledge says n = {} but graph has {} nodes",
                cfg.knowledge.n,
                graph.n()
            ),
        });
    }
    let budget = congest_budget(cfg.knowledge.n, cfg.congest_factor);
    let cfg_copy = *cfg;
    let mut net = Network::from_fn(graph, seed, budget, |deg, rng| {
        let params = cfg_copy.protocol_params(deg).expect("validated before run");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn knowledge() -> NetworkKnowledge {
        NetworkKnowledge {
            n: 64,
            tmix: 8,
            phi: 0.4,
        }
    }

    #[test]
    fn config_derivations_are_consistent() {
        let cfg = IrrevocableConfig::from_knowledge(knowledge());
        assert_eq!(cfg.log2_n(), 6);
        assert_eq!(cfg.slots(), 48);
        assert_eq!(cfg.broadcast_steps(), 2 * 8 * 6);
        assert_eq!(cfg.broadcast_rounds(), 96 * 48);
        assert!(cfg.x() >= 1);
        assert!(cfg.final_threshold() >= 2);
        assert!(cfg.candidate_probability() > 0.0 && cfg.candidate_probability() <= 1.0);
        assert_eq!(cfg.id_space(), 64u64.pow(4));
        assert_eq!(
            cfg.total_rounds(),
            cfg.broadcast_rounds() + 2 * cfg.broadcast_steps() + 1
        );
    }

    #[test]
    fn x_matches_formula_shape() {
        // Doubling Φ·t_mix should shrink x by ~√2.
        let lo = IrrevocableConfig::from_knowledge(NetworkKnowledge {
            n: 1024,
            tmix: 16,
            phi: 0.25,
        });
        let hi = IrrevocableConfig::from_knowledge(NetworkKnowledge {
            n: 1024,
            tmix: 32,
            phi: 0.25,
        });
        let ratio = lo.x() as f64 / hi.x() as f64;
        assert!((1.2..=1.7).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn validation_catches_bad_inputs() {
        let mut cfg = IrrevocableConfig::from_knowledge(knowledge());
        cfg.knowledge.n = 1;
        assert!(cfg.validate().is_err());
        cfg = IrrevocableConfig::from_knowledge(knowledge());
        cfg.knowledge.phi = 0.0;
        assert!(cfg.validate().is_err());
        cfg = IrrevocableConfig::from_knowledge(knowledge());
        cfg.knowledge.tmix = 0;
        assert!(cfg.validate().is_err());
        cfg = IrrevocableConfig::from_knowledge(knowledge());
        cfg.c = -1.0;
        assert!(cfg.validate().is_err());
        cfg = IrrevocableConfig::from_knowledge(knowledge());
        assert!(cfg.validate().is_ok());
        assert!(cfg.protocol_params(0).is_err());
    }

    #[test]
    fn elects_on_a_graph_outside_the_generated_families() {
        // Two triangles joined by a bridge — low conductance, and no
        // topology hint, so `derive` computes every property itself.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
            .unwrap();
        let cfg = IrrevocableConfig::derive(&g).unwrap();
        let mut elected = 0;
        for seed in 0..6 {
            let o = run_irrevocable(&g, &cfg, seed).unwrap();
            assert!(o.leader_count() <= 1, "no split brain on tiny graphs");
            elected += usize::from(o.unique_leader().is_some());
        }
        assert!(elected >= 4, "only {elected}/6 runs elected");
    }

    #[test]
    fn run_rejects_mismatched_graph() {
        let g = ale_graph::generators::cycle(8).unwrap();
        let cfg = IrrevocableConfig::from_knowledge(knowledge()); // n = 64
        assert!(matches!(
            run_irrevocable(&g, &cfg, 0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
