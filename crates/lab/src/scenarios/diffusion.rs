//! **diffusion — diffusion convergence vs the Lemma 4 bound** (Lemmas
//! 3–4).
//!
//! Builds the diffusion matrix per family on the **sparse CSR backend**
//! (`ale_graph::transition::diffusion_chain`, `O(m)` per step), runs the
//! potential vector forward from a one-white-node start, measures the
//! first round with max relative error ≤ γ, and compares against
//! `(2/φ²)·ln(n/γ)` — measured/bound ≤ 1 everywhere is the target.
//!
//! Two regimes share the scenario:
//!
//! * the legacy small families (default grid) keep the paper's blind-`k`
//!   ladder `α = 1/(2k^{1+ε})` and the exact chain conductance; and
//! * `--n` builds a **large-n ladder** (torus / ring / 4-regular expander
//!   at each requested size, tens of thousands of nodes) where `α` is the
//!   chain's natural `1/(2·d_max)` — the protocol-ladder `α = Θ(1/n)`
//!   would push convergence past any simulable horizon — and
//!   `φ = α·i(G)` is priced from the analytic/spectral isoperimetric
//!   estimate. Rounds are capped; capped trials report `converged = 0`
//!   and stay non-failing (the bound is not contradicted).

use crate::agg::RunSummary;
use crate::params::{Axis, AxisValue, Block, ParamSpace, Range};
use crate::runners::GraphContexts;
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_graph::props::Estimate;
use ale_graph::{transition, Topology};
use ale_markov::conductance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 1.0;
const MAX_ROUNDS: u64 = 4_000_000;
/// Round cap for the large-n ladder (full grid).
const LARGE_CAP: u64 = 200_000;
/// Round cap for the large-n ladder under `--quick`.
const LARGE_CAP_QUICK: u64 = 20_000;
/// Above this size the bind switches to estimated conductance and the
/// natural-`α` regime (the exact chain-conductance oracle stops at 22).
const LARGE_N: usize = 2048;

/// The diffusion-convergence scenario. Its `γ` points on one graph share
/// that graph's isoperimetric estimate through the run's memo.
#[derive(Default)]
pub struct Diffusion {
    isoperimetric: GraphContexts<Estimate>,
}

/// The legacy small-family suite — the `topo` axis default.
fn default_topologies() -> Vec<Topology> {
    vec![
        Topology::Complete { n: 12 },
        Topology::Cycle { n: 12 },
        Topology::Hypercube { dim: 3 },
        Topology::Star { n: 10 },
        Topology::Barbell { k: 5 },
    ]
}

impl Scenario for Diffusion {
    fn name(&self) -> &'static str {
        "diffusion"
    }

    fn description(&self) -> &'static str {
        "diffusion convergence time vs the (2/phi^2)ln(n/gamma) bound (Lemmas 3-4)"
    }

    fn default_seeds(&self, _quick: bool) -> u64 {
        1
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![Block::new(
            "convergence",
            vec![
                Axis::topologies("topo", default_topologies())
                    .help("families spanning the conductance spectrum"),
                Axis::floats("gamma", [0.1, 0.01, 0.001])
                    .quick_floats([0.1])
                    .range(Range::Positive)
                    .linked(|ctx| {
                        // Large graphs get a shorter gamma ladder: each
                        // extra γ decade multiplies an already-capped
                        // round budget.
                        let topo = ctx.topology("topo").ok()?;
                        (topo.node_count() > LARGE_N).then(|| vec![AxisValue::Float(0.1)])
                    })
                    .help("relative-error convergence target"),
            ],
            |ctx| {
                let topo = ctx.topology("topo")?;
                let gamma = ctx.float("gamma")?;
                let mut p = GridPoint::new(format!("{topo}/gamma={gamma}"))
                    .on(topo)
                    .knowing(Knowledge::Blind);
                // Ladder points and over-large explicit topologies run
                // the capped natural-alpha regime (the protocol-ladder
                // alpha would push convergence past any simulable
                // horizon).
                if ctx.ladder || topo.node_count() > LARGE_N {
                    let cap = if ctx.quick {
                        LARGE_CAP_QUICK
                    } else {
                        LARGE_CAP
                    };
                    p = p.with("cap", cap as f64);
                }
                Ok(Some(p))
            },
        )])
        .with_ladder(
            "n",
            "topo",
            "torus / ring / expander ladder at each size",
            super::large_n_topologies,
        )
    }

    fn bind(&self, point: &GridPoint) -> Result<TrialFn, LabError> {
        let view = point.view();
        let topo = view.topology()?;
        let gamma = view.float("gamma")?;
        let graph_seed = view.graph_seed(0);
        let graph = topo.build(graph_seed)?;
        let n = graph.n();
        // The cap knob marks the natural-alpha large/ladder regime.
        let large = view.knob("cap").is_some();
        let (alpha, k) = if large {
            // The chain's natural scale: fastest valid uniform averaging.
            (1.0 / (2.0 * graph.max_degree() as f64), 0u64)
        } else {
            // First k with k^{1+eps} >= 2n+1 (the Lemma 5 regime where the
            // averaging matrix is valid for every degree).
            let mut k = 2u64;
            while (k as f64).powf(1.0 + EPS) < (2 * n + 1) as f64 {
                k *= 2;
            }
            (1.0 / (2.0 * (k as f64).powf(1.0 + EPS)), k)
        };
        let chain = transition::diffusion_chain(&graph, alpha)
            .map_err(|e| LabError::BadArgs(format!("diffusion chain: {e}")))?;
        let phi = match conductance::chain_conductance_exact(chain.transition()) {
            Ok(v) => v,
            // Beyond the exact oracle: phi(chain) = alpha * i(G), since
            // every cut edge carries exactly alpha crossing mass.
            Err(_) => {
                alpha
                    * super::isoperimetric_estimate(&self.isoperimetric, &graph, topo, graph_seed)?
            }
        };
        let cap = view.knob("cap").map_or(MAX_ROUNDS, |c| c as u64);
        let point = point.clone();
        Ok(Box::new(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let white = rng.gen_range(0..n);
            let mut pot: Vec<f64> = (0..n).map(|i| if i == white { 0.0 } else { 1.0 }).collect();
            let mut next = vec![0.0; n];
            let avg = pot.iter().sum::<f64>() / n as f64;
            let mut round = 0u64;
            let mut measured = None;
            while measured.is_none() && round < cap {
                chain
                    .step_into(&pot, &mut next)
                    .map_err(|e| LabError::BadArgs(format!("chain step: {e}")))?;
                std::mem::swap(&mut pot, &mut next);
                round += 1;
                let max_rel = pot
                    .iter()
                    .map(|p| (p - avg).abs() / avg)
                    .fold(0.0f64, f64::max);
                if max_rel <= gamma {
                    measured = Some(round);
                }
            }
            let bound = (2.0 / (phi * phi)) * (n as f64 / gamma).ln();
            let m = measured.unwrap_or(cap);
            let mut r = TrialRecord::new("diffusion", &point, seed);
            r.rounds = m;
            r.ok = (m as f64) <= bound;
            r.push_extra("measured", m as f64);
            r.push_extra("bound", bound);
            r.push_extra("ratio", m as f64 / bound);
            r.push_extra("phi_chain", phi);
            r.push_extra("k", k as f64);
            r.push_extra("alpha", alpha);
            r.push_extra("converged", if measured.is_some() { 1.0 } else { 0.0 });
            Ok(r)
        }))
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut tbl = Table::new([
            "family",
            "n",
            "k",
            "alpha",
            "phi(chain)",
            "gamma",
            "conv",
            "measured rounds",
            "bound (2/phi^2)ln(n/gamma)",
            "measured/bound",
        ]);
        for p in &run.points {
            tbl.push_row([
                p.family.clone(),
                p.n.to_string(),
                format!("{:.0}", p.mean("k")),
                format!("{:.2e}", p.mean("alpha")),
                format!("{:.6}", p.mean("phi_chain")),
                format!("{}", p.param("gamma").unwrap_or(0.0)),
                format!("{:.2}", p.mean("converged")),
                format!("{:.0}", p.mean("measured")),
                format!("{:.0}", p.mean("bound")),
                format!("{:.3}", p.mean("ratio")),
            ]);
        }
        format!(
            "# E-L34: diffusion convergence vs Lemma 4 bound (eps={EPS})\n\n{}\n\
             Lemma 4 reproduced iff every measured/bound ≤ 1. The bound is loose by\n\
             design (Cheeger is quadratic); ratios ≪ 1 on well-connected families are expected.\n\
             Large-n rows (k = 0) run the chain's natural alpha = 1/(2·d_max) on the sparse\n\
             CSR backend; conv < 1 marks round-capped trials (bound not contradicted).\n",
            tbl.to_markdown()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::scenario::GridConfig;

    #[test]
    fn grid_crosses_families_and_gammas() {
        let full = Diffusion::default().grid(&GridConfig::default()).unwrap();
        assert_eq!(full.len(), 5 * 3);
        let quick = Diffusion::default()
            .grid(&GridConfig {
                quick: true,
                ..GridConfig::default()
            })
            .unwrap();
        assert_eq!(quick.len(), 5);
    }

    #[test]
    fn ns_override_builds_the_large_ladder() {
        let grid = Diffusion::default()
            .grid(&GridConfig {
                ns: vec![20_000],
                quick: true,
                ..GridConfig::default()
            })
            .unwrap();
        // torus:141x141, cycle:20000, rregular:20000x4 — one gamma each.
        assert_eq!(grid.len(), 3);
        for p in &grid {
            assert!(p.n >= 19_000, "large ladder point too small: {}", p.n);
            assert_eq!(p.param("cap"), Some(LARGE_CAP_QUICK as f64));
        }
    }

    #[test]
    fn large_points_get_single_gamma() {
        let grid = Diffusion::default()
            .grid(&GridConfig {
                ns: vec![20_000],
                ..GridConfig::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 3, "full mode still one gamma per large topo");
        assert!(grid.iter().all(|p| p.param("gamma") == Some(0.1)));
    }

    #[test]
    fn param_override_sweeps_beyond_any_hardcoded_grid() {
        // The acceptance sweep: gammas nobody hard-coded, at a ladder
        // size below the large-N cutoff — every point still carries the
        // capped natural-alpha regime because the ladder built it.
        let grid = Diffusion::default()
            .grid(&GridConfig {
                quick: true,
                params: vec![
                    ("gamma".into(), vec!["0.1".into(), "0.3".into()]),
                    ("n".into(), vec!["512".into()]),
                ],
                ..GridConfig::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 3 * 2);
        assert!(grid.iter().all(|p| p.param("cap").is_some()));
        assert!(grid.iter().any(|p| p.param("gamma") == Some(0.3)));
    }
}
