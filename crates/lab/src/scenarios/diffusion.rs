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
//!   ladder `α = 1/(2k^{1+ε})`; and
//! * `--n` builds a **large-n ladder** (torus / ring / 4-regular expander
//!   at each requested size, tens of thousands of nodes) where `α` is the
//!   chain's natural `1/(2·d_max)` — the protocol-ladder `α = Θ(1/n)`
//!   would push convergence past any simulable horizon. Rounds are capped;
//!   capped trials report `converged = 0` and stay non-failing (the bound
//!   is not contradicted).
//!
//! Both price the chain conductance as `φ = α·i(G)` (proof of Theorem 3):
//! every cut edge carries exactly `α` crossing mass. `i(G)` comes from the
//! run's memo — exact up to the cut oracle's limit, then the family's
//! closed form or the spectral bound.

use crate::agg::RunSummary;
use crate::params::{Axis, AxisValue, Block, ParamSpace, Range};
use crate::runners::GraphContexts;
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_graph::{transition, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 1.0;
const MAX_ROUNDS: u64 = 4_000_000;
/// Round cap for the large-n ladder (full grid).
const LARGE_CAP: u64 = 200_000;
/// Round cap for the large-n ladder under `--quick`.
const LARGE_CAP_QUICK: u64 = 20_000;
/// Above this size points run the capped natural-`α` regime.
const LARGE_N: usize = 2048;

/// The diffusion-convergence scenario. Its `γ` points on one graph share
/// that graph's isoperimetric estimate through the run's memo.
pub struct Diffusion;

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

    fn bind(&self, point: &GridPoint, graphs: &GraphContexts) -> Result<TrialFn, LabError> {
        let view = point.view();
        let topo = view.topology()?;
        let gamma = view.float("gamma")?;
        let graph_seed = view.graph_seed(0);
        let graph = graphs.graph(topo, graph_seed)?;
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
        // Priced before the chain is built, so a spectral estimate's
        // operator is freed before the chain's storage is allocated.
        let phi = alpha * graphs.isoperimetric(topo, graph_seed)?;
        let chain = transition::diffusion_chain(&graph, alpha)
            .map_err(|e| LabError::BadArgs(format!("diffusion chain: {e}")))?;
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

    use crate::engine::{execute, RunSpec};
    use crate::scenario::GridConfig;

    /// `phi_chain` of every point of a one-seed diffusion run.
    fn phi_chain_bits(grid: GridConfig) -> Vec<(String, u64)> {
        let diffusion = crate::registry::find("diffusion").expect("diffusion is registered");
        let spec = RunSpec {
            workers: 1,
            grid,
            ..RunSpec::default()
        };
        execute(diffusion.as_ref(), &spec)
            .unwrap()
            .records
            .iter()
            .map(|r| {
                let phi = r.extra.iter().find(|(k, _)| k == "phi_chain").unwrap().1;
                (r.point.clone(), phi.to_bits())
            })
            .collect()
    }

    #[test]
    fn phi_chain_bits_are_pinned() {
        // Stored runs carry these exact bits: the default families at the
        // k-ladder alpha 1/(2k^2), and the `--n 9` rungs at 1/(2·d_max).
        let quick = phi_chain_bits(GridConfig {
            quick: true,
            ..GridConfig::default()
        });
        let ladder = phi_chain_bits(GridConfig {
            quick: true,
            ns: vec![9],
            ..GridConfig::default()
        });
        let got: Vec<(&str, u64)> = quick
            .iter()
            .chain(&ladder)
            .map(|(label, bits)| (label.as_str(), *bits))
            .collect();
        assert_eq!(
            got,
            [
                ("complete(n=12)/gamma=0.1", 0x3fa8000000000000),
                ("cycle(n=12)/gamma=0.1", 0x3f65555555555555),
                ("hypercube(d=3)/gamma=0.1", 0x3f80000000000000),
                ("star(n=10)/gamma=0.1", 0x3f80000000000000),
                ("barbell(k=5)/gamma=0.1", 0x3f5999999999999a),
                ("torus(3x3)/gamma=0.1", 0x3fd0000000000000),
                ("cycle(n=9)/gamma=0.1", 0x3fc0000000000000),
                ("rregular(n=9,d=4)/gamma=0.1", 0x3fd0000000000000),
            ]
        );
    }

    #[test]
    fn grid_crosses_families_and_gammas() {
        let full = Diffusion.grid(&GridConfig::default()).unwrap();
        assert_eq!(full.len(), 5 * 3);
        let quick = Diffusion
            .grid(&GridConfig {
                quick: true,
                ..GridConfig::default()
            })
            .unwrap();
        assert_eq!(quick.len(), 5);
    }

    #[test]
    fn ns_override_builds_the_large_ladder() {
        let grid = Diffusion
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
        let grid = Diffusion
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
        let grid = Diffusion
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
