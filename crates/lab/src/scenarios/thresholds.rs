//! **thresholds — potential thresholds `τ(k)` across the estimate
//! ladder** (Lemma 5).
//!
//! Runs the diffusion for the paper's `r(k)` rounds per estimate on the
//! **sparse CSR backend** (`ale_graph::transition::diffusion_chain`,
//! `O(m)` per step) and reports the max terminal potential against
//! `τ(k)`: in the high regime (`k^{1+ε} ≥ 2n+1`) every run must finish
//! below τ — the detection signal the protocol exploits.
//!
//! `--n` builds a large-n ladder (torus / ring / expander per size) whose
//! `k` values bracket the first high-regime estimate. At those scales
//! `r(k)` is astronomically larger than any simulable budget, so rounds
//! are capped; capped trials report `evaluated = 0` and never count as
//! Lemma 5 violations — the scenario's value there is the measured
//! terminal-potential trajectory itself, now reachable at `n ≥ 20 000`.

use crate::agg::RunSummary;
use crate::params::{Axis, AxisValue, Block, ParamSpace, Range};
use crate::runners::GraphContexts;
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_core::revocable::RevocableParams;
use ale_graph::{transition, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 1.0;
const XI: f64 = 0.2;
const ROUND_CAP: u64 = 2_000_000;
/// Round cap for large-n points (full grid / `--quick`).
const LARGE_CAP: u64 = 50_000;
const LARGE_CAP_QUICK: u64 = 10_000;
/// Above this size points carry a `cap` knob and use estimated `i(G)`.
const LARGE_N: usize = 2048;

/// The threshold-detection scenario. Its `k` rungs on one graph share
/// that graph's isoperimetric estimate through the run's memo.
pub struct Thresholds;

/// The `k` ladder for one topology: the legacy `[2, 4, 8, 16]` for small
/// graphs, and powers of two bracketing the first high-regime estimate
/// (`k^{1+ε} ≥ 2n+1`) for large ones — the rungs where Lemma 5's
/// detection signal actually flips.
fn k_ladder(n: usize) -> Vec<u64> {
    if n <= LARGE_N {
        return vec![2, 4, 8, 16];
    }
    let mut k_high = 2u64;
    while (k_high as f64).powf(1.0 + EPS) < (2 * n + 1) as f64 {
        k_high *= 2;
    }
    vec![(k_high / 4).max(2), (k_high / 2).max(2), k_high, 2 * k_high]
}

impl Scenario for Thresholds {
    fn name(&self) -> &'static str {
        "thresholds"
    }

    fn description(&self) -> &'static str {
        "terminal potentials vs tau(k) across the estimate ladder (Lemma 5)"
    }

    fn default_seeds(&self, _quick: bool) -> u64 {
        1
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![Block::new(
            "ladder",
            vec![
                Axis::topologies(
                    "topo",
                    vec![
                        Topology::Complete { n: 8 },
                        Topology::Cycle { n: 8 },
                        Topology::Hypercube { dim: 3 },
                        Topology::Star { n: 8 },
                    ],
                )
                .quick_topologies([Topology::Complete { n: 8 }, Topology::Cycle { n: 8 }])
                .help("families the estimate ladder sweeps"),
                Axis::ints("k", [2, 4, 8, 16])
                    .range(Range::at_least(2))
                    .linked(|ctx| {
                        // The rungs where detection flips depend on the
                        // topology's size (see `k_ladder`).
                        let topo = ctx.topology("topo").ok()?;
                        Some(
                            k_ladder(topo.node_count())
                                .into_iter()
                                .map(AxisValue::Int)
                                .collect(),
                        )
                    })
                    .help("size-estimate rungs (computed per topology unless overridden)"),
            ],
            |ctx| {
                let topo = ctx.topology("topo")?;
                let k = ctx.int("k")?;
                let mut p = GridPoint::new(format!("{topo}/k={k}"))
                    .on(topo)
                    .knowing(Knowledge::Blind);
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
        let k = view.int("k")?;
        let graph_seed = view.graph_seed(0);
        let graph = graphs.graph(topo, graph_seed)?;
        let n = graph.n();
        let ig = graphs.isoperimetric(topo, graph_seed)?;
        let params = RevocableParams::paper_with_ig(EPS, XI, ig);
        let k_pow = params.k_pow(k);
        let tau = params.tau(k);
        let high = k_pow >= (2 * n + 1) as f64;
        // Degrees above k^{1+eps} invalidate the averaging matrix; the
        // protocol flags those nodes low directly.
        let flagged = (0..n).any(|v| graph.degree(v) as f64 > k_pow);
        let point = point.clone();
        if flagged {
            return Ok(Box::new(move |seed| {
                let mut r = TrialRecord::new("thresholds", &point, seed);
                r.ok = true;
                r.push_extra("flagged", 1.0);
                r.push_extra("k_pow", k_pow);
                r.push_extra("tau", tau);
                Ok(r)
            }));
        }
        let alpha = 1.0 / (2.0 * k_pow);
        let chain = transition::diffusion_chain(&graph, alpha)
            .map_err(|e| LabError::BadArgs(format!("diffusion chain: {e}")))?;
        let p_white = params.p(k);
        let cap = view.knob("cap").map_or(ROUND_CAP, |c| c as u64);
        let r_full = params.r(k);
        let rounds = r_full.min(cap);
        let evaluated = rounds == r_full;
        Ok(Box::new(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            // Color with p(k); force at least one white (Lemma 5 assumes
            // l >= 1 — the l = 0 case is Lemma 6's business).
            let mut pot: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(p_white) { 0.0 } else { 1.0 })
                .collect();
            if pot.iter().all(|&x| x == 1.0) {
                pot[rng.gen_range(0..n)] = 0.0;
            }
            let whites = pot.iter().filter(|&&x| x == 0.0).count();
            let mut next = vec![0.0; n];
            for _ in 0..rounds {
                chain
                    .step_into(&pot, &mut next)
                    .map_err(|e| LabError::BadArgs(format!("chain step: {e}")))?;
                std::mem::swap(&mut pot, &mut next);
            }
            let max_pot = pot.iter().copied().fold(0.0f64, f64::max);
            let mut r = TrialRecord::new("thresholds", &point, seed);
            r.rounds = rounds;
            // The lemma's claim binds in the high regime, and only when the
            // full r(k) budget actually ran (capped trials are reported,
            // not judged).
            r.ok = !high || !evaluated || max_pot <= tau;
            r.push_extra("flagged", 0.0);
            r.push_extra("k_pow", k_pow);
            r.push_extra("high", if high { 1.0 } else { 0.0 });
            r.push_extra("evaluated", if evaluated { 1.0 } else { 0.0 });
            r.push_extra("whites", whites as f64);
            r.push_extra("max_pot", max_pot);
            r.push_extra("tau", tau);
            r.push_extra("below_tau", if max_pot <= tau { 1.0 } else { 0.0 });
            Ok(r)
        }))
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut tbl = Table::new([
            "family",
            "n",
            "k",
            "k^(1+eps)",
            "regime",
            "whites",
            "rounds run",
            "max potential",
            "tau(k)",
            "below tau",
        ]);
        for p in &run.points {
            let k = p.param("k").unwrap_or(0.0);
            if p.mean("flagged") > 0.5 {
                tbl.push_row([
                    p.family.clone(),
                    p.n.to_string(),
                    format!("{k:.0}"),
                    format!("{:.0}", p.mean("k_pow")),
                    "degree>k^(1+eps) (flagged low)".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{:.4}", p.mean("tau")),
                    "-".into(),
                ]);
                continue;
            }
            let regime = if p.mean("evaluated") < 1.0 {
                "capped (not judged)"
            } else if p.mean("high") > 0.5 {
                "high (Lemma 5)"
            } else {
                "low"
            };
            tbl.push_row([
                p.family.clone(),
                p.n.to_string(),
                format!("{k:.0}"),
                format!("{:.0}", p.mean("k_pow")),
                regime.into(),
                format!("{:.1}", p.mean("whites")),
                format!("{:.0}", p.mean("rounds")),
                format!("{:.6}", p.mean("max_pot")),
                format!("{:.6}", p.mean("tau")),
                (p.mean("below_tau") == 1.0).to_string(),
            ]);
        }
        format!(
            "# E-L5: potential thresholds tau(k) across the estimate ladder (eps={EPS})\n\n{}\n\
             Lemma 5 reproduced iff every 'high' regime row has below-tau = true.\n\
             Low-regime rows may exceed tau — that is exactly the detection signal.\n\
             Capped rows ran fewer than the paper's r(k) rounds (sparse backend, large n)\n\
             and are reported without judging the lemma.\n",
            tbl.to_markdown()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridConfig;

    #[test]
    fn grid_sweeps_the_estimate_ladder() {
        let grid = Thresholds
            .grid(&GridConfig {
                quick: true,
                ..GridConfig::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 2 * 4);
        assert!(grid.iter().all(|p| p.param("k").is_some()));
    }

    #[test]
    fn large_ladder_brackets_the_high_regime() {
        let ks = k_ladder(20_000);
        assert_eq!(ks.len(), 4);
        // eps = 1: first high k has k^2 >= 40001, i.e. k = 256.
        assert_eq!(ks, vec![64, 128, 256, 512]);
        let grid = Thresholds
            .grid(&GridConfig {
                ns: vec![20_000],
                ..GridConfig::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 3 * 4);
        assert!(grid.iter().all(|p| p.param("cap").is_some()));
    }
}
