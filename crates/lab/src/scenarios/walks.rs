//! **walks — random-walk hitting rates** (Lemma 2).
//!
//! Paper regime (protocol's own budgets, 6 candidates): hit rate must be
//! ≈ 1.00 — the Lemma 2 claim. Stress regime (pinned-small territories,
//! 1/16 walk length, 3 candidates): hit rates rise with the walk count
//! `x`, exposing the knee the paper's `x` protects against.
//!
//! `--n` swaps the grid for 4-regular expanders at each requested size,
//! paper regime only: graph properties come from the sparse spectral
//! path (`O(m)` CSR power iteration), and expanders are the family whose
//! `O(t_mix)` walk budgets stay simulable at `n ≥ 20 000` (ring/torus
//! mixing times at that scale exceed any CONGEST budget).

use crate::agg::RunSummary;
use crate::params::{Axis, Block, ParamSpace, Range};
use crate::runners::GraphContexts;
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_congest::{congest_budget, Network};
use ale_core::irrevocable::{IrrevocableConfig, IrrevocableProcess};
use ale_graph::{transition, Topology};
use ale_markov::mixing;

const GRAPH_SEED: u64 = 9;
/// Candidates the paper regime plants, one every `n / 6` nodes: the
/// smallest graph the scenario runs on.
const PAPER_CANDIDATES: usize = 6;
/// Above this size only the paper regime at `mult = 1` runs (the stress
/// regime's many knee points would multiply an already-large CONGEST cost).
const LARGE_N: usize = 2048;

/// The walk-hitting scenario. Both regimes' points on a topology share one
/// graph context through the run's memo.
pub struct Walks;

impl Scenario for Walks {
    fn name(&self) -> &'static str {
        "walks"
    }

    fn description(&self) -> &'static str {
        "walk hitting rates vs x, paper and stress regimes (Lemma 2)"
    }

    fn default_seeds(&self, quick: bool) -> u64 {
        if quick {
            5
        } else {
            15
        }
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![
            Block::new(
                "paper",
                vec![Axis::floats("mult", [0.25, 0.5, 1.0, 2.0])
                    .range(Range::Positive)
                    .help("multiplier on the protocol's own walk budget x")],
                |ctx| {
                    let topo = ctx.topology("topo")?;
                    let mult = ctx.float("mult")?;
                    // Large graphs run the paper regime at mult = 1 only:
                    // the knee sweep would multiply an already-large
                    // CONGEST cost.
                    if topo.node_count() > LARGE_N && mult != 1.0 {
                        return Ok(None);
                    }
                    Ok(Some(
                        GridPoint::new(format!("{topo}/paper/mult={mult}"))
                            .on(topo)
                            .knowing(Knowledge::Full)
                            .with("candidates", PAPER_CANDIDATES as f64),
                    ))
                },
            ),
            Block::new(
                "stress",
                vec![Axis::ints("x", [1, 2, 4, 8, 16])
                    .range(Range::at_least(1))
                    .help("absolute walk count (pinned-small territories)")],
                |ctx| {
                    let topo = ctx.topology("topo")?;
                    if topo.node_count() > LARGE_N {
                        return Ok(None);
                    }
                    let x = ctx.int("x")?;
                    Ok(Some(
                        GridPoint::new(format!("{topo}/stress/x={x}"))
                            .on(topo)
                            .knowing(Knowledge::Full)
                            .with("candidates", 3.0)
                            .with("threshold", 4.0),
                    ))
                },
            ),
        ])
        .with_shared(vec![Axis::topologies(
            "topo",
            [
                Topology::RandomRegular { n: 128, d: 4 },
                Topology::Grid2d {
                    rows: 12,
                    cols: 12,
                    torus: true,
                },
            ],
        )
        .range(Range::Nodes(PAPER_CANDIDATES))
        .help("walk arenas (expander + torus)")])
        .with_ladder("n", "topo", "4-regular expanders at each size", |ns| {
            ns.iter()
                .map(|&n| Topology::RandomRegular { n, d: 4 })
                .collect()
        })
    }

    fn bind(&self, point: &GridPoint, graphs: &GraphContexts) -> Result<TrialFn, LabError> {
        let view = point.view();
        let topo = view.topology()?;
        let ctx = graphs.get(topo, view.graph_seed(GRAPH_SEED))?;
        let (graph, knowledge) = (&ctx.graph, ctx.knowledge);
        let cfg = IrrevocableConfig::from_knowledge(knowledge);
        let budget = congest_budget(knowledge.n);
        let paper_x = cfg.x();

        // Large non-vertex-transitive families: cross-check the knowledge
        // bundle's t_mix with the cheap multi-start sampling estimator
        // (`O(t·m)` on the sparse backend) and report it alongside.
        let tmix_sampled = if graph.n() > LARGE_N {
            transition::lazy_walk_chain(graph).ok().and_then(|chain| {
                let starts = mixing::sample_starts(graph.n(), 3, GRAPH_SEED);
                let cap = knowledge.tmix.saturating_mul(8).max(1 << 12);
                mixing::mixing_time_multi_start(&chain, &starts, cap)
                    .ok()
                    .map(|t| t as f64)
            })
        } else {
            None
        };

        let candidates = view
            .knob("candidates")
            .map_or(PAPER_CANDIDATES, |c| c as usize);
        let (x, threshold, walk_len) = if let Some(mult) = view.knob("mult") {
            (
                ((paper_x as f64 * mult).ceil() as u64).max(1),
                None,
                cfg.walk_rounds(),
            )
        } else {
            let x = view.int("x")?;
            (x, Some(4u64), (cfg.walk_rounds() / 16).max(4))
        };
        let point = point.clone();
        Ok(Box::new(move |seed| {
            let graph = &ctx.graph;
            let n = graph.n();
            let mut params = cfg.protocol_params(1)?;
            params.x = x;
            if let Some(t) = threshold {
                params.final_threshold = t;
            }
            params.walk_rounds = walk_len;
            let step = n / candidates;
            let procs: Vec<IrrevocableProcess> = (0..n)
                .map(|v| {
                    let mut p = params;
                    p.degree = graph.degree(v);
                    let is_cand = v % step == 0 && v / step < candidates;
                    let id = if is_cand {
                        1_000_000 + (v / step) as u64
                    } else {
                        1 + v as u64
                    };
                    IrrevocableProcess::with_candidacy(p, id, is_cand)
                })
                .collect();
            let mut net = Network::new(graph, procs, seed, budget)?;
            let total_rounds =
                params.broadcast_rounds + params.walk_rounds + params.converge_rounds + 1;
            net.run_to_halt(total_rounds + 4)?;
            let verdicts = net.outputs();
            let max_id = 1_000_000 + candidates as u64 - 1;
            let mut hits = 0u64;
            let mut total = 0u64;
            let mut leaders = 0u64;
            for v in verdicts.iter().filter(|v| v.candidate) {
                total += 1;
                if v.observed_walk_max == Some(max_id) {
                    hits += 1;
                }
                if v.leader {
                    leaders += 1;
                }
            }
            let winner_ok = verdicts.iter().any(|v| v.leader && v.id == max_id);
            let mut r = TrialRecord::new("walks", &point, seed);
            r.absorb_metrics(net.metrics());
            r.leaders = leaders;
            r.ok = leaders == 1 && winner_ok;
            r.push_extra("hits", hits as f64);
            r.push_extra("cands", total as f64);
            r.push_extra("x_eff", x as f64);
            if let Some(t) = tmix_sampled {
                r.push_extra("tmix_sampled", t);
            }
            Ok(r)
        }))
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut out = String::from("# E-L2: walk hitting rates (Lemma 2)\n\n");
        let mut topos: Vec<String> = Vec::new();
        for p in &run.points {
            let topo = p.label.split('/').next().unwrap_or("?").to_string();
            if !topos.contains(&topo) {
                topos.push(topo);
            }
        }
        for topo in topos {
            out.push_str(&format!("## {topo}\n\n"));
            for (regime, header, title) in [
                (
                    "paper",
                    "x multiplier",
                    "### Paper regime (expect hit rate 1.00 — the Lemma 2 claim)\n\n",
                ),
                (
                    "stress",
                    "x",
                    "### Stress regime (territory target 4, walk length x1/16, 3 candidates)\n\n",
                ),
            ] {
                let points: Vec<_> = run
                    .points
                    .iter()
                    .filter(|p| p.label.starts_with(&format!("{topo}/{regime}/")))
                    .collect();
                if points.is_empty() {
                    continue;
                }
                out.push_str(title);
                let mut tbl = Table::new([header, "x", "hit rate", "election success"]);
                for p in points {
                    let knob = p.param("mult").or_else(|| p.param("x")).unwrap_or(0.0);
                    let hit_rate = p.mean("hits") / p.mean("cands").max(1.0);
                    tbl.push_row([
                        format!("{knob}"),
                        format!("{:.0}", p.mean("x_eff")),
                        format!("{hit_rate:.2}"),
                        format!("{}/{}", p.ok, p.trials),
                    ]);
                }
                out.push_str(&tbl.to_markdown());
                out.push('\n');
            }
        }
        out.push_str(
            "Reproduction criterion: paper-regime hit rates ≈ 1.00 everywhere; the\n\
             stress regime shows hit rates rising with x — the budget Lemma 2 sizes.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridConfig;

    #[test]
    fn grid_has_both_regimes() {
        let grid = Walks.grid(&GridConfig::default()).unwrap();
        assert_eq!(grid.len(), 2 * (4 + 5));
        assert!(grid.iter().any(|p| p.label.contains("/paper/")));
        assert!(grid.iter().any(|p| p.label.contains("/stress/")));
    }

    #[test]
    fn ns_override_is_paper_regime_expanders_only() {
        let grid = Walks
            .grid(&GridConfig {
                ns: vec![20_000],
                ..GridConfig::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].n, 20_000);
        assert!(grid[0].label.contains("/paper/"));
        // No seed pin: --seeds must be honored for large sweeps.
        assert_eq!(grid[0].seeds, None);
    }
}
