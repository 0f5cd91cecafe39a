//! **cautious — cautious-broadcast cost and coverage** (Lemma 1).
//!
//! Plants a single candidate, runs only the broadcast phase, and sweeps
//! the walk-budget parameter `x`: territory should track the target
//! `x·t_mix·Φ` within small constants until it saturates at `n`, and
//! messages should stay ~linear in the territory.

use crate::agg::RunSummary;
use crate::fit::power_fit;
use crate::params::{Axis, Block, ParamSpace};
use crate::runners::GraphContexts;
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_congest::{congest_budget, Network};
use ale_core::irrevocable::{IrrevocableConfig, IrrevocableProcess};
use ale_graph::Topology;

const GRAPH_SEED: u64 = 3;

/// The cautious-broadcast scenario. Every `x` of a topology shares one
/// graph context through the run's memo.
#[derive(Default)]
pub struct Cautious {
    contexts: GraphContexts,
}

impl Scenario for Cautious {
    fn name(&self) -> &'static str {
        "cautious"
    }

    fn description(&self) -> &'static str {
        "single-candidate cautious broadcast: territory and message cost vs x (Lemma 1)"
    }

    fn default_seeds(&self, quick: bool) -> u64 {
        if quick {
            4
        } else {
            12
        }
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![Block::new(
            "territory",
            vec![
                Axis::topologies(
                    "topo",
                    [
                        Topology::RandomRegular { n: 256, d: 4 },
                        Topology::Grid2d {
                            rows: 16,
                            cols: 16,
                            torus: true,
                        },
                    ],
                )
                .help("broadcast arenas (expander + torus)"),
                Axis::ints("x", [1, 2, 4, 8, 16, 32])
                    .quick_ints([1, 4, 16])
                    .help("walk-budget parameter (Lemma 1 sweeps it)"),
            ],
            |ctx| {
                let topo = ctx.topology("topo")?;
                let x = ctx.int("x")?;
                if x == 0 {
                    return Err(LabError::BadArgs(
                        "--param x=0: the walk budget must be at least 1".into(),
                    ));
                }
                Ok(Some(
                    GridPoint::new(format!("{topo}/x={x}"))
                        .on(topo)
                        .knowing(Knowledge::Full),
                ))
            },
        )])
    }

    fn bind(&self, point: &GridPoint) -> Result<TrialFn, LabError> {
        let view = point.view();
        let topo = view.topology()?;
        let x = view.int("x")?;
        let ctx = self.contexts.get(topo, view.graph_seed(GRAPH_SEED))?;
        let knowledge = ctx.knowledge;
        let cfg = IrrevocableConfig::from_knowledge(knowledge);
        let budget = congest_budget(knowledge.n, cfg.congest_factor);
        let target = (x as f64 * knowledge.tmix as f64 * knowledge.phi)
            .ceil()
            .max(2.0);
        let point = point.clone();
        Ok(Box::new(move |seed| {
            let mut params = cfg.protocol_params(1)?;
            params.x = x;
            params.final_threshold = target as u64;
            // Plant exactly one candidate at node 0 (host-side planting;
            // the processes themselves stay anonymous).
            let graph = &ctx.graph;
            let procs: Vec<IrrevocableProcess> = (0..graph.n())
                .map(|v| {
                    let mut p = params;
                    p.degree = graph.degree(v);
                    IrrevocableProcess::with_candidacy(p, 1 + v as u64, v == 0)
                })
                .collect();
            let mut net = Network::new(graph, procs, seed, budget)?;
            net.run_for(cfg.broadcast_rounds())?;
            let territory = net
                .processes()
                .iter()
                .filter(|p| !p.known_sources().is_empty())
                .count();
            let mut r = TrialRecord::new("cautious", &point, seed);
            r.absorb_metrics(net.metrics());
            r.ok = territory >= 1;
            r.push_extra("territory", territory as f64);
            r.push_extra("target", target);
            r.push_extra("tmix", knowledge.tmix as f64);
            r.push_extra("phi", knowledge.phi);
            Ok(r)
        }))
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut out = String::from("# E-L1: cautious broadcast (single candidate)\n\n");
        let mut topos: Vec<String> = Vec::new();
        for p in &run.points {
            let topo = p.label.split('/').next().unwrap_or("?").to_string();
            if !topos.contains(&topo) {
                topos.push(topo);
            }
        }
        for topo in topos {
            let points: Vec<_> = run
                .points
                .iter()
                .filter(|p| p.label.starts_with(&format!("{topo}/")))
                .collect();
            let Some(first) = points.first() else {
                continue;
            };
            out.push_str(&format!(
                "## {topo} (n={}, t_mix={:.0}, phi={:.4})\n\n",
                first.n,
                first.mean("tmix"),
                first.mean("phi")
            ));
            let mut tbl = Table::new([
                "x",
                "target x*tmix*phi",
                "mean territory",
                "territory/target",
                "mean msgs",
                "msgs/territory",
                "rounds",
            ]);
            let mut pts = Vec::new();
            for p in &points {
                let target = p.param("x").map_or(0.0, |_| p.mean("target"));
                let territory = p.mean("territory");
                let msgs = p.mean("messages");
                tbl.push_row([
                    format!("{:.0}", p.param("x").unwrap_or(0.0)),
                    format!("{target:.0}"),
                    format!("{territory:.1}"),
                    format!("{:.2}", territory / target.max(1.0)),
                    format!("{msgs:.0}"),
                    format!("{:.2}", msgs / territory.max(1.0)),
                    format!("{:.0}", p.mean("rounds")),
                ]);
                pts.push((target.max(1.0), territory.max(1.0)));
            }
            out.push_str(&tbl.to_markdown());
            if pts.len() >= 2 {
                let fit = power_fit(&pts);
                out.push_str(&format!(
                    "territory vs target exponent: {:.3} (r^2 {:.3}; Lemma 1 predicts ~1.0 until\n\
                     the territory saturates at n)\n\n",
                    fit.exponent, fit.r_squared
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_sweeps_x_per_topology() {
        let grid = Cautious::default()
            .grid(&crate::scenario::GridConfig {
                quick: true,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 2 * 3);
        assert!(grid.iter().all(|p| p.param("x").is_some()));
    }
}
