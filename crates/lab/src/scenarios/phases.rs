//! **phases — the communication anatomy of one irrevocable run**.
//!
//! Traces messages per round and bins them into the protocol's three
//! phases: the cautious-broadcast plateau, the walk burst, and the
//! convergecast trickle. The per-round trace is folded into fixed
//! sparkline buckets so the record stays flat and serializable.

use crate::agg::RunSummary;
use crate::params::{Axis, Block, ParamSpace};
use crate::runners::GraphContexts;
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_congest::{congest_budget, Network};
use ale_core::irrevocable::{IrrevocableConfig, IrrevocableProcess};
use ale_graph::Topology;

/// Sparkline buckets persisted per trial.
const BUCKETS: usize = 40;

/// The phase-profile scenario.
pub struct Phases;

impl Scenario for Phases {
    fn name(&self) -> &'static str {
        "phases"
    }

    fn description(&self) -> &'static str {
        "per-phase message anatomy of one irrevocable run (broadcast/walk/convergecast)"
    }

    fn default_seeds(&self, _quick: bool) -> u64 {
        1
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![Block::new(
            "profile",
            vec![Axis::topologies("topo", [Topology::Hypercube { dim: 6 }])
                .quick_topologies([Topology::Complete { n: 32 }])
                .help("the run to profile (one point per topology)")],
            |ctx| {
                let topo = ctx.topology("topo")?;
                Ok(Some(
                    GridPoint::new(format!("{topo}"))
                        .on(topo)
                        .knowing(Knowledge::Full),
                ))
            },
        )])
    }

    fn bind(&self, point: &GridPoint, graphs: &GraphContexts) -> Result<TrialFn, LabError> {
        let view = point.view();
        let topo = view.topology()?;
        let ctx = graphs.get(topo, view.graph_seed(1))?;
        let cfg = IrrevocableConfig::from_knowledge(ctx.knowledge);
        let budget = congest_budget(cfg.knowledge.n);
        let point = point.clone();
        Ok(Box::new(move |seed| {
            let cfg_copy = cfg;
            let mut net = Network::from_fn(&ctx.graph, seed, budget, |deg, rng| {
                let params = cfg_copy
                    .protocol_params(deg)
                    .expect("derived config yields valid params");
                IrrevocableProcess::new(params, rng)
            });
            net.enable_trace();
            net.run_to_halt(cfg.total_rounds() + 4)?;

            let b_end = cfg.broadcast_rounds();
            let w_end = b_end + cfg.walk_rounds();
            let mut phase_stats = [(0u64, 0u64, 0u64); 3];
            for t in net.trace() {
                let idx = if t.round < b_end {
                    0
                } else if t.round < w_end {
                    1
                } else {
                    2
                };
                phase_stats[idx].0 += 1;
                phase_stats[idx].1 += t.messages;
                phase_stats[idx].2 += t.bits;
            }
            let trace = net.trace();
            let per = (trace.len() / BUCKETS).max(1);
            let mut volumes = vec![0u64; BUCKETS];
            for (i, t) in trace.iter().enumerate() {
                volumes[(i / per).min(BUCKETS - 1)] += t.messages;
            }

            let mut r = TrialRecord::new("phases", &point, seed);
            r.absorb_metrics(net.metrics());
            r.ok = true;
            r.push_extra("b_end", b_end as f64);
            r.push_extra("w_end", w_end as f64);
            r.push_extra("c_end", (w_end + cfg.converge_rounds()) as f64);
            for (name, (rounds, msgs, bits)) in ["broadcast", "walk", "convergecast"]
                .iter()
                .zip(phase_stats)
            {
                r.push_extra(format!("{name}_rounds"), rounds as f64);
                r.push_extra(format!("{name}_msgs"), msgs as f64);
                r.push_extra(format!("{name}_bits"), bits as f64);
            }
            for (i, v) in volumes.iter().enumerate() {
                r.push_extra(format!("bucket_{i:02}"), *v as f64);
            }
            Ok(r)
        }))
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let Some(p) = run.points.first() else {
            return String::from("# Phase profile (no data)\n");
        };
        let mut out = format!(
            "# Phase profile on {} (master seed {})\n\n\
             phase boundaries: broadcast [0, {:.0}), walk [{:.0}, {:.0}), convergecast [{:.0}, {:.0})\n\n",
            p.label,
            run.master_seed,
            p.mean("b_end"),
            p.mean("b_end"),
            p.mean("w_end"),
            p.mean("w_end"),
            p.mean("c_end"),
        );
        let mut tbl = Table::new(["phase", "rounds", "messages", "bits", "msgs/round"]);
        for name in ["broadcast", "walk", "convergecast"] {
            let rounds = p.mean(&format!("{name}_rounds"));
            let msgs = p.mean(&format!("{name}_msgs"));
            tbl.push_row([
                name.to_string(),
                format!("{rounds:.0}"),
                format!("{msgs:.0}"),
                format!("{:.0}", p.mean(&format!("{name}_bits"))),
                format!("{:.2}", msgs / rounds.max(1.0)),
            ]);
        }
        out.push_str(&tbl.to_markdown());

        let volumes: Vec<f64> = (0..BUCKETS)
            .map(|i| p.mean(&format!("bucket_{i:02}")))
            .collect();
        let max = volumes.iter().copied().fold(1.0f64, f64::max);
        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let line: String = volumes
            .iter()
            .map(|&v| glyphs[((v / max) * 9.0).round() as usize])
            .collect();
        out.push_str(&format!("message-volume sparkline (time →):\n[{line}]\n"));
        out.push_str(&format!(
            "\ntotal: {:.0} messages, {:.0} rounds; walk burst dominates per-round volume,\n\
             broadcast dominates wall-clock (the multiplexed super-rounds of Theorem 1).\n",
            p.mean("messages"),
            p.mean("rounds")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridConfig;

    #[test]
    fn single_point_grid() {
        let grid = Phases.grid(&GridConfig::default()).unwrap();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].n, 64);
        let quick = Phases
            .grid(&GridConfig {
                quick: true,
                ..GridConfig::default()
            })
            .unwrap();
        assert_eq!(quick[0].n, 32);
    }
}
