//! **ablation-cautious — parent-report discipline ablation**.
//!
//! Runs the cautious-broadcast reporting knob both ways on the same
//! graphs/seeds: `OnCrossing` (message-optimal, larger overshoot) vs
//! `OnChange` (tighter overshoot, more messages), then checks full
//! elections are correct under both.

use crate::agg::RunSummary;
use crate::params::{Axis, Block, ParamSpace, Range};
use crate::runners::GraphContexts;
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::scenarios::cautious::planted_broadcast;
use crate::table::Table;
use ale_core::irrevocable::{run_irrevocable, IrrevocableConfig, ReportDiscipline};
use ale_graph::Topology;

const GRAPH_SEED: u64 = 3;
const ELECTION_GRAPH_SEED: u64 = 1;

/// The report-discipline ablation scenario. Both disciplines on a graph
/// share one graph context through the run's memo.
pub struct AblationCautious;

const DISCIPLINES: [(ReportDiscipline, &str); 2] = [
    (ReportDiscipline::OnCrossing, "OnCrossing"),
    (ReportDiscipline::OnChange, "OnChange"),
];

fn discipline_from(name: f64) -> ReportDiscipline {
    if name == 0.0 {
        ReportDiscipline::OnCrossing
    } else {
        ReportDiscipline::OnChange
    }
}

impl Scenario for AblationCautious {
    fn name(&self) -> &'static str {
        "ablation-cautious"
    }

    fn description(&self) -> &'static str {
        "cautious-broadcast parent-report discipline: overshoot/messages trade-off"
    }

    fn default_seeds(&self, quick: bool) -> u64 {
        if quick {
            5
        } else {
            15
        }
    }

    fn space(&self) -> ParamSpace {
        let discipline_axis = || {
            Axis::ints("discipline", [0, 1])
                .range(Range::Ints(0, 1))
                .help("0 = OnCrossing (message-optimal), 1 = OnChange")
        };
        ParamSpace::new(vec![
            Block::new(
                "territory",
                vec![
                    Axis::topologies(
                        "topo",
                        [
                            Topology::RandomRegular { n: 192, d: 4 },
                            Topology::Grid2d {
                                rows: 12,
                                cols: 12,
                                torus: true,
                            },
                        ],
                    )
                    .help("single-candidate broadcast arenas"),
                    discipline_axis(),
                ],
                |ctx| {
                    let topo = ctx.topology("topo")?;
                    let name = DISCIPLINES[ctx.int("discipline")? as usize].1;
                    Ok(Some(
                        GridPoint::new(format!("territory/{topo}/{name}"))
                            .on(topo)
                            .knowing(Knowledge::Full)
                            .with("part", 1.0),
                    ))
                },
            ),
            Block::new(
                "election",
                vec![
                    Axis::topologies(
                        "election-topo",
                        [Topology::Complete { n: 32 }, Topology::Hypercube { dim: 5 }],
                    )
                    .help("full-election graphs"),
                    discipline_axis(),
                ],
                |ctx| {
                    let topo = ctx.topology("election-topo")?;
                    let name = DISCIPLINES[ctx.int("discipline")? as usize].1;
                    Ok(Some(
                        GridPoint::new(format!("election/{topo}/{name}"))
                            .on(topo)
                            .knowing(Knowledge::Full)
                            .with("part", 2.0),
                    ))
                },
            ),
        ])
    }

    fn bind(&self, point: &GridPoint, graphs: &GraphContexts) -> Result<TrialFn, LabError> {
        let view = point.view();
        let topo = view.topology()?;
        let discipline = discipline_from(view.knob("discipline").unwrap_or(0.0));
        let part = view.knob("part").unwrap_or(1.0);
        if part == 1.0 {
            let ctx = graphs.get(topo, view.graph_seed(GRAPH_SEED))?;
            let mut cfg = IrrevocableConfig::from_knowledge(ctx.knowledge);
            cfg.report_discipline = discipline;
            let target = cfg.final_threshold() as f64;
            let point = point.clone();
            Ok(Box::new(move |seed| {
                let params = cfg.protocol_params(1)?;
                let (territory, metrics) = planted_broadcast(&ctx.graph, &cfg, params, seed)?;
                let mut r = TrialRecord::new("ablation-cautious", &point, seed);
                r.absorb_metrics(&metrics);
                r.ok = territory >= 1;
                r.push_extra("territory", territory as f64);
                r.push_extra("target", target);
                Ok(r)
            }))
        } else {
            let ctx = graphs.get(topo, view.graph_seed(ELECTION_GRAPH_SEED))?;
            let mut cfg = IrrevocableConfig::from_knowledge(ctx.knowledge);
            cfg.report_discipline = discipline;
            let point = point.clone();
            Ok(Box::new(move |seed| {
                let outcome = run_irrevocable(&ctx.graph, &cfg, seed)?;
                let mut r = TrialRecord::new("ablation-cautious", &point, seed);
                r.absorb_metrics(&outcome.metrics);
                r.leaders = outcome.leader_count() as u64;
                r.ok = outcome.is_successful();
                Ok(r)
            }))
        }
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut out = String::from("# Ablation: cautious-broadcast parent-report discipline\n\n");
        out.push_str("## Single-candidate territories\n\n");
        let mut tbl = Table::new([
            "graph",
            "discipline",
            "target",
            "mean territory",
            "overshoot",
            "mean msgs",
        ]);
        for p in run
            .points
            .iter()
            .filter(|p| p.label.starts_with("territory/"))
        {
            let mut parts = p.label.splitn(3, '/');
            parts.next();
            let graph = parts.next().unwrap_or("?");
            let discipline = parts.next().unwrap_or("?");
            let target = p.mean("target");
            let territory = p.mean("territory");
            tbl.push_row([
                graph.to_string(),
                discipline.to_string(),
                format!("{target:.0}"),
                format!("{territory:.1}"),
                format!("{:.2}x", territory / target.max(1.0)),
                format!("{:.0}", p.mean("messages")),
            ]);
        }
        out.push_str(&tbl.to_markdown());

        out.push_str("\n## Full elections under both disciplines\n\n");
        let mut tbl2 = Table::new(["graph", "discipline", "success", "med msgs"]);
        for p in run
            .points
            .iter()
            .filter(|p| p.label.starts_with("election/"))
        {
            let mut parts = p.label.splitn(3, '/');
            parts.next();
            let graph = parts.next().unwrap_or("?");
            let discipline = parts.next().unwrap_or("?");
            tbl2.push_row([
                graph.to_string(),
                discipline.to_string(),
                format!("{}/{}", p.ok, p.trials),
                format!("{:.0}", p.median("messages")),
            ]);
        }
        out.push_str(&tbl2.to_markdown());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridConfig;

    #[test]
    fn grid_covers_both_parts_and_disciplines() {
        let grid = AblationCautious.grid(&GridConfig::default()).unwrap();
        assert_eq!(grid.len(), 8);
        assert_eq!(
            grid.iter()
                .filter(|p| p.label.starts_with("election/"))
                .count(),
            4
        );
        assert!(grid.iter().any(|p| p.label.ends_with("OnChange")));
    }
}
