//! **table1 — the Table 1 shootout** (paper Table 1).
//!
//! This paper's irrevocable protocol against the related-work baselines on
//! the same graphs/seeds: success rates and median message/bit/round costs
//! across well-, intermediate-, and poorly-connected families.

use crate::agg::RunSummary;
use crate::params::{Axis, Block, ParamSpace};
use crate::runners::{Algorithm, GraphContexts};
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_graph::Topology;

/// Graph seed shared by every Table 1 cell (same graph across algorithms).
const GRAPH_SEED: u64 = 1;

/// The Table 1 scenario. Its five algorithms share one graph context per
/// topology through the run's memo.
#[derive(Default)]
pub struct Table1 {
    contexts: GraphContexts,
}

/// The standard comparison suite at size `n`: every family from the
/// paper's Table 1 whose shape constraints admit `n`.
pub fn suite_for(n: usize) -> Vec<Topology> {
    let mut suite = Vec::new();
    if n >= 2 {
        suite.push(Topology::Complete { n });
    }
    if n >= 4 && n.is_power_of_two() {
        suite.push(Topology::Hypercube {
            dim: n.trailing_zeros() as usize,
        });
    }
    // random_regular needs d < n and n·d even; d = 4 makes n·d always even.
    if n > 4 {
        suite.push(Topology::RandomRegular { n, d: 4 });
    }
    let side = (n as f64).sqrt().round() as usize;
    if side >= 3 && side * side == n {
        suite.push(Topology::Grid2d {
            rows: side,
            cols: side,
            torus: true,
        });
    }
    if n.is_multiple_of(8) && n / 8 >= 3 {
        suite.push(Topology::RingOfCliques {
            cliques: n / 8,
            k: 8,
        });
    }
    if n >= 3 {
        suite.push(Topology::Cycle { n });
    }
    suite
}

fn knowledge_of(alg: Algorithm) -> Knowledge {
    match alg {
        Algorithm::ThisWork | Algorithm::Gilbert => Knowledge::Full,
        Algorithm::Kutten | Algorithm::FloodOnChange | Algorithm::FloodEveryRound => {
            Knowledge::SizeOnly
        }
    }
}

impl Scenario for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn description(&self) -> &'static str {
        "Table 1 shootout: this work vs baselines across topology families"
    }

    fn default_seeds(&self, quick: bool) -> u64 {
        if quick {
            10
        } else {
            32
        }
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![Block::new(
            "shootout",
            vec![
                Axis::topologies("topo", suite_for(64))
                    .quick_topologies([
                        Topology::Complete { n: 32 },
                        Topology::Hypercube { dim: 5 },
                        Topology::Cycle { n: 16 },
                    ])
                    .help("comparison families (Table 1 rows)"),
                Axis::algorithms("algo", Algorithm::ALL)
                    .help("this work vs the related-work baselines"),
            ],
            |ctx| {
                let topo = ctx.topology("topo")?;
                let alg = ctx.algorithm("algo")?;
                Ok(Some(
                    GridPoint::new(format!("{topo}/{alg}"))
                        .on(topo)
                        .algo(alg)
                        .knowing(knowledge_of(alg)),
                ))
            },
        )])
        .with_ladder("n", "topo", "the comparison suite at each size", |ns| {
            ns.iter().flat_map(|&n| suite_for(n)).collect()
        })
    }

    fn bind(&self, point: &GridPoint) -> Result<TrialFn, LabError> {
        let view = point.view();
        let topo = view.topology()?;
        let alg = view.algorithm()?;
        let ctx = self.contexts.get(topo, view.graph_seed(GRAPH_SEED))?;
        let point = point.clone();
        Ok(Box::new(move |seed| {
            let outcome = ctx.run(alg, seed)?;
            let mut r = TrialRecord::new("table1", &point, seed);
            r.absorb_metrics(&outcome.metrics);
            r.leaders = outcome.leader_count() as u64;
            r.ok = outcome.is_successful();
            r.push_extra("m", ctx.props.m as f64);
            r.push_extra("tmix", ctx.knowledge.tmix as f64);
            r.push_extra("phi", ctx.knowledge.phi);
            Ok(r)
        }))
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut table = Table::new([
            "family",
            "n",
            "m",
            "t_mix",
            "phi",
            "algorithm",
            "success",
            "med msgs",
            "med bits",
            "med congest rounds",
        ]);
        for p in &run.points {
            table.push_row([
                p.family.clone(),
                p.n.to_string(),
                format!("{:.0}", p.mean("m")),
                format!("{:.0}", p.mean("tmix")),
                format!("{:.4}", p.mean("phi")),
                p.algorithm.clone(),
                format!("{}/{}", p.ok, p.trials),
                format!("{:.0}", p.median("messages")),
                format!("{:.0}", p.median("bits")),
                format!("{:.0}", p.median("congest_rounds")),
            ]);
        }
        format!(
            "# E-T1: Table 1 shootout ({} seeds per cell, master seed {})\n\n{}\nCSV:\n{}",
            run.seeds,
            run.master_seed,
            table.to_markdown(),
            table.to_csv()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_adapts_to_shape_constraints() {
        let s64 = suite_for(64);
        assert!(s64.contains(&Topology::Hypercube { dim: 6 }));
        assert!(s64.contains(&Topology::Grid2d {
            rows: 8,
            cols: 8,
            torus: true
        }));
        assert!(s64.contains(&Topology::RingOfCliques { cliques: 8, k: 8 }));
        let s12 = suite_for(12);
        assert!(!s12.iter().any(|t| matches!(t, Topology::Hypercube { .. })));
        assert!(s12.contains(&Topology::Cycle { n: 12 }));
    }

    #[test]
    fn grid_covers_every_algorithm_per_topology() {
        let grid = Table1::default()
            .grid(&crate::scenario::GridConfig {
                quick: true,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 3 * Algorithm::ALL.len());
        assert!(grid
            .iter()
            .all(|p| p.topology.is_some() && p.algorithm.is_some()));
    }

    #[test]
    fn n_override_builds_the_suite() {
        let grid = Table1::default()
            .grid(&crate::scenario::GridConfig {
                ns: vec![16],
                ..Default::default()
            })
            .unwrap();
        assert!(grid.iter().any(|p| p.label.starts_with("complete(n=16)")));
        assert!(grid.iter().any(|p| p.label.starts_with("hypercube(d=4)")));
    }

    #[test]
    fn algo_param_narrows_the_grid_with_validation() {
        let grid = Table1::default()
            .grid(&crate::scenario::GridConfig {
                quick: true,
                params: vec![("algo".into(), vec!["this-work".into()])],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 3);
        assert!(grid
            .iter()
            .all(|p| p.algorithm == Some(Algorithm::ThisWork)));
        assert!(matches!(
            Table1::default().grid(&crate::scenario::GridConfig {
                params: vec![("algo".into(), vec!["nonesuch".into()])],
                ..Default::default()
            }),
            Err(LabError::BadArgs(_))
        ));
    }
}
