//! **scaling — message-complexity exponents** (Theorem 1's shape).
//!
//! Sweeps `n` per family for this work vs the Gilbert baseline, fitting
//! measured messages against both raw `n` and the theory quantity
//! `q(n) = √(n·ln n·t_mix/Φ)·log₂²n`.

use crate::agg::RunSummary;
use crate::fit::power_fit;
use crate::params::{Axis, Block, ParamSpace};
use crate::runners::{Algorithm, GraphContexts};
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_graph::Topology;

const GRAPH_SEED: u64 = 1;
const ALGS: [Algorithm; 2] = [Algorithm::ThisWork, Algorithm::Gilbert];

/// The scaling scenario. Both algorithms of a size share one graph
/// context through the run's memo.
#[derive(Default)]
pub struct Scaling {
    contexts: GraphContexts,
}

/// Theorem 1's explicit message quantity (see the module docs).
fn theory_q(n: f64, tmix: f64, phi: f64) -> f64 {
    let log2n = n.log2().max(1.0);
    (n * n.ln().max(1.0) * tmix / phi).sqrt() * log2n * log2n
}

/// The family-major topology ladder (complete, hypercube, cycle), full or
/// quick-truncated — the declared defaults of the `topo` axis.
fn family_topologies(quick: bool) -> Vec<Topology> {
    let mut complete_sizes: Vec<usize> = vec![16, 32, 64, 128, 256];
    let mut hypercube_dims: Vec<usize> = vec![4, 5, 6, 7, 8];
    let mut cycle_sizes: Vec<usize> = vec![8, 12, 16, 24, 32, 48];
    if quick {
        complete_sizes.truncate(3);
        hypercube_dims.truncate(3);
        cycle_sizes.truncate(4);
    }
    let mut topos: Vec<Topology> = Vec::new();
    topos.extend(complete_sizes.into_iter().map(|n| Topology::Complete { n }));
    topos.extend(
        hypercube_dims
            .into_iter()
            .map(|dim| Topology::Hypercube { dim }),
    );
    topos.extend(cycle_sizes.into_iter().map(|n| Topology::Cycle { n }));
    topos
}

impl Scenario for Scaling {
    fn name(&self) -> &'static str {
        "scaling"
    }

    fn description(&self) -> &'static str {
        "message-complexity exponents vs n and the Theorem 1 quantity q(n)"
    }

    fn default_seeds(&self, quick: bool) -> u64 {
        if quick {
            6
        } else {
            20
        }
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![Block::new(
            "exponents",
            vec![
                Axis::topologies("topo", family_topologies(false))
                    .quick_topologies(family_topologies(true))
                    .help("family-major size ladder (complete, hypercube, cycle)"),
                Axis::algorithms("algo", ALGS).help("this work vs the Gilbert baseline"),
            ],
            |ctx| {
                let topo = ctx.topology("topo")?;
                let alg = ctx.algorithm("algo")?;
                Ok(Some(
                    GridPoint::new(format!("{}/n={}/{alg}", topo.family(), topo.node_count()))
                        .on(topo)
                        .algo(alg)
                        .knowing(Knowledge::Full),
                ))
            },
        )])
        .with_ladder(
            "n",
            "topo",
            "complete and cycle families at each size",
            |ns| {
                let mut topos: Vec<Topology> =
                    ns.iter().map(|&n| Topology::Complete { n }).collect();
                topos.extend(ns.iter().map(|&n| Topology::Cycle { n }));
                topos
            },
        )
    }

    fn bind(&self, point: &GridPoint) -> Result<TrialFn, LabError> {
        let view = point.view();
        let topo = view.topology()?;
        let alg = view.algorithm()?;
        let ctx = self.contexts.get(topo, view.graph_seed(GRAPH_SEED))?;
        let q = theory_q(
            ctx.props.n as f64,
            ctx.knowledge.tmix as f64,
            ctx.knowledge.phi,
        );
        let point = point.clone();
        Ok(Box::new(move |seed| {
            let outcome = ctx.run(alg, seed)?;
            let mut r = TrialRecord::new("scaling", &point, seed);
            r.absorb_metrics(&outcome.metrics);
            r.leaders = outcome.leader_count() as u64;
            r.ok = outcome.is_successful();
            r.push_extra("tmix", ctx.knowledge.tmix as f64);
            r.push_extra("phi", ctx.knowledge.phi);
            r.push_extra("q", q);
            Ok(r)
        }))
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut out = format!(
            "# E-T1b: message scaling ({} seeds per point)\n\n",
            run.seeds
        );
        let mut fits = Table::new([
            "family",
            "algorithm",
            "raw exponent in n",
            "exponent vs theory q(n)",
            "r^2 (theory fit)",
        ]);

        // Points arrive family-major, then size, then algorithm.
        let mut families: Vec<&str> = Vec::new();
        for p in &run.points {
            let family = p.label.split('/').next().unwrap_or("?");
            if !families.contains(&family) {
                families.push(family);
            }
        }

        for family in families {
            let mut series = Table::new([
                "n",
                "t_mix",
                "phi",
                "theory q(n)",
                "this-work msgs",
                "gilbert18 msgs",
                "ratio",
            ]);
            let mut this_pts = Vec::new();
            let mut this_theory_pts = Vec::new();
            let mut gil_pts = Vec::new();
            let member = |p: &&crate::agg::PointStats, alg: Algorithm| {
                p.label.starts_with(&format!("{family}/")) && p.algorithm == alg.to_string()
            };
            let this_points: Vec<_> = run
                .points
                .iter()
                .filter(|p| member(p, Algorithm::ThisWork))
                .collect();
            for tp in &this_points {
                let gp = run
                    .points
                    .iter()
                    .find(|p| member(p, Algorithm::Gilbert) && p.n == tp.n);
                let tw = tp.median("messages");
                let gl = gp.map_or(0.0, |p| p.median("messages"));
                let n = tp.n as f64;
                let q = tp.mean("q");
                this_pts.push((n, tw.max(1.0)));
                this_theory_pts.push((q, tw.max(1.0)));
                gil_pts.push((n, gl.max(1.0)));
                series.push_row([
                    tp.n.to_string(),
                    format!("{:.0}", tp.mean("tmix")),
                    format!("{:.4}", tp.mean("phi")),
                    format!("{q:.0}"),
                    format!("{tw:.0}"),
                    format!("{gl:.0}"),
                    format!("{:.2}", gl / tw.max(1.0)),
                ]);
            }
            out.push_str(&format!("## {family}\n\n{}", series.to_markdown()));
            if this_pts.len() >= 2 {
                let tw_fit = power_fit(&this_pts);
                let tw_theory_fit = power_fit(&this_theory_pts);
                let gl_fit = power_fit(&gil_pts);
                fits.push_row([
                    family.to_string(),
                    "this-work".into(),
                    format!("{:.3}", tw_fit.exponent),
                    format!("{:.3}", tw_theory_fit.exponent),
                    format!("{:.3}", tw_theory_fit.r_squared),
                ]);
                fits.push_row([
                    family.to_string(),
                    "gilbert18".into(),
                    format!("{:.3}", gl_fit.exponent),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }

        out.push_str(&format!("\n## Fitted exponents\n\n{}", fits.to_markdown()));
        out.push_str(
            "\nReproduction criterion: this-work's exponent against the theory quantity\n\
             q(n) = sqrt(n·ln n·t_mix/phi)·log2²n is ≈ 1 (±0.35), i.e. measured messages\n\
             track Theorem 1's bound; and the gilbert/this-work ratio grows on cycles.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_pairs_algorithms_per_size() {
        let grid = Scaling::default()
            .grid(&crate::scenario::GridConfig {
                quick: true,
                ..Default::default()
            })
            .unwrap();
        // quick: 3 complete + 3 hypercube + 4 cycle sizes, × 2 algorithms.
        assert_eq!(grid.len(), 20);
        assert!(grid.iter().any(|p| p.label == "complete/n=16/this-work"));
        assert!(grid.iter().any(|p| p.label == "cycle/n=24/gilbert18"));
    }

    #[test]
    fn theory_quantity_is_monotone_in_n_for_fixed_mixing() {
        assert!(theory_q(64.0, 10.0, 0.5) > theory_q(16.0, 10.0, 0.5));
    }
}
