//! **impossibility — the pumping-wheel phenomenon** (Theorem 2,
//! Figures 1–2).
//!
//! Witness geometry (static), the split-brain series (stop-by-`T`
//! protocol believing `C_{n₀}` run on `C_{f·n₀}`), and the revocable
//! contrast on a tractable ring.

use crate::agg::RunSummary;
use crate::params::{Axis, Block, ParamSpace, Range};
use crate::runners::GraphContexts;
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_core::revocable::{run_revocable, RevocableParams};
use ale_graph::Topology;
use ale_impossibility::{split_brain_trial, PumpingLayout};

const N0: usize = 8;
const CONTRAST_N: usize = 12;

/// The impossibility scenario.
pub struct Impossibility;

impl Scenario for Impossibility {
    fn name(&self) -> &'static str {
        "impossibility"
    }

    fn description(&self) -> &'static str {
        "Theorem 2 split-brain series on oversized rings + revocable contrast"
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
                "split",
                vec![Axis::ints("factor", [1, 4, 8, 16, 32, 64, 128])
                    .quick_ints([1, 8, 32])
                    .range(Range::at_least(1))
                    .help("ring blow-up factors N/n0")],
                |ctx| {
                    let f = ctx.int("factor")? as usize;
                    Ok(Some(
                        GridPoint::new(format!("split/N={}", N0 * f))
                            .on(Topology::Cycle { n: N0 * f })
                            .knowing(Knowledge::SizeOnly),
                    ))
                },
            ),
            Block::new("contrast", vec![], |_| {
                Ok(Some(
                    GridPoint::new(format!("contrast/C{CONTRAST_N}"))
                        .on(Topology::Cycle { n: CONTRAST_N })
                        .knowing(Knowledge::Blind)
                        .seeds(5),
                ))
            }),
        ])
    }

    fn bind(&self, point: &GridPoint, graphs: &GraphContexts) -> Result<TrialFn, LabError> {
        let point = point.clone();
        if point.label.starts_with("split/") {
            let big_n = point.n;
            Ok(Box::new(move |seed| {
                let trial = split_brain_trial(N0, big_n, seed)?;
                let mut r = TrialRecord::new("impossibility", &point, seed);
                r.absorb_metrics(&trial.outcome.metrics);
                r.leaders = trial.outcome.leader_count() as u64;
                // "ok" here means the Theorem 2 phenomenon did NOT appear
                // (unique leader despite the lie) — expected to decay to 0.
                r.ok = trial.outcome.leader_count() == 1;
                r.push_extra("split", if trial.split_brain() { 1.0 } else { 0.0 });
                if let Some(d) = trial.min_leader_distance() {
                    r.push_extra("min_leader_distance", d as f64);
                }
                Ok(r)
            }))
        } else {
            let g = graphs.graph(Topology::Cycle { n: CONTRAST_N }, 0)?;
            let params = RevocableParams::paper_blind(1.0, 0.2).with_scales(0.02, 0.25);
            let max_k = 8u64; // first k with k² > 4·12
            Ok(Box::new(move |seed| {
                let run = run_revocable(&g, &params, seed, max_k)?;
                let mut r = TrialRecord::new("impossibility", &point, seed);
                r.absorb_metrics(&run.outcome.metrics);
                r.leaders = run.outcome.leader_count() as u64;
                r.ok = run.outcome.leader_count() == 1;
                r.push_extra("stabilized", if run.stabilized { 1.0 } else { 0.0 });
                if let Some(rounds) = run.rounds_at_stability {
                    r.push_extra("rounds_at_stability", rounds as f64);
                }
                Ok(r)
            }))
        }
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut out =
            String::from("# E-F12: impossibility of irrevocable LE without n (Theorem 2)\n\n");

        out.push_str("## Witness geometry (Figures 1–2)\n\n");
        let mut geo = Table::new([
            "n0",
            "T",
            "N",
            "witnesses",
            "witness len",
            "core",
            "segment",
        ]);
        for (w_n0, t, blocks) in [(4usize, 3usize, 3usize), (8, 6, 4), (8, 6, 16)] {
            if let Ok(layout) = PumpingLayout::new(w_n0, t, blocks * (4 * t + 2 * w_n0)) {
                geo.push_row([
                    w_n0.to_string(),
                    t.to_string(),
                    layout.big_n.to_string(),
                    layout.witness_count().to_string(),
                    layout.witness_len().to_string(),
                    (2 * w_n0).to_string(),
                    w_n0.to_string(),
                ]);
            }
        }
        out.push_str(&geo.to_markdown());
        out.push_str(&format!(
            "Proof-sufficient block count for (n0=4, T=3, c=1/2): {} — versus the ~dozens of\n\
             blocks at which the phenomenon is already empirically overwhelming below.\n\n",
            PumpingLayout::proof_block_count(4, 3, 0.5)
        ));

        out.push_str(&format!(
            "## Split-brain frequency vs blow-up (n0 = {N0})\n\n"
        ));
        let mut tbl = Table::new(["N", "N/n0", "Pr[>=2 leaders]", "mean leaders"]);
        for p in run.points.iter().filter(|p| p.label.starts_with("split/")) {
            tbl.push_row([
                p.n.to_string(),
                (p.n as usize / N0).to_string(),
                format!("{:.2}", p.mean("split")),
                format!("{:.2}", p.mean("leaders")),
            ]);
        }
        out.push_str(&tbl.to_markdown());

        out.push_str(
            "\n## Revocable contrast (no knowledge of n; ring family, tractable size)\n\n",
        );
        let mut contrast = Table::new([
            "graph",
            "trials",
            "stabilized",
            "unique leader",
            "med rounds to stability",
        ]);
        for p in run
            .points
            .iter()
            .filter(|p| p.label.starts_with("contrast/"))
        {
            let stab = p
                .metric("stabilized")
                .map_or(0, |m| (m.mean() * m.count() as f64).round() as u64);
            contrast.push_row([
                p.label.trim_start_matches("contrast/").to_string(),
                p.trials.to_string(),
                format!("{stab}/{}", p.trials),
                format!("{}/{}", p.ok, p.trials),
                format!("{:.0}", p.median("rounds_at_stability")),
            ]);
        }
        out.push_str(&contrast.to_markdown());
        out.push_str(
            "\nThe stop-by-T protocol splits oversized rings into many leader domains;\n\
             the revocable protocol, never committing, converges to exactly one —\n\
             at the polynomial price Corollary 1 predicts (rings are its worst case).\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridConfig;

    #[test]
    fn grid_sweeps_blowup_factors() {
        let grid = Impossibility
            .grid(&GridConfig {
                quick: true,
                ..GridConfig::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 4);
        assert!(grid.iter().any(|p| p.label == "split/N=64"));
        assert!(grid.last().unwrap().label.starts_with("contrast/"));
    }
}
