//! **certification — certification-phase statistics** (Lemmas 6–8).
//!
//! Monte-Carlo checks of the coloring lemmas with the paper's exact
//! parameter functions, plus Lemma 7 validated at the protocol level by
//! reading certificate distributions from real runs. Each Monte-Carlo
//! *trial* is one `f(k)`-iteration coloring experiment, so the per-point
//! seed override dials the MC sample size.

use crate::agg::RunSummary;
use crate::params::{Axis, Block, ParamSpace, Range};
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_core::revocable::{run_revocable, RevocableParams};
use ale_graph::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 1.0;
const XI: f64 = 0.2;

/// The certification-statistics scenario.
pub struct Certification;

impl Scenario for Certification {
    fn name(&self) -> &'static str {
        "certification"
    }

    fn description(&self) -> &'static str {
        "white-iteration counting (Lemmas 6 & 8) and certificate levels (Lemma 7)"
    }

    fn default_seeds(&self, quick: bool) -> u64 {
        // Only used for points without overrides; both parts override.
        if quick {
            5
        } else {
            15
        }
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![
            Block::new(
                "mc",
                vec![
                    Axis::ints("mc-n", [8, 16, 32])
                        .range(Range::at_least(1))
                        .help("coloring-experiment sizes"),
                    Axis::ints("k", [2, 4, 8, 16])
                        .range(Range::at_least(2))
                        .help("size-estimate rungs"),
                ],
                |ctx| {
                    let n = ctx.int("mc-n")?;
                    let k = ctx.int("k")?;
                    let mc_trials = if ctx.quick { 200 } else { 2000 };
                    Ok(Some(
                        GridPoint::new(format!("mc/n={n}/k={k}"))
                            .knowing(Knowledge::Blind)
                            .seeds(mc_trials),
                    ))
                },
            ),
            Block::new(
                "lemma7",
                vec![Axis::ints("lemma7-n", [4, 8, 12])
                    .range(Range::at_least(2))
                    .help("clique sizes for real-run certificates")],
                |ctx| {
                    let n = ctx.int("lemma7-n")? as usize;
                    let run_trials = if ctx.quick { 5 } else { 15 };
                    Ok(Some(
                        GridPoint::new(format!("lemma7/n={n}"))
                            .on(Topology::Complete { n })
                            .knowing(Knowledge::Blind)
                            .seeds(run_trials),
                    ))
                },
            ),
        ])
    }

    fn bind(&self, point: &GridPoint) -> Result<TrialFn, LabError> {
        let params = RevocableParams::paper_blind(EPS, XI);
        let view = point.view();
        let point_owned = point.clone();
        if point.label.starts_with("mc/") {
            let n = view.int("mc-n")? as usize;
            let k = view.int("k")?;
            let k_pow = params.k_pow(k);
            let p_white = params.p(k);
            let f = params.f(k);
            Ok(Box::new(move |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut empties = 0u64;
                let mut whites_seen = false;
                for _ in 0..f {
                    let any_white = (0..n).any(|_| rng.gen_bool(p_white));
                    if any_white {
                        whites_seen = true;
                    } else {
                        empties += 1;
                    }
                }
                let mut r = TrialRecord::new("certification", &point_owned, seed);
                r.ok = true;
                r.push_extra("empty_majority", if 2 * empties > f { 1.0 } else { 0.0 });
                r.push_extra("some_white", if whites_seen { 1.0 } else { 0.0 });
                r.push_extra("f", f as f64);
                r.push_extra("k_pow", k_pow);
                Ok(r)
            }))
        } else {
            let topo = view.topology()?;
            let n = point.n;
            let g = topo.build(view.graph_seed(0))?;
            let run_params = RevocableParams::paper_blind(EPS, XI).with_scales(0.02, 0.5);
            let mut bound_k = 2u64;
            while params.k_pow(bound_k) * (4.0 * bound_k as f64).log2() < n as f64 {
                bound_k *= 2;
            }
            Ok(Box::new(move |seed| {
                let run = run_revocable(&g, &run_params, seed, 16)?;
                let mut min_cert = u64::MAX;
                let mut max_cert = 0u64;
                for v in &run.verdicts {
                    if let Some(c) = v.cert {
                        min_cert = min_cert.min(c);
                        max_cert = max_cert.max(c);
                    }
                }
                let mut r = TrialRecord::new("certification", &point_owned, seed);
                r.absorb_metrics(&run.outcome.metrics);
                r.leaders = run.outcome.leader_count() as u64;
                r.ok = run.outcome.leader_count() == 1;
                r.push_extra("bound_k", bound_k as f64);
                if min_cert != u64::MAX {
                    r.push_extra("min_cert", min_cert as f64);
                    r.push_extra("max_cert", max_cert as f64);
                }
                Ok(r)
            }))
        }
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut out = format!(
            "# E-L678: certification-phase statistics (eps={EPS}, xi={XI})\n\n\
             ## Lemmas 6 & 8: white-iteration counts\n\n"
        );
        let mut tbl = Table::new([
            "n",
            "k",
            "k^2 vs 2n+1",
            "f(k)",
            "Pr[empty majority] (L6 wants ->1)",
            "Pr[some white iter] (L8 wants >=1-xi)",
        ]);
        for p in run.points.iter().filter(|p| p.label.starts_with("mc/")) {
            let n = p.param("mc-n").unwrap_or(0.0) as usize;
            let k_pow = p.mean("k_pow");
            let regime = if k_pow >= (2 * n + 1) as f64 {
                if k_pow <= (4 * n) as f64 {
                    "in [2n+1, 4n]"
                } else {
                    "above 4n"
                }
            } else {
                "below"
            };
            tbl.push_row([
                n.to_string(),
                format!("{:.0}", p.param("k").unwrap_or(0.0)),
                regime.into(),
                format!("{:.0}", p.mean("f")),
                format!("{:.3}", p.mean("empty_majority")),
                format!("{:.3}", p.mean("some_white")),
            ]);
        }
        out.push_str(&tbl.to_markdown());

        out.push_str("\n## Lemma 7: certificates chosen by real runs (scaled r, paper f)\n\n");
        let mut t7 = Table::new([
            "n",
            "abstention bound: min k with k^2*log2(4k) >= n",
            "min cert seen",
            "max cert seen",
            "runs",
        ]);
        for p in run.points.iter().filter(|p| p.label.starts_with("lemma7/")) {
            let min_cert = p
                .metric("min_cert")
                .map_or("-".to_string(), |m| format!("{:.0}", m.min()));
            let max_cert = p
                .metric("max_cert")
                .map_or("-".to_string(), |m| format!("{:.0}", m.max()));
            t7.push_row([
                p.n.to_string(),
                format!("{:.0}", p.mean("bound_k")),
                min_cert,
                max_cert,
                p.trials.to_string(),
            ]);
        }
        out.push_str(&t7.to_markdown());
        out.push_str(
            "\nLemma 7 reproduced iff certificates cluster at/above the abstention bound\n\
             (early certificates are *possible* — the lemma is probabilistic — but the\n\
             *winning* certificate, the max, must sit at a size-revealing estimate).\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_points_dial_sample_size_via_seed_overrides() {
        let grid = Certification
            .grid(&crate::scenario::GridConfig {
                quick: true,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(grid.len(), 12 + 3);
        assert!(grid
            .iter()
            .filter(|p| p.label.starts_with("mc/"))
            .all(|p| p.seeds == Some(200)));
        assert!(grid
            .iter()
            .filter(|p| p.label.starts_with("lemma7/"))
            .all(|p| p.seeds == Some(5)));
    }
}
