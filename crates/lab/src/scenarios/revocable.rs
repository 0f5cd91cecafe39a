//! **revocable — revocable LE cost growth** (Theorem 3 / Corollary 1).
//!
//! Four execution modes plus a formula-ladder extrapolation:
//!
//! 1. Theorem 3 on cliques with known `i(G)`, paper-exact `r(k)`;
//! 2. Corollary 1 paper-exact blind on tiny graphs;
//! 3. scaled blind shape sweep in `n`;
//! 4. `--n` **large-n engine ladder**: the sparse-topology ladder (torus /
//!    ring / a well-connected rung — 4-regular expander, or
//!    cube-connected cycles past the implicit-backend threshold — at tens
//!    of thousands to millions of nodes) running the
//!    full never-halting protocol on the CONGEST simulator with heavily
//!    scaled schedules and a fixed estimate horizon — an engine-scale
//!    demonstration (every node broadcasts every round), not a theory
//!    claim; trials report throughput-style extras and are non-failing;
//! 5. (summary only) Corollary 1's schedule formula beyond simulatable
//!    sizes.

use crate::agg::RunSummary;
use crate::fit::power_fit;
use crate::params::{Axis, Block, ParamSpace, Range, When};
use crate::scenario::{GridPoint, Knowledge, LabError, Scenario, TrialFn, TrialRecord};
use crate::table::Table;
use ale_congest::{ExecConfig, FaultSpec, LatencyDist, MAX_LATENCY};
use ale_core::revocable::{run_revocable, run_revocable_async, RevocableParams};
use ale_graph::Topology;

const EPS: f64 = 1.0;
const XI: f64 = 0.2;
/// Estimate horizon for the mode-4 large-n ladder: the schedule through
/// `k = 4` (scaled) keeps a 20 000-node run in the seconds range while
/// still crossing one estimate doubling and the horizon drain.
pub(crate) const LADDER_MAX_K: u64 = 4;

/// The mode-4 large-n ladder's schedule. It halves the iteration count of
/// the mode-3 scales: a ladder trial is n broadcasts per round for
/// thousands of rounds, and the object under test is the simulator.
pub(crate) fn ladder_params() -> RevocableParams {
    RevocableParams::paper_blind(EPS, XI).with_scales(0.002, 0.05)
}

/// The revocable-growth scenario.
pub struct Revocable;

/// Stabilization horizon: one doubling past the first estimate whose
/// `k^{1+ε}` exceeds `4n`.
fn horizon_for(n: usize, eps: f64) -> u64 {
    let k = (4.0 * n as f64).powf(1.0 / (1.0 + eps)).ceil() as u64;
    (2 * k.max(2)).next_power_of_two()
}

/// The first estimate `k*` with `k^{1+ε} > 4n` (the proof's stabilizing
/// rung).
fn k_star(n: usize, eps: f64) -> u64 {
    let mut k = 2u64;
    while (k as f64).powf(1.0 + eps) <= 4.0 * n as f64 {
        k *= 2;
    }
    k
}

/// Legacy short names for the Corollary 1 tiny graphs (`K2`, `P3`, …).
fn tiny_name(topo: &Topology) -> String {
    match topo {
        Topology::Complete { n } => format!("K{n}"),
        Topology::Path { n } => format!("P{n}"),
        Topology::Cycle { n } => format!("C{n}"),
        other => other.to_string(),
    }
}

impl Scenario for Revocable {
    fn name(&self) -> &'static str {
        "revocable"
    }

    fn description(&self) -> &'static str {
        "revocable LE cost growth: Theorem 3 cliques, Corollary 1 blind, scaled shape"
    }

    fn default_seeds(&self, quick: bool) -> u64 {
        if quick {
            4
        } else {
            10
        }
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![
            Block::new(
                "thm3",
                vec![Axis::ints("thm3-n", [8, 12, 16, 20])
                    .quick_ints([8, 16])
                    .range(Range::at_least(2))
                    .help("clique sizes, known i(G), paper-exact r(k)")],
                |ctx| {
                    let n = ctx.int("thm3-n")? as usize;
                    let ig = (n as f64 / 2.0).ceil();
                    let ks = k_star(n, EPS);
                    let params = RevocableParams::paper_with_ig(EPS, XI, ig).with_scales(1.0, 0.25);
                    let formula = params.rounds_through(ks) as f64;
                    Ok(Some(
                        GridPoint::new(format!("thm3/n={n}"))
                            .on(Topology::Complete { n })
                            .knowing(Knowledge::Blind)
                            .with("ig", ig)
                            .with("k_star", ks as f64)
                            .with("max_k", horizon_for(n, EPS) as f64)
                            .with("formula", formula)
                            .with("mode", 1.0),
                    ))
                },
            )
            .when(When::SmallGrid),
            Block::new(
                "blind-tiny",
                vec![Axis::topologies(
                    "tiny",
                    [
                        Topology::Complete { n: 2 },
                        Topology::Complete { n: 3 },
                        Topology::Path { n: 3 },
                        Topology::Cycle { n: 4 },
                    ],
                )
                .help("Corollary 1 paper-exact blind graphs")],
                |ctx| {
                    let topo = ctx.topology("tiny")?;
                    Ok(Some(
                        GridPoint::new(format!("blind-tiny/{}", tiny_name(&topo)))
                            .on(topo)
                            .knowing(Knowledge::Blind)
                            .with("mode", 2.0)
                            .seeds(1),
                    ))
                },
            )
            .when(When::SmallGrid),
            Block::new(
                "scaled",
                vec![Axis::ints("scaled-n", [4, 8, 16])
                    .quick_ints([4, 8])
                    .range(Range::at_least(2))
                    .help("blind shape-sweep clique sizes (r x0.002, f x0.1)")],
                |ctx| {
                    let n = ctx.int("scaled-n")? as usize;
                    Ok(Some(
                        GridPoint::new(format!("scaled/n={n}"))
                            .on(Topology::Complete { n })
                            .knowing(Knowledge::Blind)
                            .with("k_star", k_star(n, EPS) as f64)
                            .with("mode", 3.0)
                            .seeds(if ctx.quick { 2 } else { 3 }),
                    ))
                },
            )
            .when(When::SmallGrid),
            // Mode 6: the fault sweep — the same scaled blind protocol on
            // the event-driven asynchronous engine, with the adversary
            // dropping each send with probability `fault-rate` (and
            // duplicating with half of it) over `latency`-tick links.
            Block::new(
                "faults",
                vec![
                    Axis::floats("fault-rate", [0.0, 0.05])
                        .range(Range::Probability)
                        .help("per-send drop probability in [0,1) (duplicates at rate/2)"),
                    Axis::ints("latency", [1, 3])
                        .quick_ints([1])
                        .range(Range::Ints(1, MAX_LATENCY))
                        .help(
                            "max link latency in ticks (1 = synchronous schedule; capped at \
                             64, the async engine's largest latency)",
                        ),
                ],
                |ctx| {
                    let rate = ctx.float("fault-rate")?;
                    let lat = ctx.int("latency")?;
                    Ok(Some(
                        GridPoint::new(format!("faults/rate={rate}/lat={lat}"))
                            .on(Topology::Complete { n: 8 })
                            .knowing(Knowledge::Blind)
                            .with("mode", 6.0)
                            .seeds(if ctx.quick { 2 } else { 3 }),
                    ))
                },
            )
            .when(When::SmallGrid),
            // The fault sweep's synchronous baseline: one arena-engine
            // point with the same graph, params, and seeds, so a CI gate
            // can diff the zero-fault async summary rows against it.
            Block::new("faults-sync", vec![], |ctx| {
                Ok(Some(
                    GridPoint::new("faults/sync".to_string())
                        .on(Topology::Complete { n: 8 })
                        .knowing(Knowledge::Blind)
                        .with("mode", 7.0)
                        .seeds(if ctx.quick { 2 } else { 3 }),
                ))
            })
            .when(When::SmallGrid),
            // `--n` selects the mode-4 large-n engine ladder: the
            // revocable protocol at tens of thousands of nodes on sparse
            // topologies (complete graphs at those sizes would need 10⁸
            // edges). Seeds default to 1–2 per point — each trial is
            // thousands of full-network broadcast rounds.
            Block::new(
                "ladder",
                vec![Axis::topologies("topo", [])
                    .help("large-n engine-ladder topologies (from the size ladder)")],
                |ctx| {
                    let topo = ctx.topology("topo")?;
                    Ok(Some(
                        GridPoint::new(format!("ladder/{topo}"))
                            .on(topo)
                            .knowing(Knowledge::Blind)
                            .with("mode", 4.0)
                            .with("max_k", LADDER_MAX_K as f64)
                            .seeds(if ctx.quick { 1 } else { 2 }),
                    ))
                },
            )
            .when(When::SizeSweep),
        ])
        .with_ladder(
            "n",
            "topo",
            "torus / ring / expander (CCC at implicit-backend sizes) engine ladder at each size",
            super::large_n_topologies,
        )
    }

    fn bind(&self, point: &GridPoint) -> Result<TrialFn, LabError> {
        let view = point.view();
        let topo = view.topology()?;
        let mode = view.knob("mode").unwrap_or(1.0) as u64;
        let graph = topo.build(view.graph_seed(0))?;
        let n = graph.n();
        let params = match mode {
            1 => {
                let ig = view.require_knob("ig")?;
                RevocableParams::paper_with_ig(EPS, XI, ig).with_scales(1.0, 0.25)
            }
            2 => RevocableParams::paper_blind(EPS, XI),
            4 => ladder_params(),
            _ => RevocableParams::paper_blind(EPS, XI).with_scales(0.002, 0.1),
        };
        let max_k = if mode == 4 {
            view.knob("max_k").map_or(LADDER_MAX_K, |k| k as u64)
        } else {
            horizon_for(n, EPS)
        };
        // A horizon whose diffusion send index overflows the metered
        // message is a usage error before any trial runs.
        params.check_horizon(max_k)?;
        // Mode 6 runs on the event-driven asynchronous engine; the knobs
        // were checked against their axes' ranges at expansion, so here
        // they only need translating into an `ExecConfig`.
        let exec = if mode == 6 {
            let rate = view.require_knob("fault-rate")?;
            let lat = view.require_knob("latency")? as u64;
            Some(ExecConfig {
                latency: if lat <= 1 {
                    LatencyDist::Unit
                } else {
                    LatencyDist::Uniform { min: 1, max: lat }
                },
                faults: FaultSpec {
                    drop: rate,
                    duplicate: rate / 2.0,
                    ..FaultSpec::default()
                },
            })
        } else {
            None
        };
        let point = point.clone();
        Ok(Box::new(move |seed| {
            let run = match &exec {
                Some(exec) => run_revocable_async(&graph, &params, seed, max_k, exec)?,
                None => run_revocable(&graph, &params, seed, max_k)?,
            };
            let mut r = TrialRecord::new("revocable", &point, seed);
            r.absorb_metrics(&run.outcome.metrics);
            r.leaders = run.outcome.leader_count() as u64;
            // Ladder trials demonstrate engine scale, not Theorem 3 (at
            // k ≪ n^{1/(1+ε)} a unique stable leader is not predicted),
            // and fault-sweep trials measure degradation off the model —
            // both are non-failing by construction. The faults/sync
            // baseline shares the rule so its rows stay comparable.
            r.ok = matches!(mode, 4 | 6 | 7) || run.outcome.leader_count() == 1;
            r.push_extra("stabilized", if run.stabilized { 1.0 } else { 0.0 });
            if let Some(rounds) = run.rounds_at_stability {
                r.push_extra("rounds_at_stability", rounds as f64);
            }
            if matches!(mode, 6 | 7) {
                // Delivery accounting: on the synchronous baseline these
                // are delivered == messages, dropped == duplicated == 0,
                // so the zero-fault async point's rows match it exactly.
                let m = &run.outcome.metrics;
                r.push_extra("delivered", m.delivered as f64);
                r.push_extra("dropped", m.dropped as f64);
                r.push_extra("duplicated", m.duplicated as f64);
            }
            if mode == 4 {
                r.push_extra("final_k", run.final_k as f64);
                let rounds = run.outcome.metrics.rounds.max(1);
                r.push_extra(
                    "msgs_per_round",
                    run.outcome.metrics.messages as f64 / rounds as f64,
                );
                let revocations: u64 = run.verdicts.iter().map(|v| v.revocations).sum();
                r.push_extra("revocations", revocations as f64);
            }
            Ok(r)
        }))
    }

    fn summarize(&self, run: &RunSummary) -> String {
        let mut out = format!("# E-T1c: revocable LE cost growth (eps={EPS}, xi={XI})\n\n");

        // Mode 1: Theorem 3 on cliques.
        out.push_str(
            "## Mode 1: Theorem 3 (known i(G)), cliques, r(k) paper-exact, f(k) x0.25\n\n",
        );
        let mut t1 = Table::new([
            "n",
            "i(G)",
            "max_k",
            "stabilized",
            "unique",
            "med rounds",
            "formula rounds",
            "measured/formula",
            "med msgs",
        ]);
        let mut time_pts = Vec::new();
        let mut ratio_pts = Vec::new();
        for p in run.points.iter().filter(|p| p.label.starts_with("thm3/")) {
            let formula = p.param("formula").unwrap_or(1.0);
            let stab = p
                .metric("stabilized")
                .map_or(0, |m| (m.mean() * m.count() as f64).round() as u64);
            let med_rounds = p.median("rounds_at_stability");
            t1.push_row([
                p.n.to_string(),
                format!("{:.0}", p.param("ig").unwrap_or(0.0)),
                format!("{:.0}", p.param("max_k").unwrap_or(0.0)),
                format!("{stab}/{}", p.trials),
                format!("{}/{}", p.ok, p.trials),
                format!("{med_rounds:.0}"),
                format!("{formula:.0}"),
                format!("{:.3}", med_rounds / formula),
                format!("{:.0}", p.median("messages")),
            ]);
            if med_rounds > 0.0 {
                time_pts.push((p.n as f64, med_rounds));
                ratio_pts.push(med_rounds / formula);
            }
        }
        out.push_str(&t1.to_markdown());
        if time_pts.len() >= 2 {
            let fit = power_fit(&time_pts);
            out.push_str(&format!(
                "rounds-to-stability raw exponent in n: {:.3} (r^2 {:.3}).\n\
                 Reproduction criterion: measured/formula is roughly constant across n\n\
                 (ratios sit well below 1 — what matters is that they do not drift with n);\n\
                 measured values: {:?}\n\n",
                fit.exponent,
                fit.r_squared,
                ratio_pts
                    .iter()
                    .map(|r| format!("{r:.3}"))
                    .collect::<Vec<_>>()
            ));
        }

        // Mode 2: paper-exact blind on tiny graphs.
        out.push_str("## Mode 2: Corollary 1 (blind), paper-exact, tiny graphs\n\n");
        let mut t2 = Table::new([
            "graph",
            "stabilized",
            "unique",
            "rounds",
            "congest rounds",
            "msgs",
        ]);
        for p in run
            .points
            .iter()
            .filter(|p| p.label.starts_with("blind-tiny/"))
        {
            t2.push_row([
                p.label.trim_start_matches("blind-tiny/").to_string(),
                (p.mean("stabilized") > 0.5).to_string(),
                (p.ok == p.trials).to_string(),
                format!("{:.0}", p.mean("rounds")),
                format!("{:.0}", p.mean("congest_rounds")),
                format!("{:.0}", p.mean("messages")),
            ]);
        }
        out.push_str(&t2.to_markdown());

        // Mode 3: scaled blind shape sweep.
        out.push_str("\n## Mode 3: blind, scaled (r x0.002, f x0.1) — growth shape in n\n\n");
        let mut t3 = Table::new(["n", "k*", "stabilized", "unique", "med rounds", "med msgs"]);
        let mut pts = Vec::new();
        for p in run.points.iter().filter(|p| p.label.starts_with("scaled/")) {
            let stab = p
                .metric("stabilized")
                .map_or(0, |m| (m.mean() * m.count() as f64).round() as u64);
            let mr = p.median("rounds");
            t3.push_row([
                p.n.to_string(),
                format!("{:.0}", p.param("k_star").unwrap_or(0.0)),
                format!("{stab}/{}", p.trials),
                format!("{}/{}", p.ok, p.trials),
                format!("{mr:.0}"),
                format!("{:.0}", p.median("messages")),
            ]);
            if mr > 0.0 {
                pts.push((p.n as f64, mr));
            }
        }
        out.push_str(&t3.to_markdown());
        if pts.len() >= 2 {
            let fit = power_fit(&pts);
            out.push_str(&format!(
                "rounds exponent in n (blind, scaled, across a k* jump): {:.3} (r^2 {:.3})\n",
                fit.exponent, fit.r_squared
            ));
        }

        // Mode 6/7: fault sweep on the asynchronous engine + sync baseline.
        let faults: Vec<_> = run
            .points
            .iter()
            .filter(|p| p.label.starts_with("faults/"))
            .collect();
        if !faults.is_empty() {
            out.push_str(
                "\n## Mode 6: fault sweep (async engine; drop=rate, dup=rate/2) vs sync baseline\n\n",
            );
            let mut tf = Table::new([
                "point",
                "stabilized",
                "med rounds",
                "med msgs",
                "delivered",
                "dropped",
                "duplicated",
            ]);
            for p in &faults {
                let stab = p
                    .metric("stabilized")
                    .map_or(0, |m| (m.mean() * m.count() as f64).round() as u64);
                tf.push_row([
                    p.label.trim_start_matches("faults/").to_string(),
                    format!("{stab}/{}", p.trials),
                    format!("{:.0}", p.median("rounds")),
                    format!("{:.0}", p.median("messages")),
                    format!("{:.0}", p.mean("delivered")),
                    format!("{:.0}", p.mean("dropped")),
                    format!("{:.0}", p.mean("duplicated")),
                ]);
            }
            out.push_str(&tf.to_markdown());
            out.push_str(
                "The rate=0/lat=1 rows must equal the sync rows on every schedule and\n\
                 delivery metric (rounds, messages, delivered/dropped/duplicated —\n\
                 bit counts are seed-dependent and the two points draw different\n\
                 positional seeds; byte-identity at equal seeds is pinned by\n\
                 crates/congest/tests/equivalence.rs). Nonzero rates measure\n\
                 how far the paper's round/bit bounds degrade off the synchronous\n\
                 fault-free model.\n",
            );
        }

        // Mode 4: large-n engine ladder (present only under --n).
        let ladder: Vec<_> = run
            .points
            .iter()
            .filter(|p| p.label.starts_with("ladder/"))
            .collect();
        if !ladder.is_empty() {
            out.push_str(
                "\n## Mode 4: large-n engine ladder (blind, r x0.002, f x0.05, horizon k=4)\n\n",
            );
            let mut t = Table::new([
                "family",
                "n",
                "final k",
                "rounds",
                "msgs/round",
                "total msgs",
                "revocations",
            ]);
            for p in &ladder {
                t.push_row([
                    p.family.clone(),
                    p.n.to_string(),
                    format!("{:.0}", p.mean("final_k")),
                    format!("{:.0}", p.mean("rounds")),
                    format!("{:.0}", p.mean("msgs_per_round")),
                    format!("{:.3e}", p.mean("messages")),
                    format!("{:.0}", p.mean("revocations")),
                ]);
            }
            out.push_str(&t.to_markdown());
            out.push_str(
                "Engine-scale demonstration on the arena CONGEST simulator: every node\n\
                 broadcasts every round (messages/round = 2m). Not a Theorem 3 claim —\n\
                 the horizon freezes estimates at k = 4, far below stabilization scale.\n",
            );
        }

        // Mode 5: formula ladder, no simulation.
        out.push_str("\n### Corollary 1 formula ladder (paper-exact blind, rounds through k*)\n\n");
        let mut t4 = Table::new(["n", "k*", "formula rounds"]);
        let paper = RevocableParams::paper_blind(EPS, XI);
        let mut formula_pts = Vec::new();
        for n in [4usize, 16, 64, 256, 1024] {
            let ks = k_star(n, EPS);
            let rounds = paper.rounds_through(ks);
            t4.push_row([n.to_string(), ks.to_string(), rounds.to_string()]);
            formula_pts.push((n as f64, rounds as f64));
        }
        out.push_str(&t4.to_markdown());
        let fit = power_fit(&formula_pts);
        out.push_str(&format!(
            "formula exponent in n: {:.2} — Corollary 1 predicts Õ(n^{{(2(2+eps)+1)/(1+eps)}})\n\
             ≈ n^{:.1} at eps={EPS} for the simulator-rounds ladder.\n",
            fit.exponent,
            (2.0 * (2.0 + EPS) + 1.0) / (1.0 + EPS)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridConfig;

    #[test]
    fn ladder_helpers_match_the_proof_schedule() {
        assert_eq!(k_star(12, 1.0), 8); // first k with k^2 > 48
        assert!(horizon_for(12, 1.0) >= 2 * 8);
        assert!(horizon_for(12, 1.0).is_power_of_two());
    }

    #[test]
    fn ns_override_builds_the_large_engine_ladder() {
        let grid = Revocable
            .grid(&GridConfig {
                ns: vec![20_000],
                quick: true,
                ..GridConfig::default()
            })
            .unwrap();
        // torus:141x141, cycle:20000, rregular:20000x4.
        assert_eq!(grid.len(), 3);
        for p in &grid {
            assert!(p.label.starts_with("ladder/"), "{}", p.label);
            assert!(p.n >= 19_000, "ladder point too small: {}", p.n);
            assert_eq!(p.param("mode"), Some(4.0));
            assert_eq!(p.param("max_k"), Some(LADDER_MAX_K as f64));
            assert_eq!(p.seeds, Some(1));
        }
    }

    #[test]
    fn grid_has_all_three_modes_with_seed_overrides() {
        let grid = Revocable
            .grid(&GridConfig {
                quick: true,
                ..GridConfig::default()
            })
            .unwrap();
        assert!(grid.iter().any(|p| p.label.starts_with("thm3/")));
        assert!(grid
            .iter()
            .filter(|p| p.label.starts_with("blind-tiny/"))
            .all(|p| p.seeds == Some(1)));
        assert!(grid
            .iter()
            .filter(|p| p.label.starts_with("scaled/"))
            .all(|p| p.seeds == Some(2)));
    }

    #[test]
    fn fault_blocks_declare_the_async_sweep_and_its_sync_baseline() {
        let grid = Revocable
            .grid(&GridConfig {
                quick: true,
                ..GridConfig::default()
            })
            .unwrap();
        // Quick: rates {0, 0.05} x latency {1} plus the sync baseline.
        let rates: Vec<_> = grid
            .iter()
            .filter(|p| p.label.starts_with("faults/rate="))
            .collect();
        assert_eq!(rates.len(), 2);
        for p in &rates {
            assert_eq!(p.param("mode"), Some(6.0));
            assert_eq!(p.seeds, Some(2));
            assert!(p.label.ends_with("/lat=1"), "{}", p.label);
        }
        let sync: Vec<_> = grid.iter().filter(|p| p.label == "faults/sync").collect();
        assert_eq!(sync.len(), 1);
        assert_eq!(sync[0].param("mode"), Some(7.0));
        assert_eq!(sync[0].seeds, rates[0].seeds);
    }

    #[test]
    fn fault_knobs_outside_their_axis_ranges_are_rejected() {
        // A rate of 1 drops every send, so no trial could finish;
        // latencies stop at the async engine's cap, MAX_LATENCY = 64.
        for (key, value) in [
            ("fault-rate", "1.5"),
            ("fault-rate", "1"),
            ("latency", "0"),
            ("latency", "65"),
        ] {
            let err = Revocable
                .grid(&GridConfig {
                    quick: true,
                    params: vec![(key.into(), vec![value.into()])],
                    ..GridConfig::default()
                })
                .unwrap_err();
            assert!(
                matches!(err, LabError::BadArgs(_)),
                "{key}={value}: {err:?}"
            );
        }
    }
}
