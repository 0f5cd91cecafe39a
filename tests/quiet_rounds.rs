//! Quiet-round fast-forward against the oracles that step every round.
//!
//! `Network::run_to_halt` skips the rounds in which nothing is in flight
//! and every irrevocable process answers `quiet_until` past the current
//! round; `ReferenceNetwork` and the unit-latency `AsyncNetwork` never
//! skip. Full irrevocable runs must agree on all three engines in status,
//! verdicts, metrics and the per-round trace, under both cautious-broadcast
//! report disciplines. A `quiet_until` that promised quiet in a round where
//! a process would act shows up here as a diverging trace.

use ale::congest::{congest_budget, AnyNetwork, EngineKind};
use ale::core::irrevocable::{IrrevocableConfig, IrrevocableProcess, ReportDiscipline};
use ale::graph::Topology;

/// Table 1's topology families at n = 16, plus the smallest ring of
/// cliques the table admits (n = 24).
const TOPOLOGIES: [Topology; 6] = [
    Topology::Complete { n: 16 },
    Topology::Hypercube { dim: 4 },
    Topology::RandomRegular { n: 16, d: 4 },
    Topology::Grid2d {
        rows: 4,
        cols: 4,
        torus: true,
    },
    Topology::Cycle { n: 16 },
    Topology::RingOfCliques { cliques: 3, k: 8 },
];

#[test]
fn irrevocable_runs_match_the_stepping_oracles() {
    for topo in TOPOLOGIES {
        let g = topo.build(1).expect("graph");
        for discipline in [ReportDiscipline::OnCrossing, ReportDiscipline::OnChange] {
            let mut cfg = IrrevocableConfig::derive_for(&g, &topo).expect("config");
            cfg.report_discipline = discipline;
            let budget = congest_budget(g.n(), cfg.congest_factor);
            for seed in 0..3 {
                let runs: Vec<_> = EngineKind::ALL
                    .into_iter()
                    .map(|kind| {
                        let mut net = AnyNetwork::from_fn(kind, &g, seed, budget, |deg, rng| {
                            let params = cfg.protocol_params(deg).expect("params");
                            IrrevocableProcess::new(params, rng)
                        });
                        net.enable_trace();
                        let status = net.run_to_halt(cfg.total_rounds() + 4).expect("run");
                        (status, net.outputs(), *net.metrics(), net.trace().to_vec())
                    })
                    .collect();
                let case = format!("{topo} {discipline:?} seed {seed}");
                assert_eq!(runs[0], runs[1], "{case}: arena vs reference");
                assert_eq!(runs[0], runs[2], "{case}: arena vs async");
            }
        }
    }
}
