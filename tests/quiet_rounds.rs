//! Quiet-round fast-forward against the oracles that step every round.
//!
//! `Network::run_to_halt` skips the rounds in which nothing is in flight
//! and every process answers `quiet_until` past the current round;
//! `ReferenceNetwork` and the unit-latency `AsyncNetwork` never skip. Full
//! irrevocable runs, under both cautious-broadcast report disciplines, and
//! full runs of Gilbert et al.'s baseline must agree on all three engines
//! in status, outputs, metrics and the per-round trace. A `quiet_until`
//! that promised quiet in a round where a process would act shows up here
//! as a diverging trace.

use ale::baselines::gilbert::{GilbertConfig, GilbertProcess};
use ale::congest::{congest_budget, AnyNetwork, EngineKind, Process};
use ale::core::irrevocable::{IrrevocableConfig, IrrevocableProcess, ReportDiscipline};
use ale::graph::{Graph, GraphProps, Topology};
use rand::rngs::StdRng;
use std::fmt::Debug;

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

/// Runs the processes `make` builds to halt (a few rounds past the
/// protocol's `total_rounds`) on every engine with the trace on, and
/// asserts that the three runs agree.
fn assert_engines_agree<P>(
    case: &str,
    g: &Graph,
    seed: u64,
    budget: usize,
    total_rounds: u64,
    mut make: impl FnMut(usize, &mut StdRng) -> P,
) where
    P: Process,
    P::Output: PartialEq + Debug,
{
    let runs: Vec<_> = EngineKind::ALL
        .into_iter()
        .map(|kind| {
            let mut net = AnyNetwork::from_fn(kind, g, seed, budget, &mut make);
            net.enable_trace();
            let status = net.run_to_halt(total_rounds + 4).expect("run");
            (status, net.outputs(), *net.metrics(), net.trace().to_vec())
        })
        .collect();
    assert_eq!(runs[0], runs[1], "{case}: arena vs reference");
    assert_eq!(runs[0], runs[2], "{case}: arena vs async");
}

#[test]
fn irrevocable_runs_match_the_stepping_oracles() {
    for topo in TOPOLOGIES {
        let g = topo.build(1).expect("graph");
        for discipline in [ReportDiscipline::OnCrossing, ReportDiscipline::OnChange] {
            let mut cfg = IrrevocableConfig::derive_for(&g, &topo).expect("config");
            cfg.report_discipline = discipline;
            let budget = congest_budget(g.n());
            for seed in 0..3 {
                let case = format!("{topo} {discipline:?} seed {seed}");
                assert_engines_agree(&case, &g, seed, budget, cfg.total_rounds(), |deg, rng| {
                    let params = cfg.protocol_params(deg).expect("params");
                    IrrevocableProcess::new(params, rng)
                });
            }
        }
    }
}

#[test]
fn gilbert_runs_match_the_stepping_oracles() {
    // The tiny graphs matter: on the Table 1 families dozens of tokens
    // walk, so a round in which every token stays put is rare, and a
    // `quiet_until` that ignored resident tokens during the walk diverges
    // there only on an occasional seed. On two to four nodes it diverges
    // on the first.
    let tiny = [
        Topology::Complete { n: 2 },
        Topology::Cycle { n: 3 },
        Topology::Complete { n: 4 },
    ];
    for topo in TOPOLOGIES.into_iter().chain(tiny) {
        let g = topo.build(1).expect("graph");
        let props = GraphProps::compute_for(&g, &topo).expect("props");
        let cfg = GilbertConfig::new(g.n(), props.tmix);
        let budget = congest_budget(g.n());
        for seed in 0..8 {
            let case = format!("{topo} seed {seed}");
            assert_engines_agree(&case, &g, seed, budget, cfg.total_rounds(), |_deg, rng| {
                GilbertProcess::new(cfg, rng)
            });
        }
    }
}
