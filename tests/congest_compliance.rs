//! CONGEST-model compliance audits: message sizes against the O(log n)
//! budget, port discipline, and serialization charging.

use ale::baselines::flood_max::{run_flood_max, FloodMaxConfig};
use ale::baselines::gilbert::{run_gilbert, GilbertConfig};
use ale::congest::{congest_budget, AnyNetwork, EngineKind};
use ale::core::irrevocable::{run_irrevocable, IrrevocableConfig, IrrevocableProcess};
use ale::core::revocable::{run_revocable, run_revocable_async, RevocableParams};
use ale::graph::{NetworkKnowledge, Topology};

#[test]
fn irrevocable_runs_are_congest_clean() {
    // All message fields are O(log n) bits (IDs in n^4, counters in x), so
    // with the CONGEST budget factor every message must fit and no port
    // may be double-used.
    for topo in [
        Topology::Complete { n: 24 },
        Topology::Hypercube { dim: 4 },
        Topology::Cycle { n: 12 },
    ] {
        let g = topo.build(1).expect("graph");
        let cfg = IrrevocableConfig::derive_for(&g, &topo).expect("config");
        for seed in 0..4 {
            let o = run_irrevocable(&g, &cfg, seed).expect("run");
            assert!(
                o.metrics.congest_clean(),
                "{topo} seed {seed}: oversize={} multi={}",
                o.metrics.oversize_messages,
                o.metrics.multi_send_violations
            );
            assert_eq!(
                o.metrics.congest_rounds, o.metrics.rounds,
                "clean runs charge exactly one CONGEST round per round"
            );
        }
    }
}

#[test]
fn baselines_are_congest_clean() {
    let topo = Topology::RandomRegular { n: 32, d: 4 };
    let g = topo.build(1).expect("graph");
    let diameter = g.diameter() as u64;
    let f = FloodMaxConfig::new(g.n(), diameter);
    let k = FloodMaxConfig::kutten(g.n(), diameter);
    let gl = GilbertConfig::new(32, 8);
    for seed in 0..4 {
        assert!(run_flood_max(&g, &f, seed)
            .expect("run")
            .metrics
            .congest_clean());
        assert!(run_flood_max(&g, &k, seed)
            .expect("run")
            .metrics
            .congest_clean());
        let o = run_gilbert(&g, &gl, seed).expect("run");
        assert!(
            o.metrics.multi_send_violations == 0,
            "gilbert violates port discipline"
        );
        assert!(o.metrics.congest_clean(), "gilbert oversize messages");
    }
}

#[test]
fn revocable_potentials_are_charged_not_smuggled() {
    // Potentials exceed O(log n) bits in later diffusion rounds; the run
    // must record oversize messages AND charge serialized rounds — the
    // paper's own time accounting (Theorem 3 proof). The serialization
    // charging is an engine obligation, so the fault-free asynchronous
    // engine must account identically.
    let g = Topology::Complete { n: 4 }.build(0).expect("graph");
    let params = RevocableParams::paper_blind(1.0, 0.2).with_scales(0.02, 0.25);
    let r = run_revocable(&g, &params, 1, 8).expect("run");
    assert!(r.outcome.metrics.oversize_messages > 0);
    assert!(r.outcome.metrics.congest_rounds > r.outcome.metrics.rounds);
    assert_eq!(r.outcome.metrics.multi_send_violations, 0);
    let a = run_revocable_async(&g, &params, 1, 8, &Default::default()).expect("async run");
    assert_eq!(a, r, "fault-free async run must charge identically");
}

#[test]
fn congest_accounting_is_engine_invariant() {
    // The same protocol audited on every engine through the shared
    // test-support constructor: all three must report identical,
    // congest-clean accounting (and the async engine must additionally
    // reconcile its delivery counters with the sent count).
    let topo = Topology::Hypercube { dim: 4 };
    let g = topo.build(1).expect("graph");
    let knowledge = NetworkKnowledge {
        n: g.n(),
        tmix: 8,
        phi: 0.25,
    };
    let cfg = IrrevocableConfig::from_knowledge(knowledge);
    let budget = congest_budget(g.n());
    let mut snapshots = Vec::new();
    for kind in EngineKind::ALL {
        let procs: Vec<IrrevocableProcess> = (0..g.n())
            .map(|v| {
                let mut p = cfg.protocol_params(g.degree(v)).expect("params");
                p.degree = g.degree(v);
                IrrevocableProcess::with_candidacy(p, 1 + v as u64, v == 0)
            })
            .collect();
        let mut net = AnyNetwork::new(kind, &g, procs, 3, budget).expect("network");
        net.run_for(cfg.broadcast_rounds()).expect("run");
        let m = net.metrics_snapshot();
        assert!(m.congest_clean(), "{kind}");
        assert_eq!(
            m.delivered,
            m.messages - m.dropped + m.duplicated,
            "{kind}: delivery counters must reconcile with sends"
        );
        snapshots.push(m);
    }
    assert_eq!(snapshots[0], snapshots[1], "arena vs reference");
    assert_eq!(snapshots[0], snapshots[2], "arena vs async");
}

#[test]
fn max_message_bits_bounded_by_field_widths() {
    let topo = Topology::Complete { n: 32 };
    let g = topo.build(1).expect("graph");
    let cfg = IrrevocableConfig::derive_for(&g, &topo).expect("config");
    let o = run_irrevocable(&g, &cfg, 2).expect("run");
    // Walk message: 2 tag + 4·log2(n) id + log2(total walks) count; give
    // the audit a safe ceiling of 8·log2(n) + 16.
    let ceiling = 8 * 5 + 16;
    assert!(
        o.metrics.max_message_bits <= ceiling,
        "widest message {} exceeds field-width ceiling {ceiling}",
        o.metrics.max_message_bits
    );
}
