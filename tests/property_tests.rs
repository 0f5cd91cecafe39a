//! Property-based tests on cross-crate invariants: generator validity,
//! port-map consistency, spectral bounds, simulator conservation, and
//! cautious-broadcast tree structure.
//!
//! Originally written against `proptest`; the workspace now builds
//! offline, so the same properties run over a seeded random sweep of the
//! topology space (deterministic, so failures reproduce exactly).

use ale::congest::{congest_budget, AnyNetwork, EngineKind, Inbox, NodeCtx, OutCtx, Process};
use ale::core::irrevocable::{IrrevocableConfig, IrrevocableProcess};
use ale::graph::{GraphProps, NetworkKnowledge, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a random topology from the same families the proptest strategy
/// covered.
fn arb_topology(rng: &mut StdRng) -> Topology {
    match rng.gen_range(0..8u32) {
        0 => Topology::Cycle {
            n: rng.gen_range(3..24),
        },
        1 => Topology::Path {
            n: rng.gen_range(2..20),
        },
        2 => Topology::Complete {
            n: rng.gen_range(2..16),
        },
        3 => Topology::Star {
            n: rng.gen_range(2..16),
        },
        4 => Topology::Hypercube {
            dim: rng.gen_range(1..5),
        },
        5 => Topology::BinaryTree {
            n: rng.gen_range(2..16),
        },
        6 => Topology::Barbell {
            k: rng.gen_range(2..7),
        },
        _ => Topology::RingOfCliques {
            cliques: rng.gen_range(3..5),
            k: rng.gen_range(2..5),
        },
    }
}

/// Runs `check(case_index, topology, seed)` over a deterministic sweep.
fn for_cases(cases: usize, salt: u64, mut check: impl FnMut(usize, Topology, u64)) {
    let mut rng = StdRng::seed_from_u64(0xA1E_5EED ^ salt);
    for case in 0..cases {
        let topo = arb_topology(&mut rng);
        let seed = rng.gen_range(0..4u64);
        check(case, topo, seed);
    }
}

#[test]
fn generators_produce_connected_simple_graphs() {
    for_cases(48, 1, |case, topo, seed| {
        let g = topo.build(seed).expect("build");
        assert_eq!(g.n(), topo.node_count(), "case {case} ({topo})");
        assert!(g.is_connected(), "case {case} ({topo})");
        // Simplicity: no self-loops, no duplicate neighbor entries.
        for v in 0..g.n() {
            let mut nbrs: Vec<_> = g.neighbors(v).collect();
            assert!(nbrs.iter().all(|&u| u != v), "self-loop at {v} ({topo})");
            nbrs.sort_unstable();
            let before = nbrs.len();
            nbrs.dedup();
            assert_eq!(before, nbrs.len(), "multi-edge at {v} ({topo})");
        }
    });
}

#[test]
fn reverse_ports_are_involutions() {
    let mut shuffle_rng = StdRng::seed_from_u64(99);
    for_cases(48, 2, |_case, topo, seed| {
        let shuffle = shuffle_rng.gen_range(0..4u64);
        let g = topo
            .build(seed)
            .expect("build")
            .with_shuffled_ports(shuffle);
        for v in 0..g.n() {
            for p in 0..g.degree(v) {
                let u = g.port_target(v, p);
                let q = g.reverse_port(v, p);
                assert_eq!(g.port_target(u, q), v, "{topo}");
                assert_eq!(g.reverse_port(u, q), p, "{topo}");
            }
        }
    });
}

#[test]
fn edge_count_matches_degree_sum() {
    for_cases(48, 3, |_case, topo, seed| {
        let g = topo.build(seed).expect("build");
        let degree_sum: usize = (0..g.n()).map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.m(), "{topo}");
        assert_eq!(g.edges().count(), g.m(), "{topo}");
    });
}

#[test]
fn graph_properties_respect_theory_bands() {
    for_cases(16, 4, |_case, topo, seed| {
        let g = topo.build(seed).expect("build");
        if g.n() < 3 {
            return;
        }
        let props = GraphProps::compute_for(&g, &topo).expect("props");
        assert!(
            props.conductance.value > 0.0 && props.conductance.value <= 1.0 + 1e-9,
            "{topo}"
        );
        assert!(
            props.spectral_gap > 0.0 && props.spectral_gap < 1.0 + 1e-9,
            "{topo}"
        );
        // i(G) >= 2/n on connected graphs (paper, proof of Corollary 1).
        assert!(
            props.isoperimetric.value >= 2.0 / g.n() as f64 - 1e-9,
            "{topo}"
        );
        // Diameter sanity: at least 1, at most n-1.
        assert!(props.diameter >= 1 && props.diameter < g.n(), "{topo}");
        assert!(props.tmix >= 1, "{topo}");
    });
}

/// A process that forwards a fixed number of tokens and counts arrivals —
/// used to check the simulator's conservation law.
#[derive(Debug, Clone)]
struct TokenForward {
    held: u64,
    sent_total: u64,
    received_total: u64,
    rounds_left: u64,
}

impl Process for TokenForward {
    type Msg = u64;
    type Output = (u64, u64, u64); // (held, sent, received)

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            self.held += m.msg;
            self.received_total += m.msg;
        }
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        // Send one token per port while supplies last.
        for p in 0..ctx.degree {
            if self.held == 0 {
                break;
            }
            self.held -= 1;
            self.sent_total += 1;
            out.send(p, 1u64);
        }
    }

    fn is_halted(&self) -> bool {
        self.rounds_left == 0
    }

    fn output(&self) -> (u64, u64, u64) {
        (self.held, self.sent_total, self.received_total)
    }
}

#[test]
fn simulator_conserves_tokens() {
    // Conservation is an engine invariant, so every engine must satisfy
    // it: the shared constructor runs the same sweep on the arena,
    // reference, and (fault-free) async engines.
    let mut start_rng = StdRng::seed_from_u64(7);
    for_cases(24, 5, |_case, topo, seed| {
        let start = start_rng.gen_range(1..8u64);
        let g = topo.build(seed).expect("build");
        let rounds = 6u64;
        for kind in EngineKind::ALL {
            let mut net = AnyNetwork::from_fn(kind, &g, seed, 32, |_deg, _rng| TokenForward {
                held: start,
                sent_total: 0,
                received_total: 0,
                rounds_left: rounds,
            });
            net.run_to_halt(rounds + 2).expect("run");
            let outs = net.outputs();
            let held: u64 = outs.iter().map(|o| o.0).sum();
            let sent: u64 = outs.iter().map(|o| o.1).sum();
            let received: u64 = outs.iter().map(|o| o.2).sum();
            // Tokens in flight at halt: sent but not yet absorbed (stuck
            // in inboxes of halted processes). Everything else conserves.
            let in_flight = sent - received;
            assert_eq!(held + in_flight, start * g.n() as u64, "{topo} {kind}");
            assert_eq!(net.metrics().messages, sent, "{topo} {kind}");
        }
    });
}

/// Runs a single-candidate cautious broadcast on the chosen engine and
/// returns the processes — engine-generic, so the protocol-level tree
/// invariants below audit every engine, not just the arena.
fn broadcast_once(
    kind: EngineKind,
    topo: Topology,
    seed: u64,
) -> (ale::graph::Graph, Vec<IrrevocableProcess>) {
    let g = topo.build(seed).expect("build");
    let knowledge = NetworkKnowledge {
        n: g.n(),
        tmix: 8,
        phi: 0.25,
    };
    let cfg = IrrevocableConfig::from_knowledge(knowledge);
    let procs: Vec<IrrevocableProcess> = (0..g.n())
        .map(|v| {
            let mut p = cfg.protocol_params(g.degree(v)).expect("params");
            p.degree = g.degree(v);
            IrrevocableProcess::with_candidacy(p, 1 + v as u64, v == 0)
        })
        .collect();
    let budget = congest_budget(g.n());
    let mut net = AnyNetwork::new(kind, &g, procs, seed, budget).expect("network");
    net.run_for(cfg.broadcast_rounds()).expect("run");
    let procs = net.processes().to_vec();
    drop(net); // the engine borrows `g` until its Drop (trace-sink flush)
    (g, procs)
}

#[test]
fn cautious_broadcast_builds_a_tree() {
    let mut kinds = EngineKind::ALL.iter().cycle();
    for_cases(12, 6, |_case, topo, seed| {
        let (g, procs) = broadcast_once(*kinds.next().unwrap(), topo, seed);
        let src_id = 1u64; // node 0's ID
                           // Every member's parent port must point to another member; chains
                           // must terminate at the root without cycles.
        for (v, proc_v) in procs.iter().enumerate() {
            if !proc_v.known_sources().contains(&src_id) {
                continue;
            }
            let mut cur = v;
            let mut hops = 0;
            loop {
                let parent_port = procs[cur].tree_parent(src_id);
                match parent_port {
                    None => {
                        assert_eq!(cur, 0, "only the candidate may be parentless ({topo})");
                        break;
                    }
                    Some(p) => {
                        let next = g.port_target(cur, p);
                        assert!(
                            procs[next].known_sources().contains(&src_id),
                            "parent {next} of {cur} is not a member ({topo})"
                        );
                        cur = next;
                        hops += 1;
                        assert!(hops <= g.n(), "parent chain cycles ({topo})");
                    }
                }
            }
        }
    });
}

#[test]
fn territory_respects_doubling_overshoot() {
    let mut kinds = EngineKind::ALL.iter().cycle();
    for_cases(12, 7, |_case, topo, seed| {
        let (_, procs) = broadcast_once(*kinds.next().unwrap(), topo, seed);
        let src_id = 1u64;
        let territory = procs
            .iter()
            .filter(|p| p.known_sources().contains(&src_id))
            .count();
        let cfg = IrrevocableConfig::from_knowledge(NetworkKnowledge {
            n: procs.len(),
            tmix: 8,
            phi: 0.25,
        });
        // Lemma 1's doubling control bounds the overshoot. The paper's
        // prose claims a factor 2 assuming per-step size reports; with the
        // message-optimal crossing-only reports (the reading consistent
        // with the paper's own message accounting) each tree level can lag
        // a factor below its threshold, relaxing the constant — measured
        // overshoot stays below ~4x across all families (the
        // `ablation-cautious` scenario reports it per family).
        let cap = 4 * cfg.final_threshold() as usize + 8;
        assert!(
            territory <= cap.max(procs.len().min(cap)),
            "territory {territory} exceeds overshoot cap {cap} ({topo})"
        );
    });
}
