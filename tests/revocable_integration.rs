//! Integration tests for the revocable protocol: stabilization, explicit
//! agreement, revocation dynamics, and horizon behavior.

use ale::core::revocable::{run_revocable, stabilized, LeaderRecord, RevocableParams};
use ale::graph::Topology;

fn fast_params() -> RevocableParams {
    // Scaled mode (see `ale_core::revocable::params`): same functional
    // forms, tractable sizes.
    RevocableParams::paper_blind(1.0, 0.2).with_scales(0.02, 0.25, 1.0)
}

#[test]
fn stabilizes_with_unique_leader_across_topologies() {
    let topologies = [
        Topology::Complete { n: 6 },
        Topology::Cycle { n: 6 },
        Topology::Path { n: 5 },
        Topology::Star { n: 6 },
        Topology::Hypercube { dim: 3 },
    ];
    for topo in topologies {
        let g = topo.build(0).expect("graph");
        let mut ok = 0;
        for seed in 0..5 {
            let r = run_revocable(&g, &fast_params(), seed, 16).expect("run");
            if r.stabilized && r.outcome.leader_count() == 1 {
                ok += 1;
            }
        }
        assert!(ok >= 4, "{topo}: only {ok}/5 stabilized-unique runs");
    }
}

#[test]
fn explicit_election_every_node_knows_the_leader() {
    let g = Topology::Complete { n: 8 }.build(0).expect("graph");
    let r = run_revocable(&g, &fast_params(), 2, 16).expect("run");
    assert!(r.stabilized);
    let views: Vec<Option<LeaderRecord>> = r.verdicts.iter().map(|v| v.view).collect();
    assert!(views[0].is_some());
    assert!(
        views.windows(2).all(|w| w[0] == w[1]),
        "explicit LE requires global agreement on the leader record"
    );
    // The leader's own record is the agreed one.
    let leader = r.outcome.unique_leader().expect("unique");
    let lv = &r.verdicts[leader];
    assert_eq!(
        views[0],
        Some(LeaderRecord::new(lv.cert.unwrap(), lv.id.unwrap()))
    );
}

#[test]
fn leader_record_ordering_largest_cert_smallest_id() {
    let g = Topology::Cycle { n: 6 }.build(0).expect("graph");
    let r = run_revocable(&g, &fast_params(), 7, 16).expect("run");
    assert!(r.stabilized);
    let best = r.verdicts[0].view.expect("view");
    for v in &r.verdicts {
        let own = LeaderRecord::new(v.cert.unwrap(), v.id.unwrap());
        assert!(
            !own.beats(&best),
            "record {own:?} beats the agreed leader {best:?}"
        );
    }
}

#[test]
fn stabilization_is_absorbing() {
    // Run past the stabilization point; the view must not change.
    let g = Topology::Complete { n: 6 }.build(0).expect("graph");
    let r1 = run_revocable(&g, &fast_params(), 3, 8).expect("run");
    let r2 = run_revocable(&g, &fast_params(), 3, 16).expect("run");
    if r1.stabilized && r2.stabilized {
        assert_eq!(
            r1.verdicts[0].view, r2.verdicts[0].view,
            "longer horizon must agree with the earlier stable view"
        );
    }
}

#[test]
fn certificates_do_not_exceed_horizon() {
    let g = Topology::Complete { n: 6 }.build(0).expect("graph");
    let r = run_revocable(&g, &fast_params(), 1, 8).expect("run");
    assert!(
        r.final_k <= 16,
        "estimate may exceed max_k by one doubling only"
    );
    for v in &r.verdicts {
        if let Some(c) = v.cert {
            assert!(c <= 8, "certificate {c} beyond the executed horizon");
        }
    }
}

#[test]
fn messages_are_all_to_all_per_round() {
    // Algorithm 7 broadcasts to every neighbor every round: messages must
    // equal 2m per simulator round (within the final partial round).
    let g = Topology::Cycle { n: 5 }.build(0).expect("graph");
    let r = run_revocable(&g, &fast_params(), 1, 8).expect("run");
    let m2 = (2 * g.m()) as u64;
    let rounds = r.outcome.metrics.rounds;
    let msgs = r.outcome.metrics.messages;
    assert!(
        msgs <= m2 * rounds && msgs >= m2 * rounds.saturating_sub(4),
        "msgs {msgs} vs 2m·rounds {}",
        m2 * rounds
    );
}

#[test]
fn congest_rounds_charge_bit_serialized_potentials() {
    // Potentials exceed the CONGEST budget in later diffusion rounds, so
    // charged rounds must strictly exceed simulator rounds.
    let g = Topology::Complete { n: 4 }.build(0).expect("graph");
    let r = run_revocable(&g, &fast_params(), 1, 8).expect("run");
    assert!(
        r.outcome.metrics.congest_rounds > r.outcome.metrics.rounds,
        "bit-by-bit serialization must be charged: {} vs {}",
        r.outcome.metrics.congest_rounds,
        r.outcome.metrics.rounds
    );
}

#[test]
fn stabilized_predicate_rejects_divergent_views() {
    let g = Topology::Complete { n: 4 }.build(0).expect("graph");
    let r = run_revocable(&g, &fast_params(), 5, 16).expect("run");
    assert!(r.stabilized);
    let mut verdicts = r.verdicts.clone();
    assert!(stabilized(&verdicts));
    verdicts[0].view = Some(LeaderRecord::new(9999, 1));
    assert!(!stabilized(&verdicts));
}

#[test]
fn deterministic_under_fixed_seed() {
    let g = Topology::Hypercube { dim: 3 }.build(0).expect("graph");
    let a = run_revocable(&g, &fast_params(), 4, 16).expect("run");
    let b = run_revocable(&g, &fast_params(), 4, 16).expect("run");
    assert_eq!(a, b);
}

#[test]
fn unscaled_paper_parameters_work_on_tiny_graph() {
    let g = Topology::Complete { n: 3 }.build(0).expect("graph");
    let params = RevocableParams::paper_blind(1.0, 0.2);
    let r = run_revocable(&g, &params, 0, 8).expect("run");
    assert!(r.stabilized, "paper-exact run must stabilize on K3");
    assert_eq!(r.outcome.leader_count(), 1);
}

#[test]
fn revocations_are_observed_and_counted() {
    // With several nodes choosing IDs at the same estimate, most nodes
    // adopt some record and later revoke it for a better one at least once
    // somewhere in the network.
    let g = Topology::Complete { n: 8 }.build(0).expect("graph");
    let mut total_revocations = 0u64;
    for seed in 0..6 {
        let r = run_revocable(&g, &fast_params(), seed, 16).expect("run");
        total_revocations += r.verdicts.iter().map(|v| v.revocations).sum::<u64>();
        // Everyone ends agreeing regardless of how many revocations it took.
        if r.stabilized {
            let first = r.verdicts[0].view;
            assert!(r.verdicts.iter().all(|v| v.view == first));
        }
    }
    assert!(
        total_revocations > 0,
        "revocable elections should exhibit at least one revocation across seeds"
    );
}

#[test]
fn lockstep_estimates_across_nodes() {
    // The schedule is a function of k only, so all nodes must share the
    // same estimate at all times — spot-check via the final verdicts of
    // runs stopped at arbitrary points (the horizon).
    for max_k in [2u64, 4, 8] {
        let g = Topology::Cycle { n: 6 }.build(0).expect("graph");
        let r = run_revocable(&g, &fast_params(), 9, max_k).expect("run");
        let ks: Vec<u64> = r.verdicts.iter().map(|v| v.k).collect();
        assert!(
            ks.windows(2).all(|w| w[0] == w[1]),
            "estimates diverged: {ks:?}"
        );
    }
}
