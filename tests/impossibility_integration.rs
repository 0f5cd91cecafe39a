//! Integration tests for Theorem 2's empirical companion: split-brain under
//! wrong size beliefs, and the revocable protocol as the cure.

use ale::core::revocable::{run_revocable, RevocableParams};
use ale::graph::generators;
use ale::impossibility::{split_brain_trial, PumpingLayout};

#[test]
fn correct_belief_control() {
    for seed in 0..4 {
        let t = split_brain_trial(8, 8, seed).expect("trial");
        assert_eq!(t.outcome.leader_count(), 1, "seed {seed}: control failed");
    }
}

#[test]
fn wrong_belief_splits_the_ring() {
    let mut splits = 0;
    for seed in 0..4 {
        let t = split_brain_trial(8, 256, seed).expect("trial");
        if t.split_brain() {
            splits += 1;
        }
    }
    assert!(splits >= 3, "only {splits}/4 split-brain trials");
}

#[test]
fn leaders_far_apart_in_split_runs() {
    // The split leaders live in far-apart regions — the witness picture.
    let t = split_brain_trial(8, 512, 1).expect("trial");
    assert!(t.split_brain(), "expected a split at 64x blow-up");
    // Some pair of leaders must be farther apart than the protocol's
    // information radius would ever allow interaction across.
    let leaders = &t.outcome.leaders;
    let max_gap = leaders.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    assert!(
        max_gap > 16,
        "leaders {leaders:?} are suspiciously clustered"
    );
}

#[test]
fn revocable_protocol_fixes_rings_without_knowledge() {
    // The revocable protocol's cost on cycles is the full force of
    // Corollary 1 (the diffusion term grows like (4n)²/i(G)² = Θ(n⁴) on
    // rings), so the contrast demo runs on the largest tractable ring:
    // C12, whose stabilizing estimate is k* = 8. Larger rings are out of
    // simulation reach (the `impossibility` scenario's revocable contrast
    // stays at a tractable size too) — that cost *is* the paper's
    // Theorem 3/Corollary 1 statement, reproduced.
    // Seed 0 takes the common path (choose at k ≤ 8, stabilize in ~50k
    // rounds); occasional seeds abstain at k = 8 and pay one k = 16 ladder
    // (~6M rounds) before the horizon drain stabilizes them — correct but
    // too slow for the default suite (validated in release calibration).
    let ring = generators::cycle(12).expect("cycle");
    let params = RevocableParams::paper_blind(1.0, 0.2).with_scales(0.02, 0.25, 1.0);
    let r = run_revocable(&ring, &params, 0, 8).expect("run");
    assert!(r.stabilized, "revocable run must stabilize on C12");
    assert_eq!(
        r.outcome.leader_count(),
        1,
        "no knowledge needed for a unique (revocable) leader"
    );
}

#[test]
fn witness_geometry_matches_protocol_reach() {
    // The witness construction ties T(n) to the protocol's stop time:
    // verify the layout accepts the actual round budget of the believed
    // protocol as its T.
    use ale::core::irrevocable::IrrevocableConfig;
    use ale::impossibility::believed_cycle_knowledge;
    let n0 = 8usize;
    let cfg = IrrevocableConfig::from_knowledge(believed_cycle_knowledge(n0));
    let t = cfg.total_rounds() as usize;
    let block = 4 * t + 2 * n0;
    let layout = PumpingLayout::new(n0, t, 3 * block).expect("layout");
    assert_eq!(layout.witness_count(), 3);
    // Witnesses' cores are 2n0 nodes flanked by T-node buffers: no
    // information can cross a buffer within T rounds.
    let w = layout.witness(0);
    assert_eq!(w.core(layout.big_n).len(), 2 * n0);
    assert_eq!(w.len, 2 * t + 2 * n0);
}
