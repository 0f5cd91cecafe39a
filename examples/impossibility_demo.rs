//! Impossibility demo: what goes wrong when you *guess* the network size.
//!
//! Theorem 2 of the paper: without knowing `n`, no algorithm can elect a
//! leader and stop — far-away regions of a big cycle are indistinguishable
//! from complete smaller networks within any time budget.
//!
//! This demo runs the (correct!) Theorem 1 protocol on a 512-node ring
//! while every node *believes* the ring has 8 nodes, then prints the
//! resulting leader "domains" — a split-brain map. For contrast, the
//! revocable protocol, which knows nothing of n, then elects one stable
//! leader on a 12-node ring, run as the `impossibility` scenario runs it.
//! (A ring stabilizes at the first estimate k with k² > 4n; on the
//! 512-node ring that is k = 64, whose iterations each take 10⁷–10⁹
//! rounds, while the 12-node ring stabilizes at k = 8.)
//!
//! Run with: `cargo run --release --example impossibility_demo`

use ale::core::revocable::{run_revocable, RevocableParams};
use ale::graph::generators;
use ale::impossibility::{believed_cycle_knowledge, split_brain_trial};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n0 = 8usize; // what nodes believe
    let big_n = 512usize; // what is true

    let believed = believed_cycle_knowledge(n0);
    println!(
        "nodes believe: n = {}, t_mix = {}, Φ = {:.3}; reality: a {big_n}-node ring\n",
        believed.n, believed.tmix, believed.phi
    );

    let trial = split_brain_trial(n0, big_n, 99)?;
    println!(
        "stop-by-T protocol elected {} leaders at ring positions:",
        trial.outcome.leader_count()
    );
    // Draw a coarse ring map: 64 buckets of 8 positions.
    let mut map = ['.'; 64];
    for &l in &trial.outcome.leaders {
        map[l * 64 / big_n] = 'L';
    }
    println!("  [{}]", map.iter().collect::<String>());
    if let Some(d) = trial.min_leader_distance() {
        println!("  closest pair of leaders is {d} hops apart");
    }
    println!(
        "  cost: {} messages, {} rounds\n",
        trial.outcome.metrics.messages, trial.outcome.metrics.rounds
    );

    // The cure: revocable leader election, which needs no knowledge of n.
    let contrast_n = 12usize;
    println!("running the revocable protocol on a {contrast_n}-node ring (no knowledge of n)...");
    let ring = generators::cycle(contrast_n)?;
    let params = RevocableParams::paper_blind(1.0, 0.2).with_scales(0.02, 0.25);
    // Horizon: the first estimate with k² > 4·12.
    let result = run_revocable(&ring, &params, 99, 8)?;
    println!(
        "revocable protocol: stabilized = {}, leaders = {}, rounds to stability = {:?}",
        result.stabilized,
        result.outcome.leader_count(),
        result.rounds_at_stability
    );
    println!(
        "\nTheorem 2 in one line: bounded-time election commits too early;\n\
         revocability (Definition 2) is exactly what unknown n costs you."
    );
    Ok(())
}
