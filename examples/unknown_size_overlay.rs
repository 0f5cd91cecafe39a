//! Unknown-size overlay: electing a leader when **nobody knows how many
//! peers exist** — the paper's Section 5 setting.
//!
//! A peer-to-peer overlay has formed organically; no node knows `n`.
//! Theorem 2 says no protocol can elect-and-stop here, so we run the
//! paper's *revocable* protocol: leadership may transfer while estimates
//! grow, but stabilizes to a single, globally agreed leader.
//!
//! The example prints the leadership timeline — every revocation event —
//! which is the observable difference from classic leader election.
//!
//! Run with: `cargo run --release --example unknown_size_overlay`

use ale::congest::{congest_budget, Network};
use ale::core::revocable::{stabilized, RevocableParams, RevocableProcess};
use ale::graph::Topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The overlay: a sparse random-regular gossip mesh. Nobody knows n=12.
    // (Size chosen for demo snappiness: at n=12 the k=4 certification
    // usually passes, skipping the 6M-round k=8 ladder that larger unknown
    // networks must pay — Corollary 1's polynomial in action.)
    let topology = Topology::RandomRegular { n: 12, d: 3 };
    let overlay = topology.build(5)?;

    // Scaled parameters (same functional forms as the paper; see
    // `ale_core::revocable::params` for the modes) keep the demo interactive.
    let params = RevocableParams::paper_blind(1.0, 0.2).with_scales(0.02, 0.25, 1.0);
    let budget = congest_budget(overlay.n());
    let horizon = 16u64;

    let mut net = Network::from_fn(&overlay, 11, budget, |deg, _rng| {
        RevocableProcess::with_horizon(params, deg, Some(horizon))
    });

    println!("overlay of unknown size; probing size estimates k = 2, 4, 8, ...\n");
    let mut last_view = None;
    let mut last_k = 0;
    while !net.all_halted() {
        net.step()?;
        let verdicts = net.outputs();
        let k = verdicts.iter().map(|v| v.k).max().unwrap_or(2);
        if k != last_k {
            println!("round {:>7}: estimate advanced to k = {k}", net.round());
            last_k = k;
        }
        // Report leadership changes (revocations) as any node's view of the
        // best record changes.
        let best = verdicts
            .iter()
            .filter_map(|v| v.view)
            .reduce(|a, b| if b.beats(&a) { b } else { a });
        if best != last_view {
            let Some(b) = best else { continue };
            println!(
                "round {:>7}: leadership record is now (certificate k={}, id={})",
                net.round(),
                b.cert(),
                b.id()
            );
            last_view = best;
        }
        if net.round() % 16 == 0 && stabilized(&verdicts) {
            println!(
                "round {:>7}: network stabilized — every node agrees on the leader",
                net.round()
            );
            break;
        }
    }

    let verdicts = net.outputs();
    let leaders: Vec<usize> = verdicts
        .iter()
        .enumerate()
        .filter(|(_, v)| v.leader)
        .map(|(i, _)| i)
        .collect();
    println!(
        "\nfinal: {} leader(s) {:?}; {} messages, {} CONGEST rounds",
        leaders.len(),
        leaders,
        net.metrics().messages,
        net.metrics().congest_rounds
    );
    println!(
        "(the protocol itself never halts — Definition 2 — but its leader\n\
         record is now absorbing: no larger certificate can ever appear)"
    );
    Ok(())
}
