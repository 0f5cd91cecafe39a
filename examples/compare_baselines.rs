//! Baseline shootout across topologies — a miniature, narrated version of
//! the `table1` scenario (`ale-lab run table1`).
//!
//! For each topology class the example runs every algorithm on the same
//! seeds, through the same `GraphContext` driver `table1` uses, and prints
//! a compact cost table, annotating *why* the ordering looks the way it
//! does in terms of the paper's Table 1.
//!
//! Run with: `cargo run --release --example compare_baselines`

use ale::graph::Topology;
use ale_lab::runners::{Algorithm, GraphContext};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seeds = 8u64;
    let scenarios = [
        (
            Topology::Complete { n: 48 },
            "complete graph — ideal mixing: territories are tiny, walks are short",
        ),
        (
            Topology::RandomRegular { n: 96, d: 4 },
            "sparse expander — the paper's sweet spot: Õ(√n) messages vs Θ(m) floods",
        ),
        (
            Topology::RingOfCliques { cliques: 6, k: 8 },
            "clustered network — moderate conductance, flood baselines pay per edge",
        ),
    ];

    for (topo, story) in scenarios {
        let ctx = GraphContext::build(topo, 1)?;
        println!("\n== {topo}: {story}");
        println!(
            "   n = {}, m = {}, D = {}, t_mix ≤ {}, Φ ≈ {:.3}",
            ctx.graph.n(),
            ctx.graph.m(),
            ctx.props.diameter,
            ctx.knowledge.tmix,
            ctx.knowledge.phi
        );
        println!(
            "   {:<10} {:>8} {:>12} {:>12} {:>8}",
            "algorithm", "success", "med msgs", "med bits", "rounds"
        );
        for (name, alg) in [
            ("this-work", Algorithm::ThisWork),
            ("gilbert18", Algorithm::Gilbert),
            ("kutten15", Algorithm::Kutten),
            ("flood-max", Algorithm::FloodOnChange),
        ] {
            let mut ok = 0;
            let mut msgs = Vec::new();
            let mut bits = Vec::new();
            let mut rounds = 0;
            for seed in 0..seeds {
                let o = ctx.run(alg, seed)?;
                if o.is_successful() {
                    ok += 1;
                }
                msgs.push(o.metrics.messages as f64);
                bits.push(o.metrics.bits as f64);
                rounds = o.metrics.congest_rounds;
            }
            msgs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            bits.sort_by(|a, b| a.partial_cmp(b).unwrap());
            println!(
                "   {:<10} {:>5}/{:<2} {:>12.0} {:>12.0} {:>8}",
                name,
                ok,
                seeds,
                msgs[msgs.len() / 2],
                bits[bits.len() / 2],
                rounds
            );
        }
    }
    println!(
        "\nReading guide (paper Table 1): this-work trades a little time\n\
         (t_mix·log²n rounds) for near-optimal messages; gilbert18 pays √n·polylog\n\
         tokens per candidate; flood baselines pay Θ(m)-ish per election but win on\n\
         raw time (O(D))."
    );
    Ok(())
}
