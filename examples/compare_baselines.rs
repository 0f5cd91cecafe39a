//! Baseline shootout across topologies — a miniature, narrated version of
//! the `table1` scenario (`ale-lab run table1`).
//!
//! For each topology class the example runs every algorithm on the same
//! seeds and prints a compact cost table, annotating *why* the ordering
//! looks the way it does in terms of the paper's Table 1.
//!
//! Run with: `cargo run --release --example compare_baselines`

use ale::graph::Topology;

/// A small runner that calls each protocol's entry point directly, without
/// the lab's scenario registry, so the example reads top to bottom.
mod shootout {
    use ale::baselines::flood_max::{run_flood_max, FloodMaxConfig};
    use ale::baselines::gilbert::{run_gilbert, GilbertConfig};
    use ale::baselines::kutten::{run_kutten, KuttenConfig};
    use ale::core::irrevocable::{run_irrevocable, IrrevocableConfig};
    use ale::core::ElectionOutcome;
    use ale::graph::{Graph, GraphProps, NetworkKnowledge, Topology};

    pub struct Bench {
        pub graph: Graph,
        pub knowledge: NetworkKnowledge,
        pub diameter: u64,
    }

    impl Bench {
        pub fn new(topology: Topology, seed: u64) -> Result<Self, Box<dyn std::error::Error>> {
            let graph = topology.build(seed)?;
            let props = GraphProps::compute_for(&graph, &topology)?;
            Ok(Bench {
                knowledge: NetworkKnowledge::from_props(&props),
                diameter: props.diameter as u64,
                graph,
            })
        }

        pub fn run(
            &self,
            name: &str,
            seed: u64,
        ) -> Result<ElectionOutcome, Box<dyn std::error::Error>> {
            Ok(match name {
                "this-work" => {
                    let cfg = IrrevocableConfig::from_knowledge(self.knowledge);
                    run_irrevocable(&self.graph, &cfg, seed)?
                }
                "gilbert18" => {
                    let cfg = GilbertConfig::new(self.knowledge.n, self.knowledge.tmix);
                    run_gilbert(&self.graph, &cfg, seed)?
                }
                "kutten15" => {
                    let mut cfg = KuttenConfig::for_graph(&self.graph);
                    cfg.diameter = self.diameter;
                    run_kutten(&self.graph, &cfg, seed)?
                }
                "flood-max" => {
                    let cfg = FloodMaxConfig::for_graph(&self.graph);
                    run_flood_max(&self.graph, &cfg, seed)?
                }
                other => panic!("unknown algorithm {other}"),
            })
        }
    }
}

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
        let bench = shootout::Bench::new(topo, 1)?;
        println!("\n== {topo}: {story}");
        println!(
            "   n = {}, m = {}, D = {}, t_mix ≤ {}, Φ ≈ {:.3}",
            bench.graph.n(),
            bench.graph.m(),
            bench.diameter,
            bench.knowledge.tmix,
            bench.knowledge.phi
        );
        println!(
            "   {:<10} {:>8} {:>12} {:>12} {:>8}",
            "algorithm", "success", "med msgs", "med bits", "rounds"
        );
        for name in ["this-work", "gilbert18", "kutten15", "flood-max"] {
            let mut ok = 0;
            let mut msgs = Vec::new();
            let mut bits = Vec::new();
            let mut rounds = 0;
            for seed in 0..seeds {
                let o = bench.run(name, seed)?;
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
