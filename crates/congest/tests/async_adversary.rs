//! Property tests for the asynchronous adversary.
//!
//! Two contracts:
//!
//! 1. **Positional determinism** — every fault decision (drop, duplicate,
//!    crash schedule, latency draw) is a pure function of the trial seed
//!    and the execution config. Trial seeds in the lab are themselves a
//!    pure function of `(master seed, grid position, seed index)`
//!    (`ale-lab`'s `derive_seed`), so a sweep's fault schedules are
//!    independent of worker count and execution order; these tests pin
//!    the engine half of that chain by deriving seeds positionally and
//!    running the trials in deliberately different orders.
//! 2. **Counter reconciliation** — `delivered`, `dropped`, `duplicated`
//!    and `messages` always reconcile: every sent message is decided
//!    exactly once at send time, so `delivered = messages − dropped +
//!    duplicated` holds for *any* configuration, graph, and seed.

use ale_congest::{
    splitmix64, AsyncNetwork, ExecConfig, FaultSpec, Inbox, LatencyDist, Metrics, NodeCtx, OutCtx,
    Process, RoundTrace,
};
use ale_graph::Topology;
use rand::Rng;

/// Gossips random payloads for a few rounds, mixing received messages
/// into its accumulator — enough traffic to exercise every fault path,
/// with outputs sensitive to exactly which messages arrive and when.
#[derive(Debug)]
struct Gossip {
    acc: u64,
    rounds_left: u64,
}

impl Process for Gossip {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            self.acc = self.acc.rotate_left(3) ^ m.msg ^ (m.port as u64);
        }
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        let fanout = ctx.rng.gen_range(0..=ctx.degree);
        for p in 0..fanout {
            out.send(p, self.acc & 0xFFFF);
        }
    }

    fn is_halted(&self) -> bool {
        self.rounds_left == 0
    }

    fn output(&self) -> u64 {
        self.acc
    }
}

/// The same positional mix `ale-lab`'s `derive_seed` uses, restated here
/// because the dependency points the other way.
fn derive_seed(master: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(master ^ splitmix64(stream.wrapping_add(0x5851_F42D_4C95_7F2D))) ^ index)
}

/// One complete trial under `config`, reduced to everything observable.
fn run_trial(
    topo: &Topology,
    gseed: u64,
    seed: u64,
    config: ExecConfig,
) -> (Vec<u64>, Metrics, Vec<RoundTrace>) {
    let g = topo.build(gseed).expect("graph");
    let mut net = AsyncNetwork::from_fn_with(&g, seed, 16, config, |_d, rng| Gossip {
        acc: rng.gen(),
        rounds_left: 8,
    })
    .expect("valid config");
    net.enable_trace();
    net.run_to_halt(64).expect("run");
    (net.outputs(), net.metrics_snapshot(), net.trace().to_vec())
}

fn adversary_configs() -> Vec<ExecConfig> {
    vec![
        ExecConfig::default(),
        ExecConfig {
            faults: FaultSpec {
                drop: 0.25,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        },
        ExecConfig {
            faults: FaultSpec {
                duplicate: 0.4,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        },
        ExecConfig {
            latency: LatencyDist::Uniform { min: 1, max: 4 },
            faults: FaultSpec {
                drop: 0.1,
                duplicate: 0.1,
                crash: 0.2,
                crash_window: 4,
            },
        },
        ExecConfig {
            latency: LatencyDist::Geometric { p: 0.6 },
            faults: FaultSpec {
                drop: 0.5,
                duplicate: 0.5,
                ..FaultSpec::default()
            },
        },
    ]
}

#[test]
fn fault_injection_is_deterministic_per_positional_seed() {
    // A 3-point × 2-seed "grid": trial seeds derive positionally from the
    // master exactly like a fleet shard would compute them.
    let master = 0xC0FF_EE00_D15E_A5E5u64;
    let topo = Topology::RandomRegular { n: 24, d: 4 };
    let config = adversary_configs()[3]; // the everything-on adversary
    let positions: Vec<(u64, u64)> = (0..3u64)
        .flat_map(|stream| (0..2u64).map(move |idx| (stream, idx)))
        .collect();

    // "One worker": run the trials in grid order.
    let forward: Vec<_> = positions
        .iter()
        .map(|&(s, i)| run_trial(&topo, 1, derive_seed(master, s, i), config))
        .collect();
    // "Many workers": the same trials, scheduled in reverse — every
    // result must be byte-identical because nothing but the derived seed
    // feeds the adversary streams.
    let reversed: Vec<_> = positions
        .iter()
        .rev()
        .map(|&(s, i)| run_trial(&topo, 1, derive_seed(master, s, i), config))
        .collect();
    for (f, r) in forward.iter().zip(reversed.iter().rev()) {
        assert_eq!(f, r, "trial result depends on execution order");
    }
    // And every position is genuinely its own experiment.
    for (a, b) in forward.iter().zip(forward.iter().skip(1)) {
        assert_ne!(a.1, b.1, "adjacent grid positions share a fault schedule");
    }
}

#[test]
fn rerunning_a_seed_reproduces_the_fault_schedule_bit_for_bit() {
    let topo = Topology::Grid2d {
        rows: 5,
        cols: 5,
        torus: true,
    };
    for config in adversary_configs() {
        for seed in 0..4 {
            let first = run_trial(&topo, 0, seed, config);
            let second = run_trial(&topo, 0, seed, config);
            assert_eq!(first, second, "seed {seed} under {config:?}");
        }
    }
}

#[test]
fn counters_always_reconcile_with_sent_counts() {
    let topos = [
        Topology::Complete { n: 10 },
        Topology::RandomRegular { n: 32, d: 4 },
        Topology::Cycle { n: 17 },
    ];
    for topo in &topos {
        for config in adversary_configs() {
            for seed in 0..6 {
                let (_, m, _) = run_trial(topo, 2, seed, config);
                assert_eq!(
                    m.delivered,
                    m.messages - m.dropped + m.duplicated,
                    "{topo} seed {seed} under {config:?}"
                );
                assert!(m.dropped <= m.messages);
                if config.faults.is_zero() {
                    assert_eq!(m.delivered, m.messages);
                    assert_eq!((m.dropped, m.duplicated), (0, 0));
                }
                // Faults are the environment's doing, never the
                // protocol's: they must not read as CONGEST violations.
                assert_eq!(m.multi_send_violations, 0, "{topo} seed {seed}");
            }
        }
    }
}

#[test]
fn crashes_only_remove_work() {
    // A crash silences a node; it cannot conjure messages. Compare each
    // faulty run against its fault-free twin (same seed, same node RNGs).
    let topo = Topology::Complete { n: 16 };
    for seed in 0..6 {
        let (_, clean, _) = run_trial(&topo, 3, seed, ExecConfig::default());
        let crashy = ExecConfig {
            faults: FaultSpec {
                crash: 0.4,
                crash_window: 3,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        };
        let (_, crashed, _) = run_trial(&topo, 3, seed, crashy);
        assert!(crashed.messages <= clean.messages, "seed {seed}");
        assert_eq!((crashed.dropped, crashed.duplicated), (0, 0));
        assert_eq!(crashed.delivered, crashed.messages);
    }
    // With the window spanning every tick and certainty, nobody speaks.
    let total = ExecConfig {
        faults: FaultSpec {
            crash: 1.0,
            crash_window: 1,
            ..FaultSpec::default()
        },
        ..ExecConfig::default()
    };
    let (_, m, _) = run_trial(&topo, 3, 0, total);
    assert_eq!(m.messages, 0, "a fully crashed network is silent");
}
