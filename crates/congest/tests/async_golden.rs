//! Golden pins of the asynchronous adversary's schedule.
//!
//! `async_adversary.rs` checks that two runs agree with each other; these
//! tests check that runs agree with constants recorded from an earlier
//! build of the engine. Any change to the adversary's draw order — drop,
//! then duplicate, then the copy's latency, then the original's latency,
//! per send, in ascending node order — or to the event tiebreak, the crash
//! schedule, or the failed-tick retry shows up here as a changed digest
//! even when the engine stays self-consistent.
//!
//! Each case is a fixed `(graph, seed, ExecConfig)`. It is reduced to its
//! [`Metrics`] plus FNV-1a digests of its per-round trace and its outputs.

use ale_congest::{
    AsyncNetwork, CongestError, ExecConfig, FaultSpec, Inbox, LatencyDist, Metrics, NodeCtx,
    OutCtx, Process, RoundTrace,
};
use ale_graph::{generators, Graph};
use rand::Rng;

/// Gossips random-width payloads for a fixed number of rounds. A node
/// named as the tripper sends on an invalid port once, at `trip_round`,
/// between valid sends; an occasional repeated port exercises the
/// multi-send path.
#[derive(Debug)]
struct Gossip {
    acc: u64,
    rounds_left: u64,
    trip_round: Option<u64>,
}

impl Process for Gossip {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            self.acc = self.acc.rotate_left(5) ^ m.msg ^ ((m.port as u64) << 7) ^ ctx.round;
        }
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        let fanout = ctx.rng.gen_range(1..=ctx.degree);
        let width = ctx.rng.gen_range(1..=40u32);
        for p in 0..fanout {
            out.send(p, (self.acc >> p) & ((1u64 << width) - 1));
            if self.trip_round == Some(ctx.round) && p == fanout / 2 {
                self.trip_round = None;
                out.send(ctx.degree + 1, 1);
            }
        }
        if ctx.rng.gen_range(0..8u32) == 0 {
            out.send(0, self.acc & 0xFF);
        }
    }

    fn is_halted(&self) -> bool {
        self.rounds_left == 0
    }

    fn output(&self) -> u64 {
        self.acc
    }
}

/// 64-bit FNV-1a over a stream of words (little-endian bytes).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn trace_digest(trace: &[RoundTrace]) -> u64 {
    fnv1a(
        trace
            .iter()
            .flat_map(|t| [t.round, t.messages, t.bits, t.max_bits as u64]),
    )
}

/// Everything a golden case pins.
#[derive(Debug, PartialEq)]
struct Golden {
    metrics: Metrics,
    trace: u64,
    outputs: u64,
    /// Ticks executed, messages still in flight at the end, and
    /// `InvalidPort` errors seen while driving the run.
    rounds: u64,
    in_flight: usize,
    failed_ticks: u64,
}

/// Runs `graph` under `config` with ten ticks of gossip. Node `tripper`
/// (if any) sends on an invalid port once, at tick 3.
fn run_case(graph: &Graph, seed: u64, config: ExecConfig, tripper: Option<usize>) -> Golden {
    run_gossip(graph, seed, config, 10, tripper.map(|v| (v, 3)))
}

/// Runs `graph` under `config` until every node halts or crashes, each
/// node gossiping for `rounds` ticks. `tripper = Some((v, t))` makes node
/// `v` send on an invalid port once, at tick `t`; the failed tick is
/// retried by stepping again.
fn run_gossip(
    graph: &Graph,
    seed: u64,
    config: ExecConfig,
    rounds: u64,
    tripper: Option<(usize, u64)>,
) -> Golden {
    let mut v = 0usize;
    let mut net = AsyncNetwork::from_fn_with(graph, seed, 16, config, |_deg, rng| {
        let p = Gossip {
            acc: rng.gen(),
            rounds_left: rounds,
            trip_round: tripper.and_then(|(t, at)| (t == v).then_some(at)),
        };
        v += 1;
        p
    })
    .expect("valid config");
    net.enable_trace();
    let mut failed_ticks = 0;
    while !net.all_halted() && net.round() < 8 * rounds {
        match net.step() {
            Ok(()) => {}
            Err(CongestError::InvalidPort { .. }) => failed_ticks += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    Golden {
        metrics: net.metrics_snapshot(),
        trace: trace_digest(net.trace()),
        outputs: fnv1a(net.outputs()),
        rounds: net.round(),
        in_flight: net.in_flight(),
        failed_ticks,
    }
}

#[test]
fn geometric_latency_with_drop_duplicate_and_crash() {
    let g = generators::gnp_connected(24, 0.25, 7).unwrap();
    let config = ExecConfig {
        latency: LatencyDist::Geometric { p: 0.45 },
        faults: FaultSpec {
            drop: 0.2,
            duplicate: 0.15,
            crash: 0.25,
            crash_window: 6,
        },
    };
    let got = run_case(&g, 42, config, None);
    assert_eq!(
        got,
        Golden {
            metrics: Metrics {
                rounds: 10,
                congest_rounds: 29,
                messages: 607,
                bits: 12381,
                budget_bits: 16,
                oversize_messages: 365,
                max_message_bits: 39,
                multi_send_violations: 17,
                delivered: 566,
                dropped: 124,
                duplicated: 83,
            },
            trace: 0x18FD_D034_E6BA_8CE6,
            outputs: 0xD632_F511_1C2B_734E,
            rounds: 10,
            in_flight: 118,
            failed_ticks: 0,
        }
    );
}

#[test]
fn uniform_latency_one_to_five() {
    let g = generators::random_regular(20, 3, 5).unwrap();
    let config = ExecConfig {
        latency: LatencyDist::Uniform { min: 1, max: 5 },
        ..ExecConfig::default()
    };
    let got = run_case(&g, 9, config, None);
    assert_eq!(
        got,
        Golden {
            metrics: Metrics {
                rounds: 10,
                congest_rounds: 30,
                messages: 424,
                bits: 7960,
                budget_bits: 16,
                oversize_messages: 236,
                max_message_bits: 40,
                multi_send_violations: 26,
                delivered: 424,
                dropped: 0,
                duplicated: 0,
            },
            trace: 0x42AC_D499_BE5D_15EE,
            outputs: 0x9D27_6522_5AE8_762E,
            rounds: 10,
            in_flight: 133,
            failed_ticks: 0,
        }
    );
}

#[test]
fn failed_tick_keeps_its_fate_draws_and_retries_its_arrivals() {
    let g = generators::gnp_connected(16, 0.3, 3).unwrap();
    let config = ExecConfig {
        latency: LatencyDist::Uniform { min: 1, max: 3 },
        faults: FaultSpec {
            drop: 0.3,
            duplicate: 0.1,
            ..FaultSpec::default()
        },
    };
    let got = run_case(&g, 5, config, Some(9));
    assert_eq!(got.failed_ticks, 1, "the tripper fails exactly one tick");
    assert_eq!(
        got,
        Golden {
            metrics: Metrics {
                rounds: 10,
                congest_rounds: 27,
                messages: 521,
                bits: 9870,
                budget_bits: 16,
                oversize_messages: 289,
                max_message_bits: 40,
                multi_send_violations: 10,
                delivered: 406,
                dropped: 153,
                duplicated: 38,
            },
            trace: 0x9447_307F_DE68_0EBE,
            outputs: 0xE9E8_FE2F_D87A_3FB0,
            rounds: 10,
            in_flight: 55,
            failed_ticks: 1,
        }
    );
}

#[test]
fn uniform_latency_up_to_the_cap_with_drop_and_duplicate() {
    // A hundred ticks of sends over latencies 1–64 wrap the largest
    // delivery ring and keep every one of its arrival ticks occupied.
    let g = generators::random_regular(32, 4, 11).unwrap();
    let config = ExecConfig {
        latency: LatencyDist::Uniform { min: 1, max: 64 },
        faults: FaultSpec {
            drop: 0.1,
            duplicate: 0.1,
            ..FaultSpec::default()
        },
    };
    let got = run_gossip(&g, 17, config, 100, None);
    assert_eq!(
        got,
        Golden {
            metrics: Metrics {
                rounds: 100,
                congest_rounds: 300,
                messages: 8391,
                bits: 158746,
                budget_bits: 16,
                oversize_messages: 4609,
                max_message_bits: 40,
                multi_send_violations: 431,
                delivered: 8211,
                dropped: 874,
                duplicated: 694,
            },
            trace: 0x0C5F_EB05_5DA7_7895,
            outputs: 0xD064_782D_A350_DC77,
            rounds: 100,
            in_flight: 2639,
            failed_ticks: 0,
        }
    );
}

#[test]
fn long_geometric_tail_with_every_fault_and_a_failed_tick() {
    // At p = 0.05 about 4 % of latency draws hit the 64-tick cap. The
    // tripper fails tick 70, after the ring has wrapped, while crashes
    // land throughout the first 80 ticks.
    let g = generators::gnp_connected(24, 0.25, 13).unwrap();
    let config = ExecConfig {
        latency: LatencyDist::Geometric { p: 0.05 },
        faults: FaultSpec {
            drop: 0.15,
            duplicate: 0.1,
            crash: 0.2,
            crash_window: 80,
        },
    };
    let got = run_gossip(&g, 23, config, 100, Some((5, 70)));
    assert_eq!(got.failed_ticks, 1, "the tripper fails exactly one tick");
    assert_eq!(
        got,
        Golden {
            metrics: Metrics {
                rounds: 100,
                congest_rounds: 296,
                messages: 6948,
                bits: 131529,
                budget_bits: 16,
                oversize_messages: 3851,
                max_message_bits: 40,
                multi_send_violations: 257,
                delivered: 6503,
                dropped: 1053,
                duplicated: 608,
            },
            trace: 0xA7FB_5B65_4E02_2984,
            outputs: 0x8660_B09D_BE7B_5775,
            rounds: 100,
            in_flight: 1031,
            failed_ticks: 1,
        }
    );
}
