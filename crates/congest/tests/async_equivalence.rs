//! Async engine ↔ arena engine equivalence — the oracle suite.
//!
//! At **unit latency with zero faults** the event-driven engine
//! (`AsyncNetwork`) must be observationally identical to the arena engine
//! (`Network`): for the same graph and seed, outputs, metrics, and
//! per-round traces match byte for byte — no process can tell which
//! engine is driving it. This is the load-bearing contract that lets the
//! battle-tested synchronous engine serve as the correctness oracle for
//! the asynchronous one; every fault/latency feature then deviates from a
//! pinned baseline rather than from hope. The suite mirrors the
//! arena↔reference suite (`equivalence.rs`) protocol for protocol:
//! seeded random-regular and torus graphs, the implicit-topology backend,
//! staggered mid-run halts, multi-sends, congest-oversized payloads, and
//! the invalid-port drop-the-round path.

use ale_congest::{
    AsyncNetwork, CongestError, Incoming, Metrics, Network, NodeCtx, OutCtx, Process, RunStatus,
};
use ale_graph::{Graph, ImplicitTopology, Topology};
use rand::Rng;

/// A deliberately messy protocol that exercises every metering path:
/// random fan-out (including silence), double-sends on port 0, payloads
/// crossing the CONGEST budget, staggered mid-run halts, and RNG
/// consumption that depends on received messages — so any delivery-order
/// difference snowballs into divergent outputs within a round or two.
#[derive(Debug, Clone)]
struct Chaos {
    acc: u64,
    halt_round: u64,
    done: bool,
}

impl Process for Chaos {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Incoming<u64>], out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            // Arrival order and port tags feed the accumulator, so the
            // engines must agree on both.
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(m.msg)
                .wrapping_add(m.port as u64);
        }
        if ctx.round >= self.halt_round {
            self.done = true;
            return;
        }
        // One RNG draw per received message: delivery differences desync
        // the stream immediately.
        for _ in 0..inbox.len() {
            self.acc ^= ctx.rng.gen::<u64>() >> 32;
        }
        let fanout = ctx.rng.gen_range(0..=ctx.degree);
        for _ in 0..fanout {
            let port = ctx.rng.gen_range(0..ctx.degree);
            // Mix small and budget-busting payloads.
            let wide: bool = ctx.rng.gen_bool(0.2);
            let msg = if wide {
                self.acc | (1 << 60)
            } else {
                self.acc & 0xFF
            };
            out.send(port, msg);
            if port == 0 && ctx.rng.gen_bool(0.3) {
                out.send(0, msg ^ 1); // multi-send violation, delivered anyway
            }
        }
    }

    fn is_halted(&self) -> bool {
        self.done
    }

    fn output(&self) -> u64 {
        self.acc
    }
}

fn chaos_factory(seed_mix: u64) -> impl FnMut(usize, &mut rand::rngs::StdRng) -> Chaos {
    move |_deg, rng| Chaos {
        acc: rng.gen(),
        halt_round: 2 + (rng.gen::<u64>() ^ seed_mix) % 14, // staggered halts
        done: false,
    }
}

/// Lockstep-steps an arena run and a default-config (unit latency, zero
/// faults) async run, comparing metrics snapshots after every round so a
/// divergence is pinned to the exact round it first appears in.
fn assert_equivalent_run(graph: &Graph, seed: u64, budget: usize, rounds: u64) {
    let mut arena = Network::from_fn(graph, seed, budget, chaos_factory(seed));
    let mut evented = AsyncNetwork::from_fn(graph, seed, budget, chaos_factory(seed));
    arena.enable_trace();
    evented.enable_trace();

    let mut r = 0u64;
    while !arena.all_halted() && r < rounds {
        arena.step().expect("arena step");
        evented.step().expect("async step");
        assert_eq!(
            arena.metrics_snapshot(),
            evented.metrics_snapshot(),
            "metrics diverged at round {r}"
        );
        r += 1;
    }
    assert_eq!(arena.all_halted(), evented.all_halted());
    assert_eq!(arena.round(), evented.round());
    assert_eq!(arena.outputs(), evented.outputs(), "outputs diverged");
    assert_eq!(arena.trace(), evented.trace(), "traces diverged");
    // Nothing may linger in the event queue once all senders halted: at
    // unit latency every message was deliverable one tick after its send.
    if evented.all_halted() {
        evented.step().expect("drain tick");
        assert_eq!(evented.in_flight(), 0, "stale events in the queue");
    }
}

#[test]
fn equivalent_on_random_regular_graphs() {
    for (n, d, gseed) in [(20usize, 3usize, 5u64), (40, 4, 2), (64, 4, 3)] {
        let g = Topology::RandomRegular { n, d }.build(gseed).unwrap();
        for seed in 0..8 {
            assert_equivalent_run(&g, seed, 8, 64);
        }
    }
}

#[test]
fn equivalent_on_torus_graphs() {
    for (rows, cols) in [(4usize, 5usize), (6, 6)] {
        let g = Topology::Grid2d {
            rows,
            cols,
            torus: true,
        }
        .build(0)
        .unwrap();
        for seed in 0..8 {
            assert_equivalent_run(&g, seed, 8, 64);
        }
    }
}

#[test]
fn equivalent_on_an_implicit_torus() {
    // The O(1)-memory computed-neighbor backend must be invisible to the
    // engines: an async run on an implicit torus matches an arena run on
    // the *explicit* twin of the same torus, trace for trace.
    let implicit = Graph::from_implicit(ImplicitTopology::Torus { rows: 5, cols: 7 }).unwrap();
    assert!(implicit.is_implicit());
    let explicit = ale_graph::generators::grid2d(5, 7, true).unwrap();
    for seed in 0..8 {
        let mut evented = AsyncNetwork::from_fn(&implicit, seed, 8, chaos_factory(seed));
        let mut arena = Network::from_fn(&explicit, seed, 8, chaos_factory(seed));
        evented.enable_trace();
        arena.enable_trace();
        while !arena.all_halted() {
            arena.step().expect("arena step");
            evented.step().expect("async step");
        }
        assert!(evented.all_halted());
        assert_eq!(arena.outputs(), evented.outputs(), "outputs diverged");
        assert_eq!(arena.metrics_snapshot(), evented.metrics_snapshot());
        assert_eq!(arena.trace(), evented.trace(), "traces diverged");
    }
}

#[test]
fn equivalent_with_tight_congest_budget() {
    // Budget 2 forces heavy oversize charging; both engines must charge
    // identical serialized CONGEST rounds.
    let g = Topology::RandomRegular { n: 24, d: 3 }.build(7).unwrap();
    for seed in 0..6 {
        assert_equivalent_run(&g, seed, 2, 48);
    }
}

/// Sends on a port the node does not have once `round == when`, on nodes
/// where `trigger` is set; otherwise behaves like a quiet gossip.
#[derive(Debug)]
struct Saboteur {
    trigger: bool,
    when: u64,
    sum: u64,
}

impl Process for Saboteur {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Incoming<u64>], out: &mut OutCtx<'_, u64>) {
        self.sum += inbox.iter().map(|m| m.msg).sum::<u64>();
        if self.trigger && ctx.round == self.when {
            out.send(0, 1); // legal send before the bug: dropped with the tick
            out.send(0, 2); // multi-send: recorded before the failure, sticks
            out.send(ctx.degree + 3, 9); // the bug
            out.send(0, 3); // after the failure: ignored
            return;
        }
        out.broadcast(self.sum & 0x3F);
    }

    fn output(&self) -> u64 {
        self.sum
    }
}

#[test]
fn invalid_port_drop_the_round_is_equivalent() {
    let g = Topology::RandomRegular { n: 12, d: 3 }.build(4).unwrap();
    let make = |trigger_node: usize| {
        let mut v = 0usize;
        move |_deg: usize, _rng: &mut rand::rngs::StdRng| {
            let p = Saboteur {
                trigger: v == trigger_node,
                when: 3,
                sum: 1,
            };
            v += 1;
            p
        }
    };
    for trigger_node in [0usize, 5, 11] {
        let mut arena = Network::from_fn(&g, 9, 8, make(trigger_node));
        let mut evented = AsyncNetwork::from_fn(&g, 9, 8, make(trigger_node));
        arena.enable_trace();
        evented.enable_trace();
        for _ in 0..3 {
            arena.step().unwrap();
            evented.step().unwrap();
        }
        let ae = arena.step().unwrap_err();
        let ee = evented.step().unwrap_err();
        assert_eq!(ae, ee, "same InvalidPort error");
        assert!(matches!(ae, CongestError::InvalidPort { .. }));
        // The failed tick delivered and metered nothing; multi-send
        // violations recorded before the failure stick in both engines.
        assert_eq!(arena.metrics_snapshot(), evented.metrics_snapshot());
        assert_eq!(arena.round(), evented.round());
        assert_eq!(arena.round(), 3, "failed round must not advance the clock");
        // Inboxes were preserved: the next step re-runs the same round and
        // fails identically (processes re-observe their inboxes but RNGs
        // advanced — equivalently in both engines).
        let ae2 = arena.step().unwrap_err();
        let ee2 = evented.step().unwrap_err();
        assert_eq!(ae2, ee2);
        assert_eq!(arena.metrics_snapshot(), evented.metrics_snapshot());
        assert_eq!(arena.outputs(), evented.outputs());
        assert_eq!(arena.trace(), evented.trace());
    }
}

/// Every-round all-port gossip with no halts: the steady-state dense case.
#[derive(Debug, Clone)]
struct Dense(u64);

impl Process for Dense {
    type Msg = u64;
    type Output = u64;

    fn round(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        inbox: &[Incoming<u64>],
        out: &mut OutCtx<'_, u64>,
    ) {
        for m in inbox {
            self.0 = self.0.rotate_left(1) ^ m.msg;
        }
        out.broadcast(self.0);
    }

    fn output(&self) -> u64 {
        self.0
    }
}

#[test]
fn equivalent_dense_never_halting() {
    let g = Topology::Grid2d {
        rows: 5,
        cols: 5,
        torus: true,
    }
    .build(0)
    .unwrap();
    let mut arena = Network::from_fn(&g, 5, 64, |_d, rng| Dense(rng.gen()));
    let mut evented = AsyncNetwork::from_fn(&g, 5, 64, |_d, rng| Dense(rng.gen()));
    arena.enable_trace();
    evented.enable_trace();
    let sa = arena.run_for(40).unwrap();
    let se = evented.run_for(40).unwrap();
    assert_eq!(sa, RunStatus::RoundLimit);
    assert_eq!(se, RunStatus::RoundLimit);
    assert_eq!(arena.outputs(), evented.outputs());
    assert_eq!(arena.metrics_snapshot(), evented.metrics_snapshot());
    assert_eq!(arena.trace(), evented.trace());
}

#[test]
fn metrics_are_value_identical_not_just_equal() {
    // Belt and braces: compare the Metrics field by field (Metrics is
    // Copy + PartialEq, but spell the fields out so a future field added
    // without async-equivalence coverage shows up here as a compile or
    // test failure).
    let g = Topology::RandomRegular { n: 30, d: 4 }.build(11).unwrap();
    let mut arena = Network::from_fn(&g, 13, 6, chaos_factory(13));
    let mut evented = AsyncNetwork::from_fn(&g, 13, 6, chaos_factory(13));
    while !arena.all_halted() {
        arena.step().unwrap();
        evented.step().unwrap();
    }
    let a: Metrics = arena.metrics_snapshot();
    let e: Metrics = evented.metrics_snapshot();
    assert_eq!(a.rounds, e.rounds);
    assert_eq!(a.congest_rounds, e.congest_rounds);
    assert_eq!(a.messages, e.messages);
    assert_eq!(a.bits, e.bits);
    assert_eq!(a.budget_bits, e.budget_bits);
    assert_eq!(a.oversize_messages, e.oversize_messages);
    assert_eq!(a.max_message_bits, e.max_message_bits);
    assert_eq!(a.multi_send_violations, e.multi_send_violations);
    assert_eq!(a.delivered, e.delivered);
    assert_eq!(a.dropped, e.dropped);
    assert_eq!(a.duplicated, e.duplicated);
    // Fault-free runs deliver exactly what they send, on both engines.
    assert_eq!(e.delivered, e.messages);
    assert_eq!((e.dropped, e.duplicated), (0, 0));
}

/// [`Chaos`]'s twin for the broadcast path: in a round it may stay
/// silent, send once on port 0 and then broadcast (so the
/// once-per-broadcast metering meets a multi-send), or just broadcast,
/// with payloads that sometimes cross the CONGEST budget, until its
/// staggered halt.
#[derive(Debug, Clone)]
struct Shouter {
    acc: u64,
    halt_round: u64,
    done: bool,
}

impl Process for Shouter {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Incoming<u64>], out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(m.msg)
                .wrapping_add(m.port as u64);
        }
        if ctx.round >= self.halt_round {
            self.done = true;
            return;
        }
        let msg = if ctx.rng.gen_bool(0.2) {
            self.acc | (1 << 60)
        } else {
            self.acc & 0xFF
        };
        match ctx.rng.gen_range(0..4u8) {
            0 => {}
            1 => {
                out.send(0, msg ^ 1);
                out.broadcast(msg);
            }
            _ => out.broadcast(msg),
        }
    }

    fn is_halted(&self) -> bool {
        self.done
    }

    fn output(&self) -> u64 {
        self.acc
    }
}

fn shouter_factory(seed_mix: u64) -> impl FnMut(usize, &mut rand::rngs::StdRng) -> Shouter {
    move |_deg, rng| Shouter {
        acc: rng.gen(),
        halt_round: 2 + (rng.gen::<u64>() ^ seed_mix) % 14,
        done: false,
    }
}

#[test]
fn broadcasts_are_equivalent_on_random_regular_graphs_and_an_implicit_torus() {
    let regular = Topology::RandomRegular { n: 40, d: 4 }.build(2).unwrap();
    let implicit = Graph::from_implicit(ImplicitTopology::Torus { rows: 5, cols: 7 }).unwrap();
    for graph in [&regular, &implicit] {
        for seed in 0..8 {
            let mut arena = Network::from_fn(graph, seed, 8, shouter_factory(seed));
            let mut evented = AsyncNetwork::from_fn(graph, seed, 8, shouter_factory(seed));
            arena.enable_trace();
            evented.enable_trace();
            while !arena.all_halted() {
                arena.step().expect("arena step");
                evented.step().expect("async step");
                assert_eq!(
                    arena.metrics_snapshot(),
                    evented.metrics_snapshot(),
                    "metrics diverged at round {}",
                    arena.round()
                );
            }
            assert!(evented.all_halted());
            assert!(arena.metrics().multi_send_violations > 0);
            assert!(arena.metrics().oversize_messages > 0);
            assert_eq!(arena.outputs(), evented.outputs(), "outputs diverged");
            assert_eq!(arena.trace(), evented.trace(), "traces diverged");
        }
    }
}

/// Rounds in which only about one node in eight speaks. Before them every
/// node speaks, most by broadcasting first, so the lockstep driver posts
/// its broadcasts; the fall to a few speakers switches it to pushing, and
/// the climb back switches it to posting again.
const QUIET_ROUNDS: std::ops::Range<u64> = 6..12;

/// The posted-broadcast path's test process. In round 0 about one node in
/// eight broadcasts and nobody else sends: the lockstep driver posts that
/// round (the first counts as dense) and, finding it sparse, turns its
/// posts into pushes. Later, in a round it broadcasts and then sends again
/// on port 0 (a sender's post before its own push), sends once on a
/// random port (a push beside its neighbors' posts), or just broadcasts;
/// it falls quiet in [`QUIET_ROUNDS`] and halts after them. A node with a
/// `trip` round broadcasts and then addresses a port it does not have in
/// that round, once, so the round fails after its posts.
#[derive(Debug, Clone)]
struct Mixer {
    acc: u64,
    trip: Option<u64>,
    halt_round: u64,
    done: bool,
}

impl Process for Mixer {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Incoming<u64>], out: &mut OutCtx<'_, u64>) {
        for m in inbox {
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(m.msg)
                .wrapping_add(m.port as u64);
        }
        if ctx.round >= self.halt_round {
            self.done = true;
            return;
        }
        let msg = self.acc & 0xFFFF;
        if self.trip == Some(ctx.round) {
            self.trip = None;
            out.broadcast(msg);
            out.send(ctx.degree + 1, msg);
            return;
        }
        let speaks = ctx.rng.gen_range(0..8u32) == 0;
        if ctx.round == 0 {
            if speaks {
                out.broadcast(msg);
            }
            return;
        }
        if QUIET_ROUNDS.contains(&ctx.round) && !speaks {
            return;
        }
        match ctx.rng.gen_range(0..4u8) {
            0 => {
                out.broadcast(msg);
                out.send(0, msg ^ 1);
            }
            1 => out.send(ctx.rng.gen_range(0..ctx.degree), msg ^ 2),
            _ => out.broadcast(msg),
        }
    }

    fn is_halted(&self) -> bool {
        self.done
    }

    fn output(&self) -> u64 {
        self.acc
    }
}

fn mixer_factory() -> impl FnMut(usize, &mut rand::rngs::StdRng) -> Mixer {
    |_deg, rng| Mixer {
        acc: rng.gen(),
        trip: (rng.gen_range(0..12u32) == 0).then(|| rng.gen_range(1..18u64)),
        halt_round: QUIET_ROUNDS.end + 4 + rng.gen_range(0..6u64),
        done: false,
    }
}

/// Steps a [`Mixer`] run on the arena (which posts dense rounds'
/// broadcasts) and on the event queue at unit latency (which pushes every
/// message) in lockstep: every step must succeed or fail alike, and the
/// metrics must agree after each. Returns the failed steps.
fn assert_equivalent_mix(graph: &Graph, seed: u64) -> usize {
    let mut arena = Network::from_fn(graph, seed, 64, mixer_factory());
    let mut evented = AsyncNetwork::from_fn(graph, seed, 64, mixer_factory());
    arena.enable_trace();
    evented.enable_trace();
    let mut failures = 0;
    while !arena.all_halted() {
        let step = arena.step();
        assert_eq!(step, evented.step(), "round {}", arena.round());
        failures += usize::from(step.is_err());
        assert_eq!(
            arena.metrics_snapshot(),
            evented.metrics_snapshot(),
            "metrics diverged at round {}",
            arena.round()
        );
    }
    assert!(evented.all_halted());
    assert!(arena.metrics().multi_send_violations > 0);
    assert_eq!(arena.outputs(), evented.outputs(), "outputs diverged");
    assert_eq!(arena.trace(), evented.trace(), "traces diverged");
    failures
}

#[test]
fn posted_broadcasts_are_equivalent_on_regular_complete_and_implicit_graphs() {
    // On rregular:40 most port rows are not in neighbor-id order, so the
    // inboxes' order comes from the driver's neighbor table.
    let regular = Topology::RandomRegular { n: 40, d: 4 }.build(2).unwrap();
    let complete = ale_graph::generators::complete(40).unwrap();
    let implicit = Graph::from_implicit(ImplicitTopology::Torus { rows: 5, cols: 7 }).unwrap();
    let mut failures = 0;
    for seed in 0..8 {
        for graph in [&regular, &complete, &implicit] {
            failures += assert_equivalent_mix(graph, seed);
        }
    }
    assert!(failures > 0, "some round failed after its posts");
}
