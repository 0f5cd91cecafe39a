//! Arena engine ↔ reference engine equivalence.
//!
//! The flat-arena engine (`Network`) must be observationally identical to
//! the pre-arena reference engine (`ReferenceNetwork`): for the same graph
//! and seed, outputs, metrics, and per-round traces match byte for byte —
//! no process can tell which engine is driving it. These tests pin that on
//! seeded random-regular and torus graphs, through mid-run halts,
//! multi-sends, congest-oversized payloads, and the invalid-port
//! drop-the-round path.

use ale_congest::{
    CongestError, Incoming, Metrics, Network, NodeCtx, OutCtx, Process, ReferenceNetwork, RunStatus,
};
use ale_graph::{Graph, ImplicitTopology, Topology};
use rand::Rng;

/// A deliberately messy protocol that exercises every metering path:
///
/// * random per-round fan-out (including silence),
/// * occasional double-sends on port 0 (multi-send violations),
/// * payload sizes crossing the CONGEST budget (oversize charging),
/// * random mid-run halts, staggered per node,
/// * RNG consumption that depends on received messages (so any delivery
///   difference snowballs into divergent outputs within a round or two).
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

fn assert_equivalent_run(graph: &Graph, seed: u64, budget: usize, rounds: u64) {
    let mut arena = Network::from_fn(graph, seed, budget, chaos_factory(seed));
    let mut reference = ReferenceNetwork::from_fn(graph, seed, budget, chaos_factory(seed));
    arena.enable_trace();
    reference.enable_trace();

    // Step in lockstep, comparing metrics snapshots after every round so a
    // divergence is pinned to the exact round it first appears in.
    let mut r = 0u64;
    while !arena.all_halted() && r < rounds {
        arena.step().expect("arena step");
        reference.step().expect("reference step");
        assert_eq!(
            arena.metrics_snapshot(),
            reference.metrics_snapshot(),
            "metrics diverged at round {r}"
        );
        r += 1;
    }
    assert_eq!(arena.all_halted(), reference.all_halted());
    assert_eq!(arena.round(), reference.round());
    assert_eq!(arena.outputs(), reference.outputs(), "outputs diverged");
    assert_eq!(arena.trace(), reference.trace(), "traces diverged");
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
    // engines: an arena run on an implicit torus matches a reference run
    // on the *explicit* twin of the same torus, trace for trace — so the
    // engines can tell neither the backends nor each other apart.
    let implicit = Graph::from_implicit(ImplicitTopology::Torus { rows: 5, cols: 7 }).unwrap();
    assert!(implicit.is_implicit());
    let explicit = ale_graph::generators::grid2d(5, 7, true).unwrap();
    for seed in 0..8 {
        let mut arena = Network::from_fn(&implicit, seed, 8, chaos_factory(seed));
        let mut reference = ReferenceNetwork::from_fn(&explicit, seed, 8, chaos_factory(seed));
        arena.enable_trace();
        reference.enable_trace();
        while !arena.all_halted() {
            arena.step().expect("arena step");
            reference.step().expect("reference step");
        }
        assert!(reference.all_halted());
        assert_eq!(arena.outputs(), reference.outputs(), "outputs diverged");
        assert_eq!(arena.metrics_snapshot(), reference.metrics_snapshot());
        assert_eq!(arena.trace(), reference.trace(), "traces diverged");
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

/// Sends on a port the node does not have once `round == when`, on node
/// draws where `trigger` is set; otherwise behaves like a quiet gossip.
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
            out.send(0, 1); // legal send before the bug: dropped with the round
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
        let mut reference = ReferenceNetwork::from_fn(&g, 9, 8, make(trigger_node));
        arena.enable_trace();
        reference.enable_trace();
        for _ in 0..3 {
            arena.step().unwrap();
            reference.step().unwrap();
        }
        let ae = arena.step().unwrap_err();
        let re = reference.step().unwrap_err();
        assert_eq!(ae, re, "same InvalidPort error");
        assert!(matches!(ae, CongestError::InvalidPort { .. }));
        // The failed round delivered and metered nothing; multi-send
        // violations recorded before the failure stick in both engines.
        assert_eq!(arena.metrics_snapshot(), reference.metrics_snapshot());
        assert_eq!(arena.round(), reference.round());
        assert_eq!(arena.round(), 3, "failed round must not advance the clock");
        // Inboxes were preserved: the next step re-runs the same round and
        // fails identically (processes re-observe their inboxes but RNGs
        // advanced — equivalently in both engines).
        let ae2 = arena.step().unwrap_err();
        let re2 = reference.step().unwrap_err();
        assert_eq!(ae2, re2);
        assert_eq!(arena.metrics_snapshot(), reference.metrics_snapshot());
        assert_eq!(arena.outputs(), reference.outputs());
        assert_eq!(arena.trace(), reference.trace());
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
    let mut reference = ReferenceNetwork::from_fn(&g, 5, 64, |_d, rng| Dense(rng.gen()));
    arena.enable_trace();
    reference.enable_trace();
    let sa = arena.run_for(40).unwrap();
    let sr = reference.run_for(40).unwrap();
    assert_eq!(sa, RunStatus::RoundLimit);
    assert_eq!(sr, RunStatus::RoundLimit);
    assert_eq!(arena.outputs(), reference.outputs());
    assert_eq!(arena.metrics_snapshot(), reference.metrics_snapshot());
    assert_eq!(arena.trace(), reference.trace());
}

#[test]
fn metrics_are_value_identical_not_just_equal() {
    // Belt and braces: compare the Metrics field by field (Metrics is
    // Copy + PartialEq, but spell the fields out so a future field added
    // without equivalence coverage shows up here as a compile or test
    // failure).
    let g = Topology::RandomRegular { n: 30, d: 4 }.build(11).unwrap();
    let mut arena = Network::from_fn(&g, 13, 6, chaos_factory(13));
    let mut reference = ReferenceNetwork::from_fn(&g, 13, 6, chaos_factory(13));
    while !arena.all_halted() {
        arena.step().unwrap();
        reference.step().unwrap();
    }
    let a: Metrics = arena.metrics_snapshot();
    let r: Metrics = reference.metrics_snapshot();
    assert_eq!(a.rounds, r.rounds);
    assert_eq!(a.congest_rounds, r.congest_rounds);
    assert_eq!(a.messages, r.messages);
    assert_eq!(a.bits, r.bits);
    assert_eq!(a.budget_bits, r.budget_bits);
    assert_eq!(a.oversize_messages, r.oversize_messages);
    assert_eq!(a.max_message_bits, r.max_message_bits);
    assert_eq!(a.multi_send_violations, r.multi_send_violations);
    assert_eq!(a.delivered, r.delivered);
    assert_eq!(a.dropped, r.dropped);
    assert_eq!(a.duplicated, r.duplicated);
    // Fault-free engines deliver exactly what they send.
    assert_eq!(a.delivered, a.messages);
    assert_eq!((a.dropped, a.duplicated), (0, 0));
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

/// Steps a [`Shouter`] run on `arena_graph` and on the reference engine
/// over `reference_graph` (the same graph, or its explicit twin) in
/// lockstep, comparing metrics after every round.
fn assert_equivalent_broadcasts(arena_graph: &Graph, reference_graph: &Graph, seed: u64) {
    let mut arena = Network::from_fn(arena_graph, seed, 8, shouter_factory(seed));
    let mut reference = ReferenceNetwork::from_fn(reference_graph, seed, 8, shouter_factory(seed));
    arena.enable_trace();
    reference.enable_trace();
    while !arena.all_halted() {
        arena.step().expect("arena step");
        reference.step().expect("reference step");
        assert_eq!(
            arena.metrics_snapshot(),
            reference.metrics_snapshot(),
            "metrics diverged at round {}",
            arena.round()
        );
    }
    assert!(reference.all_halted());
    assert!(arena.metrics().multi_send_violations > 0);
    assert!(arena.metrics().oversize_messages > 0);
    assert_eq!(arena.outputs(), reference.outputs(), "outputs diverged");
    assert_eq!(arena.trace(), reference.trace(), "traces diverged");
}

#[test]
fn broadcasts_are_equivalent_on_random_regular_graphs_and_an_implicit_torus() {
    let regular = Topology::RandomRegular { n: 40, d: 4 }.build(2).unwrap();
    let implicit = Graph::from_implicit(ImplicitTopology::Torus { rows: 5, cols: 7 }).unwrap();
    let explicit = ale_graph::generators::grid2d(5, 7, true).unwrap();
    for seed in 0..8 {
        assert_equivalent_broadcasts(&regular, &regular, seed);
        assert_equivalent_broadcasts(&implicit, &explicit, seed);
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

/// Steps a [`Mixer`] run on `arena_graph` and on the reference engine over
/// `reference_graph` in lockstep: every step must succeed or fail alike,
/// and the metrics must agree after each. Returns the failed steps.
fn assert_equivalent_mix(arena_graph: &Graph, reference_graph: &Graph, seed: u64) -> usize {
    let mut arena = Network::from_fn(arena_graph, seed, 64, mixer_factory());
    let mut reference = ReferenceNetwork::from_fn(reference_graph, seed, 64, mixer_factory());
    arena.enable_trace();
    reference.enable_trace();
    let mut failures = 0;
    while !arena.all_halted() {
        let step = arena.step();
        assert_eq!(step, reference.step(), "round {}", arena.round());
        failures += usize::from(step.is_err());
        assert_eq!(
            arena.metrics_snapshot(),
            reference.metrics_snapshot(),
            "metrics diverged at round {}",
            arena.round()
        );
    }
    assert!(reference.all_halted());
    assert!(arena.metrics().multi_send_violations > 0);
    assert_eq!(arena.outputs(), reference.outputs(), "outputs diverged");
    assert_eq!(arena.trace(), reference.trace(), "traces diverged");
    failures
}

#[test]
fn posted_broadcasts_are_equivalent_on_regular_complete_and_implicit_graphs() {
    // On rregular:40 most port rows are not in neighbor-id order, so the
    // inboxes' order comes from the driver's neighbor table.
    let regular = Topology::RandomRegular { n: 40, d: 4 }.build(2).unwrap();
    let complete = ale_graph::generators::complete(40).unwrap();
    let implicit = Graph::from_implicit(ImplicitTopology::Torus { rows: 5, cols: 7 }).unwrap();
    let explicit = ale_graph::generators::grid2d(5, 7, true).unwrap();
    let mut failures = 0;
    for seed in 0..8 {
        failures += assert_equivalent_mix(&regular, &regular, seed);
        failures += assert_equivalent_mix(&complete, &complete, seed);
        failures += assert_equivalent_mix(&implicit, &explicit, seed);
    }
    assert!(failures > 0, "some round failed after its posts");
}
