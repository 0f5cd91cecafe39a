//! Engine ↔ reference-oracle equivalence: the one suite that guards the
//! engines.
//!
//! Every engine must be observationally identical to the naive oracle,
//! `ReferenceNetwork`: for the same graph and seed, each step's result,
//! the outputs, the metrics and the per-round traces match byte for byte,
//! so no process can tell which engine is driving it. Each case steps the
//! oracle and every engine under test ([`SUBJECTS`]: the lockstep arena,
//! and the event queue at unit latency with zero faults) in lockstep, so
//! every latency or fault feature of the event queue deviates from a
//! pinned baseline rather than from hope. The cases cover seeded
//! random-regular, complete and torus graphs, the implicit-topology
//! backend against its explicit twin, staggered mid-run halts,
//! multi-sends, congest-oversized payloads, broadcasts (posted once per
//! dense lockstep round) and the invalid-port drop-the-round path. Each
//! test process below is written once and runs on every engine.

use ale_congest::{
    AnyNetwork, CongestError, EngineKind, Incoming, Metrics, NodeCtx, OutCtx, Process,
    ReferenceNetwork, RunStatus,
};
use ale_graph::{Graph, ImplicitTopology, Topology};
use rand::rngs::StdRng;
use rand::Rng;

/// The engines checked against the oracle: the driver under lockstep
/// delivery, and under the event queue in its synchronous configuration.
const SUBJECTS: [EngineKind; 2] = [EngineKind::Arena, EngineKind::Async];

/// What the oracle did in a compared run.
struct OracleRun {
    /// Every failed step's error, in order.
    errors: Vec<CongestError>,
    /// The final metrics.
    metrics: Metrics,
}

/// Steps a fresh oracle run on `oracle_graph` and a run of every
/// [`SUBJECTS`] engine on `graph` (the same graph, or its implicit twin)
/// in lockstep, for `rounds` steps or until the oracle halts. After each
/// step every subject must have the oracle's step result, metrics and
/// round, so a divergence names the step where it starts; at the end the
/// halt flags, outputs and traces must match. An event queue whose nodes
/// all halted must hold nothing after one more tick: at unit latency
/// every message is due one tick after its send.
fn assert_equivalent<P, F>(
    graph: &Graph,
    oracle_graph: &Graph,
    seed: u64,
    budget: usize,
    rounds: u64,
    make: impl Fn() -> F,
) -> OracleRun
where
    P: Process<Output = u64>,
    F: FnMut(usize, &mut StdRng) -> P,
{
    let mut oracle = ReferenceNetwork::from_fn(oracle_graph, seed, budget, make());
    oracle.enable_trace();
    let mut subjects = SUBJECTS.map(|kind| {
        let mut net = AnyNetwork::from_fn(kind, graph, seed, budget, make());
        net.enable_trace();
        (kind, net)
    });
    let mut errors = Vec::new();
    for step in 0..rounds {
        if oracle.all_halted() {
            break;
        }
        let result = oracle.step();
        for (kind, net) in &mut subjects {
            assert_eq!(net.step(), result, "{kind}: step {step}");
            assert_eq!(
                net.metrics_snapshot(),
                oracle.metrics_snapshot(),
                "{kind}: metrics diverged at step {step}"
            );
            assert_eq!(net.round(), oracle.round(), "{kind}: step {step}");
        }
        errors.extend(result.err());
    }
    for (kind, net) in &mut subjects {
        assert_eq!(net.all_halted(), oracle.all_halted(), "{kind}");
        assert_eq!(net.outputs(), oracle.outputs(), "{kind}: outputs diverged");
        assert_eq!(net.trace(), oracle.trace(), "{kind}: traces diverged");
        if let AnyNetwork::Async(events) = net {
            if events.all_halted() {
                events.step().expect("drain tick");
                assert_eq!(events.in_flight(), 0, "stale events in the queue");
            }
        }
    }
    OracleRun {
        errors,
        metrics: oracle.metrics_snapshot(),
    }
}

/// A 5×7 torus on the O(1)-memory computed-neighbor backend, and its
/// explicit twin for the oracle: the backend must be invisible to the
/// engines, trace for trace.
fn torus_twins() -> (Graph, Graph) {
    let implicit = Graph::from_implicit(ImplicitTopology::Torus { rows: 5, cols: 7 }).unwrap();
    assert!(implicit.is_implicit());
    let explicit = ale_graph::generators::grid2d(5, 7, true).unwrap();
    (implicit, explicit)
}

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

fn chaos_factory(seed_mix: u64) -> impl FnMut(usize, &mut StdRng) -> Chaos {
    move |_deg, rng| Chaos {
        acc: rng.gen(),
        halt_round: 2 + (rng.gen::<u64>() ^ seed_mix) % 14, // staggered halts
        done: false,
    }
}

/// [`assert_equivalent`] on a [`Chaos`] run, in which no step may fail.
fn assert_chaos_equivalent(
    graph: &Graph,
    oracle_graph: &Graph,
    seed: u64,
    budget: usize,
    rounds: u64,
) {
    let run = assert_equivalent(graph, oracle_graph, seed, budget, rounds, || {
        chaos_factory(seed)
    });
    assert!(run.errors.is_empty(), "{:?}", run.errors);
}

#[test]
fn equivalent_on_random_regular_graphs() {
    for (n, d, gseed) in [(20usize, 3usize, 5u64), (40, 4, 2), (64, 4, 3)] {
        let g = Topology::RandomRegular { n, d }.build(gseed).unwrap();
        for seed in 0..8 {
            assert_chaos_equivalent(&g, &g, seed, 8, 64);
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
            assert_chaos_equivalent(&g, &g, seed, 8, 64);
        }
    }
}

#[test]
fn equivalent_on_an_implicit_torus() {
    let (implicit, explicit) = torus_twins();
    for seed in 0..8 {
        assert_chaos_equivalent(&implicit, &explicit, seed, 8, u64::MAX);
    }
}

#[test]
fn equivalent_with_tight_congest_budget() {
    // Budget 2 forces heavy oversize charging; every engine must charge
    // identical serialized CONGEST rounds.
    let g = Topology::RandomRegular { n: 24, d: 3 }.build(7).unwrap();
    for seed in 0..6 {
        assert_chaos_equivalent(&g, &g, seed, 2, 48);
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
        move |_deg: usize, _rng: &mut StdRng| {
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
        let run = assert_equivalent(&g, &g, 9, 8, 5, || make(trigger_node));
        // Round 3 fails twice alike. The failed round delivered and
        // metered nothing and kept its inboxes, so the next step re-runs
        // it (processes re-observe their inboxes; the RNGs advanced, alike
        // on every engine) and fails the same way.
        assert_eq!(run.errors.len(), 2, "{:?}", run.errors);
        assert_eq!(run.errors[0], run.errors[1]);
        assert!(matches!(run.errors[0], CongestError::InvalidPort { .. }));
        assert_eq!(
            run.metrics.rounds, 3,
            "failed rounds must not advance the clock"
        );
        // The multi-send recorded before each failure sticks.
        assert_eq!(run.metrics.multi_send_violations, 2);
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
    // Through `run_for`, so it stays covered on every engine.
    let run = |kind: EngineKind| {
        let mut net = AnyNetwork::from_fn(kind, &g, 5, 64, |_d, rng| Dense(rng.gen()));
        net.enable_trace();
        assert_eq!(net.run_for(40), Ok(RunStatus::RoundLimit), "{kind}");
        (net.outputs(), net.metrics_snapshot(), net.trace().to_vec())
    };
    let oracle = run(EngineKind::Reference);
    for kind in EngineKind::ALL {
        assert_eq!(run(kind), oracle, "{kind}");
    }
}

#[test]
fn metrics_are_value_identical_not_just_equal() {
    // Belt and braces: compare the Metrics field by field (Metrics is
    // Copy + PartialEq, but spell the fields out so a future field added
    // without equivalence coverage shows up here as a compile or test
    // failure).
    let g = Topology::RandomRegular { n: 30, d: 4 }.build(11).unwrap();
    for kind in SUBJECTS {
        let mut subject = AnyNetwork::from_fn(kind, &g, 13, 6, chaos_factory(13));
        let mut reference = ReferenceNetwork::from_fn(&g, 13, 6, chaos_factory(13));
        while !reference.all_halted() {
            subject.step().unwrap();
            reference.step().unwrap();
        }
        let s: Metrics = subject.metrics_snapshot();
        let r: Metrics = reference.metrics_snapshot();
        assert_eq!(s.rounds, r.rounds, "{kind}");
        assert_eq!(s.congest_rounds, r.congest_rounds, "{kind}");
        assert_eq!(s.messages, r.messages, "{kind}");
        assert_eq!(s.bits, r.bits, "{kind}");
        assert_eq!(s.budget_bits, r.budget_bits, "{kind}");
        assert_eq!(s.oversize_messages, r.oversize_messages, "{kind}");
        assert_eq!(s.max_message_bits, r.max_message_bits, "{kind}");
        assert_eq!(s.multi_send_violations, r.multi_send_violations, "{kind}");
        assert_eq!(s.delivered, r.delivered, "{kind}");
        assert_eq!(s.dropped, r.dropped, "{kind}");
        assert_eq!(s.duplicated, r.duplicated, "{kind}");
        // Fault-free engines deliver exactly what they send.
        assert_eq!(s.delivered, s.messages, "{kind}");
        assert_eq!((s.dropped, s.duplicated), (0, 0), "{kind}");
    }
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

fn shouter_factory(seed_mix: u64) -> impl FnMut(usize, &mut StdRng) -> Shouter {
    move |_deg, rng| Shouter {
        acc: rng.gen(),
        halt_round: 2 + (rng.gen::<u64>() ^ seed_mix) % 14,
        done: false,
    }
}

#[test]
fn broadcasts_are_equivalent_on_random_regular_graphs_and_an_implicit_torus() {
    let regular = Topology::RandomRegular { n: 40, d: 4 }.build(2).unwrap();
    let (implicit, explicit) = torus_twins();
    for seed in 0..8 {
        for (graph, oracle_graph) in [(&regular, &regular), (&implicit, &explicit)] {
            let run = assert_equivalent(graph, oracle_graph, seed, 8, u64::MAX, || {
                shouter_factory(seed)
            });
            assert!(run.errors.is_empty(), "{:?}", run.errors);
            assert!(run.metrics.multi_send_violations > 0);
            assert!(run.metrics.oversize_messages > 0);
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

fn mixer_factory() -> impl FnMut(usize, &mut StdRng) -> Mixer {
    |_deg, rng| Mixer {
        acc: rng.gen(),
        trip: (rng.gen_range(0..12u32) == 0).then(|| rng.gen_range(1..18u64)),
        halt_round: QUIET_ROUNDS.end + 4 + rng.gen_range(0..6u64),
        done: false,
    }
}

#[test]
fn posted_broadcasts_are_equivalent_on_regular_complete_and_implicit_graphs() {
    // On rregular:40 most port rows are not in neighbor-id order, so the
    // inboxes' order comes from the lockstep driver's neighbor table; the
    // event queue pushes every message and must read alike.
    let regular = Topology::RandomRegular { n: 40, d: 4 }.build(2).unwrap();
    let complete = ale_graph::generators::complete(40).unwrap();
    let (implicit, explicit) = torus_twins();
    let mut failures = 0;
    for seed in 0..8 {
        for (graph, oracle_graph) in [
            (&regular, &regular),
            (&complete, &complete),
            (&implicit, &explicit),
        ] {
            let run = assert_equivalent(graph, oracle_graph, seed, 64, u64::MAX, mixer_factory);
            assert!(run.metrics.multi_send_violations > 0);
            failures += run.errors.len();
        }
    }
    assert!(failures > 0, "some round failed after its posts");
}
