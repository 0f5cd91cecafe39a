//! The engine driver and its lockstep delivery policy.
//!
//! [`Driver`] couples an [`ale_graph::Graph`] with one [`Process`] per
//! node and drives them round by round. It is generic over a sealed
//! [`Delivery`] policy that decides when a sent message reaches its
//! target's inbox:
//!
//! * [`Lockstep`] — exactly the model of Section 2 of the paper: per round
//!   every node may send one message through each port; all messages are
//!   delivered before the next round; links and nodes do not fail.
//!   [`Network`] is the driver under this policy.
//! * [`Events`](crate::async_net::Events) — a `(time, seq)` event queue
//!   with per-message link latencies and a crash/drop/duplicate adversary;
//!   [`AsyncNetwork`](crate::async_net::AsyncNetwork) is the driver under
//!   this policy (see the [`async_net`](crate::async_net) module docs).
//!
//! Everything else — node RNGs, the active set, the send path and its
//! metering, the inbox arena, traces and the `run_*` family — exists once,
//! here, for both policies.
//!
//! # Engine design: zero allocation per round
//!
//! A round has four stages — compute, send, commit, deliver — all running
//! on buffers owned by the driver whose capacity persists across rounds:
//!
//! 1. **compute** — every *active* (non-halted) process runs
//!    [`Process::round`] against its slice of the flat inbox arena
//!    (`in_arena[in_start[v]..in_end[v]]`);
//! 2. **send** — each [`OutCtx::send`] validates the port, stamps the
//!    port-use mark (multi-send detection without a per-node `Vec<bool>`),
//!    accumulates [`bit_size`](crate::message::Payload::bit_size) into a
//!    stack-local per-round counter batch, and hands the message plus its
//!    target (one fused target/reverse-port lookup) to the policy —
//!    counters are gathered at send time and folded into the metrics
//!    *once per round* at commit, so commit never rescans messages and the
//!    hot path never touches the `Metrics` struct. [`Lockstep`] appends
//!    the message to the staging arena; the event policy decides its fate
//!    and latency and queues it;
//! 3. **commit** — the policy moves every message due next round into the
//!    staging arena (under [`Lockstep`] they are already there), then a
//!    stable counting sort by target (bucket offsets from the per-target
//!    counts accumulated while staging, then a destination index per
//!    staged message) lays out where every message belongs;
//! 4. **deliver** — the staging buffer is gathered through those indices
//!    into the recycled inbox arena (one `Msg::clone` per delivery — a
//!    memcpy for the `Copy`-like payloads protocols use; a payload owning
//!    heap data would pay one allocation per delivered message here);
//!    per-target `(start, end)` ranges become next round's inboxes. Only
//!    buckets touched this round are reset, so a quiet round costs
//!    `O(active + messages)`, not `O(n)`.
//!
//! Halted processes leave the **active set** permanently (see the
//! [`Process::is_halted`] invariant), making [`Driver::all_halted`] O(1)
//! and letting mostly-halted networks step in time proportional to the
//! survivors, not the graph.
//!
//! # Quiet-round fast-forward
//!
//! A round with nothing in flight in which no process would act is pure
//! bookkeeping. Under [`Lockstep`], [`Driver::run_to_halt`] and
//! [`Driver::run_for`] skip such rounds: at the top of each iteration,
//! if this round's inbox arena is empty, they ask every active process
//! for [`Process::quiet_until`] (stopping at the first that answers the
//! current round) and jump to the smallest answer, capped at the run's
//! round limit. Each skipped round is recorded exactly as an empty
//! [`Driver::step`] records it — one [`Metrics`] round, one
//! [`RoundTrace`] when tracing, and one [`RoundInfo`] for the trace sink
//! with zero messages, the unchanged active count and the unchanged
//! buffer capacity — so no observer can tell a skipped round from an
//! executed one. The default `quiet_until` answers the current round, so
//! a process that does not implement it is stepped every round.
//!
//! Three paths never skip: [`Driver::step`] executes exactly one round;
//! [`Driver::run_until`] checks its predicate after every round, and the
//! predicate may inspect the round; and the
//! [`Events`](crate::async_net::Events) policy holds messages and draws
//! crash schedules between rounds, so an empty arena does not mean an
//! idle network. The
//! [`ReferenceNetwork`](crate::reference::ReferenceNetwork) oracle
//! executes every round too, which is what lets it check the skip.
//!
//! # Engine invariants
//!
//! * **Observational equivalence.** No process can distinguish
//!   [`Network`] from the naive per-node-`Vec` reference implementation
//!   ([`reference::ReferenceNetwork`](crate::reference::ReferenceNetwork)):
//!   outputs, metrics, and per-round traces are identical for identical
//!   seeds. `crates/congest/tests/equivalence.rs` pins this.
//! * **Within-inbox order.** Messages arrive ordered by sending node id,
//!   then by send order within the node (the counting sort is stable).
//!   Processes must not rely on this — it is an artifact, not part of the
//!   model — but it is deterministic and preserved.
//! * **Failed rounds deliver nothing.** An invalid port aborts the round:
//!   no messages are delivered or metered, the round counter does not
//!   advance, and inboxes are preserved for inspection. Multi-send
//!   violations recorded before the failure stick (they already happened).
//! * **Halting is permanent** (see [`Process::is_halted`]).

use crate::error::CongestError;
use crate::message::Payload;
use crate::metrics::{Metrics, RoundInfo, RoundTrace};
use crate::process::{EngineSink, Incoming, NodeCtx, OutCtx, Process, RoundStats, Sink};
use crate::trace::{TraceSink, TraceSlot};
use ale_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sealed::{Policy, Staging, StagingArena};

/// Why a multi-round run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every process reported [`Process::is_halted`].
    AllHalted,
    /// The caller's predicate was satisfied.
    PredicateMet,
    /// The round cap was reached first.
    RoundLimit,
}

/// When a metered send reaches its target's inbox — the one thing the two
/// engines differ in.
///
/// Sealed: implemented by [`Lockstep`] and
/// [`Events`](crate::async_net::Events) only, so every engine keeps the
/// driver's single send and metering path.
pub trait Delivery<M: Payload>: Policy<M> {}

/// The synchronous delivery policy: every message sent in round `r` is in
/// its target's inbox in round `r + 1`, in sending-node order.
#[derive(Debug)]
pub struct Lockstep;

impl<M: Payload> Policy<M> for Lockstep {
    #[inline]
    fn staging<'a>(&'a mut self, arena: &'a mut StagingArena<M>) -> Staging<'a, M> {
        Staging::Lockstep(arena)
    }

    fn fast_forwards(&self) -> bool {
        true
    }
}

impl<M: Payload> Delivery<M> for Lockstep {}

/// The crate-internal half of [`Delivery`]. Its items are nominally `pub`
/// only so the public trait may name them; the module itself is not
/// exported, which is what seals the trait.
pub(crate) mod sealed {
    use crate::async_net::Events;
    use crate::message::Payload;
    use crate::process::Incoming;

    /// The per-round hooks the driver calls on its delivery policy.
    pub trait Policy<M: Payload> {
        /// Start of `round`, before any node computes: removes the nodes
        /// that stop executing now from `active`.
        fn begin(&mut self, round: u64, active: &mut Vec<u32>) {
            let _ = (round, active);
        }

        /// Where this round's metered sends go.
        fn staging<'a>(&'a mut self, arena: &'a mut StagingArena<M>) -> Staging<'a, M>;

        /// The round failed: forgets everything it staged.
        fn abort(&mut self) {}

        /// The round committed: moves every message due in `round + 1`
        /// into `arena`, in delivery order.
        fn commit(&mut self, round: u64, arena: &mut StagingArena<M>) {
            let _ = (round, arena);
        }

        /// The delivery-buffer capacity reported to trace sinks, given the
        /// inbox arena's.
        fn buffer_cap(&self, arena_cap: usize) -> usize {
            arena_cap
        }

        /// Whether the driver may skip quiet rounds: true only for a
        /// policy that holds nothing between rounds and draws nothing per
        /// round, so an empty inbox arena means nothing is in flight.
        fn fast_forwards(&self) -> bool {
            false
        }
    }

    /// Where [`OutCtx::send`](crate::process::OutCtx::send) hands a
    /// metered message: one variant per policy, matched once per send.
    pub enum Staging<'a, M> {
        /// Straight into next round's staging arena.
        Lockstep(&'a mut StagingArena<M>),
        /// Through the adversary into the event queue.
        Events(&'a mut Events<M>),
    }

    /// Next round's messages in arrival order, with the per-target counts
    /// the commit-time counting sort needs.
    #[derive(Debug)]
    pub struct StagingArena<M> {
        /// Messages in arrival order; gathered into the inbox arena at
        /// commit.
        pub(crate) msgs: Vec<Incoming<M>>,
        /// Target node per staged message (parallel to `msgs`).
        pub(crate) targets: Vec<u32>,
        /// Per-target staged-message counts (non-zero only for `touched`
        /// targets mid-round; always restored to zero by commit/abort).
        pub(crate) counts: Vec<u32>,
        /// Targets with staged messages this round.
        pub(crate) touched: Vec<u32>,
    }

    impl<M> StagingArena<M> {
        pub(crate) fn new(n: usize) -> Self {
            StagingArena {
                msgs: Vec::new(),
                targets: Vec::new(),
                counts: vec![0; n],
                touched: Vec::new(),
            }
        }

        /// Stages `msg` for `target`, arriving through its port `port`.
        #[inline]
        pub(crate) fn push(&mut self, target: usize, port: usize, msg: M) {
            if self.counts[target] == 0 {
                self.touched.push(target as u32);
            }
            self.counts[target] += 1;
            self.targets.push(target as u32);
            self.msgs.push(Incoming { port, msg });
        }

        /// Drops everything staged.
        pub(crate) fn clear(&mut self) {
            self.msgs.clear();
            self.targets.clear();
            for &t in &self.touched {
                self.counts[t as usize] = 0;
            }
            self.touched.clear();
        }
    }
}

/// An anonymous network: a graph plus one process per node, driven under
/// the delivery policy `D`. Use it through its two names, [`Network`]
/// (lockstep rounds) and [`AsyncNetwork`](crate::async_net::AsyncNetwork)
/// (event queue with an adversary); every method below is shared.
#[derive(Debug)]
pub struct Driver<'g, P: Process, D> {
    graph: &'g Graph,
    procs: Vec<P>,
    rngs: Vec<StdRng>,
    round: u64,
    metrics: Metrics,
    trace: Option<Vec<RoundTrace>>,
    /// This round's inboxes: one flat buffer, grouped by receiver.
    pub(crate) in_arena: Vec<Incoming<P::Msg>>,
    /// Per-node inbox range into `in_arena` (CSR-style row pointers; both
    /// zero for nodes that received nothing).
    in_start: Vec<u32>,
    in_end: Vec<u32>,
    /// Next round's messages; becomes `in_arena` at commit.
    staged: StagingArena<P::Msg>,
    /// Commit scratch: destination index of each staged message.
    dest: Vec<u32>,
    /// Targets with inboxes this round (their ranges reset at commit).
    prev_touched: Vec<u32>,
    /// Port-use marks for multi-send detection, indexed by port and epoch-
    /// stamped per node visit — never cleared, `max_degree` entries total.
    port_marks: Vec<u64>,
    mark: u64,
    /// Executing node ids, ascending. Nodes leave when they halt (or the
    /// policy stops them) and never return (see the `Process::is_halted`
    /// invariant).
    active: Vec<u32>,
    /// When staged messages reach the inbox arena.
    pub(crate) policy: D,
    /// Streaming per-round observer (see [`crate::trace`]); empty unless
    /// a sink was set explicitly or a thread-local factory was installed.
    sink: TraceSlot,
}

/// The synchronous network: the [`Driver`] under [`Lockstep`] delivery.
///
/// # Examples
///
/// ```
/// use ale_congest::{Network, Process, NodeCtx, Incoming, OutCtx};
/// use ale_graph::generators;
///
/// // A one-shot flood: every node broadcasts its degree once, then halts.
/// #[derive(Debug)]
/// struct Shout { heard: u64, done: bool }
/// impl Process for Shout {
///     type Msg = u64;
///     type Output = u64;
///     fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Incoming<u64>], out: &mut OutCtx<'_, u64>) {
///         self.heard += inbox.iter().map(|m| m.msg).sum::<u64>();
///         if ctx.round == 0 {
///             out.broadcast(ctx.degree as u64);
///         } else {
///             self.done = true;
///         }
///     }
///     fn is_halted(&self) -> bool { self.done }
///     fn output(&self) -> u64 { self.heard }
/// }
///
/// let g = generators::cycle(5)?;
/// let mut net = Network::from_fn(&g, 42, 64, |_deg, _rng| Shout { heard: 0, done: false });
/// net.run_to_halt(10)?;
/// // Every node heard both neighbors' degrees (2 + 2).
/// assert!(net.outputs().iter().all(|&h| h == 4));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type Network<'g, P> = Driver<'g, P, Lockstep>;

/// SplitMix64 step, used to derive independent per-node seeds from the
/// experiment seed without exposing node ids to protocols (and, in the
/// asynchronous engine, to derive its positional adversary streams).
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-node RNGs every engine (arena and reference) derives from an
/// experiment seed — shared so both observe identical random streams.
pub(crate) fn node_rngs(n: usize, seed: u64) -> Vec<StdRng> {
    (0..n)
        .map(|v| StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(v as u64 + 1))))
        .collect()
}

impl<'g, P: Process> Network<'g, P> {
    /// Wires explicit process instances to the graph's nodes.
    ///
    /// `budget_bits` is the CONGEST per-link-per-round budget used for
    /// metering (see [`crate::message::congest_budget`]).
    ///
    /// # Errors
    ///
    /// [`CongestError::ProcessCountMismatch`] when `procs.len() != graph.n()`.
    pub fn new(
        graph: &'g Graph,
        procs: Vec<P>,
        seed: u64,
        budget_bits: usize,
    ) -> Result<Self, CongestError> {
        Self::wire(graph, procs, seed, budget_bits, Lockstep)
    }

    /// Builds one process per node with the factory `f`, which receives the
    /// node's degree and its (already seeded) RNG — the same information the
    /// process itself will be allowed to see.
    pub fn from_fn<F>(graph: &'g Graph, seed: u64, budget_bits: usize, f: F) -> Self
    where
        F: FnMut(usize, &mut StdRng) -> P,
    {
        Self::spawn(graph, seed, budget_bits, Lockstep, f)
    }
}

impl<'g, P: Process, D: Delivery<P::Msg>> Driver<'g, P, D> {
    fn build(
        graph: &'g Graph,
        procs: Vec<P>,
        rngs: Vec<StdRng>,
        budget_bits: usize,
        policy: D,
    ) -> Self {
        let n = graph.n();
        assert!(n <= u32::MAX as usize, "node ids must fit in u32");
        let active = (0..n)
            .filter(|&v| !procs[v].is_halted())
            .map(|v| v as u32)
            .collect();
        Driver {
            graph,
            procs,
            rngs,
            round: 0,
            metrics: Metrics::new(budget_bits),
            trace: None,
            in_arena: Vec::new(),
            in_start: vec![0; n],
            in_end: vec![0; n],
            staged: StagingArena::new(n),
            dest: Vec::new(),
            prev_touched: Vec::new(),
            port_marks: vec![0; graph.max_degree()],
            mark: 0,
            active,
            policy,
            sink: TraceSlot::attach(),
        }
    }

    /// Both policies' `new`: explicit processes, seeded node RNGs.
    pub(crate) fn wire(
        graph: &'g Graph,
        procs: Vec<P>,
        seed: u64,
        budget_bits: usize,
        policy: D,
    ) -> Result<Self, CongestError> {
        if procs.len() != graph.n() {
            return Err(CongestError::ProcessCountMismatch {
                nodes: graph.n(),
                processes: procs.len(),
            });
        }
        let rngs = node_rngs(graph.n(), seed);
        Ok(Self::build(graph, procs, rngs, budget_bits, policy))
    }

    /// Both policies' `from_fn`: one process per node from `f`.
    pub(crate) fn spawn<F>(
        graph: &'g Graph,
        seed: u64,
        budget_bits: usize,
        policy: D,
        mut f: F,
    ) -> Self
    where
        F: FnMut(usize, &mut StdRng) -> P,
    {
        let n = graph.n();
        let mut rngs = node_rngs(n, seed);
        let procs = (0..n).map(|v| f(graph.degree(v), &mut rngs[v])).collect();
        Self::build(graph, procs, rngs, budget_bits, policy)
    }

    /// Starts recording per-round statistics (message/bit profiles) from
    /// the next [`Driver::step`] on. Cheap: one record per round.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded per-round trace (empty unless
    /// [`Driver::enable_trace`] was called).
    pub fn trace(&self) -> &[RoundTrace] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Attaches a streaming per-round observer (replacing — and ending —
    /// any sink attached earlier, including one auto-attached by
    /// [`crate::trace::install_trace_factory`]). The sink sees every
    /// successfully committed round from now on and the final metrics
    /// when the network is dropped.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink.replace(sink, &self.metrics);
    }

    /// Executes one round (see the [module docs](crate::network) for the
    /// compute → send → commit → deliver pipeline). Under the event policy
    /// a round is one virtual tick.
    ///
    /// # Errors
    ///
    /// [`CongestError::InvalidPort`] if a process addresses a port it does
    /// not have (a protocol bug surfaced as an error, never UB). The
    /// failed round is dropped wholesale: nothing is delivered or metered,
    /// the round counter does not advance, and the round's inboxes are
    /// kept, so stepping again retries it.
    pub fn step(&mut self) -> Result<(), CongestError> {
        debug_assert!(self.staged.msgs.is_empty() && self.staged.touched.is_empty());
        self.policy.begin(self.round, &mut self.active);
        let mut stats = RoundStats::default();
        let mut failure: Option<CongestError> = None;
        let mut any_halted = false;

        // Compute + send: drive every active process; sends stream into
        // the policy's staging through the node's `OutCtx`.
        {
            let Driver {
                graph,
                procs,
                rngs,
                round,
                metrics,
                in_arena,
                in_start,
                in_end,
                staged,
                port_marks,
                mark,
                active,
                policy,
                ..
            } = self;
            for &v in active.iter() {
                let v = v as usize;
                let degree = graph.degree(v);
                let inbox = &in_arena[in_start[v] as usize..in_end[v] as usize];
                let mut ctx = NodeCtx {
                    degree,
                    round: *round,
                    rng: &mut rngs[v],
                };
                *mark += 1;
                let mut out = OutCtx {
                    degree,
                    sink: Sink::Engine(EngineSink {
                        node: v,
                        round: *round,
                        graph,
                        marks: &mut port_marks[..degree],
                        mark: *mark,
                        metrics,
                        stats: &mut stats,
                        failure: &mut failure,
                        staging: policy.staging(staged),
                    }),
                };
                procs[v].round(&mut ctx, inbox, &mut out);
                if failure.is_some() {
                    break;
                }
                if procs[v].is_halted() {
                    any_halted = true;
                }
            }
        }

        if let Some(e) = failure {
            // A protocol bug surfaced mid-round: drop the partial round so
            // the network stays consistent for inspection — inboxes intact,
            // staging empty, round not advanced. The round's send counters
            // live only in the dropped `stats` batch, so nothing was
            // metered; multi-send violations recorded before the failure
            // stick (they go straight to the metrics), and so do the
            // adversary draws the round consumed.
            self.staged.clear();
            self.policy.abort();
            // Nodes that ran before the failure may have halted.
            let procs = &self.procs;
            self.active.retain(|&v| !procs[v as usize].is_halted());
            return Err(e);
        }

        if any_halted {
            let procs = &self.procs;
            self.active.retain(|&v| !procs[v as usize].is_halted());
        }

        // Commit: the policy releases next round's messages into the
        // staging arena; group them by target with a stable counting sort.
        // First retire this round's inbox ranges (their arena is about to
        // be recycled), then lay out next round's buckets.
        self.policy.commit(self.round, &mut self.staged);
        for &t in &self.prev_touched {
            self.in_start[t as usize] = 0;
            self.in_end[t as usize] = 0;
        }
        self.prev_touched.clear();

        let staged = self.staged.msgs.len();
        let counts = &mut self.staged.counts;
        let mut acc = 0u32;
        for &t in &self.staged.touched {
            let t = t as usize;
            let c = counts[t];
            self.in_start[t] = acc;
            self.in_end[t] = acc + c;
            counts[t] = acc; // reuse as the bucket write cursor
            acc += c;
        }
        // Stable scatter order: `dest[j]` is the staging index of the
        // message that belongs at arena position `j`.
        self.dest.clear();
        self.dest.resize(staged, 0);
        for (i, &t) in self.staged.targets.iter().enumerate() {
            let t = t as usize;
            self.dest[counts[t] as usize] = i as u32;
            counts[t] += 1;
        }
        for &t in &self.staged.touched {
            counts[t as usize] = 0;
        }
        std::mem::swap(&mut self.prev_touched, &mut self.staged.touched);
        self.staged.targets.clear();

        // Deliver: gather the staging buffer into the (recycled) inbox
        // arena in delivery order. `Payload: Clone` makes this a move-free
        // gather; for the `Copy`-like payloads protocols use it compiles
        // to a permuted memcpy.
        let staged_msgs = &self.staged.msgs;
        self.in_arena.clear();
        self.in_arena.extend(self.dest.iter().map(|&i| {
            let m = &staged_msgs[i as usize];
            Incoming {
                port: m.port,
                msg: m.msg.clone(),
            }
        }));
        self.staged.msgs.clear();

        // Capacity bound: when traffic collapses well below a buffer's
        // high-water mark (nodes halting, protocol going quiet), release
        // the excess so resident memory tracks *in-flight* messages, not
        // the historical peak. The 8× hysteresis keeps steady-state
        // protocols (e.g. never-halting revocable election) from ever
        // reallocating.
        let watermark = staged.max(64) * 8;
        if self.in_arena.capacity() > watermark {
            self.in_arena.shrink_to(staged.max(64) * 2);
            self.staged.msgs.shrink_to(staged.max(64) * 2);
            self.staged.targets.shrink_to(staged.max(64) * 2);
            self.dest.shrink_to(staged.max(64) * 2);
        }

        self.metrics.record_round(&stats);
        if let Some(trace) = self.trace.as_mut() {
            trace.push(RoundTrace {
                round: self.round,
                messages: stats.messages,
                bits: stats.bits,
                max_bits: stats.max_bits,
            });
        }
        self.sink.on_round(&RoundInfo {
            round: self.round,
            messages: stats.messages,
            bits: stats.bits,
            max_bits: stats.max_bits,
            active: self.active.len(),
            buffer_cap: self.policy.buffer_cap(self.in_arena.capacity()),
        });
        self.round += 1;
        Ok(())
    }

    /// Runs until every process halts, up to `max_rounds`. Skips quiet
    /// rounds under [`Lockstep`] (see the
    /// [module docs](crate::network#quiet-round-fast-forward)).
    ///
    /// # Errors
    ///
    /// Propagates [`Driver::step`] errors.
    pub fn run_to_halt(&mut self, max_rounds: u64) -> Result<RunStatus, CongestError> {
        let limit = self.round.saturating_add(max_rounds);
        loop {
            if self.all_halted() {
                return Ok(RunStatus::AllHalted);
            }
            if self.round >= limit {
                return Ok(RunStatus::RoundLimit);
            }
            self.skip_quiet_rounds(limit);
            if self.round < limit {
                self.step()?;
            }
        }
    }

    /// Runs exactly `rounds` rounds (or stops early if all processes halt).
    /// Skips quiet rounds under [`Lockstep`] (see the
    /// [module docs](crate::network#quiet-round-fast-forward)).
    ///
    /// # Errors
    ///
    /// Propagates [`Driver::step`] errors.
    pub fn run_for(&mut self, rounds: u64) -> Result<RunStatus, CongestError> {
        let target = self.round + rounds;
        while self.round < target {
            if self.all_halted() {
                return Ok(RunStatus::AllHalted);
            }
            self.skip_quiet_rounds(target);
            if self.round < target {
                self.step()?;
            }
        }
        Ok(RunStatus::RoundLimit)
    }

    /// With nothing in flight, advances to the first round before `limit`
    /// in which some active process could act — the smallest
    /// [`Process::quiet_until`] answer — recording every skipped round
    /// exactly as [`Driver::step`] records an empty one. Returns at once
    /// under a policy that does not fast-forward, when this round's inbox
    /// arena holds a message, or when an active process would act now.
    fn skip_quiet_rounds(&mut self, limit: u64) {
        if !self.policy.fast_forwards() || !self.in_arena.is_empty() {
            return;
        }
        let round = self.round;
        let mut until = limit;
        for &v in &self.active {
            until = until.min(self.procs[v as usize].quiet_until(round));
            if until <= round {
                return;
            }
        }
        // The commit that emptied the arena already applied step()'s
        // shrink check for zero staged messages, so an empty step would
        // leave its capacity, and thus the reported buffer_cap, alone.
        let buffer_cap = self.policy.buffer_cap(self.in_arena.capacity());
        while self.round < until {
            self.metrics.record_round(&RoundStats::default());
            if let Some(trace) = self.trace.as_mut() {
                trace.push(RoundTrace {
                    round: self.round,
                    ..RoundTrace::default()
                });
            }
            self.sink.on_round(&RoundInfo {
                round: self.round,
                messages: 0,
                bits: 0,
                max_bits: 0,
                active: self.active.len(),
                buffer_cap,
            });
            self.round += 1;
        }
    }

    /// Runs until all processes halt, `pred` becomes true (checked after
    /// every round), or `max_rounds` elapse. Never skips a round: the
    /// predicate sees every one.
    ///
    /// # Errors
    ///
    /// Propagates [`Driver::step`] errors.
    pub fn run_until<F>(&mut self, max_rounds: u64, mut pred: F) -> Result<RunStatus, CongestError>
    where
        F: FnMut(&Self) -> bool,
    {
        let start = self.round;
        loop {
            if self.all_halted() {
                return Ok(RunStatus::AllHalted);
            }
            if self.round - start >= max_rounds {
                return Ok(RunStatus::RoundLimit);
            }
            self.step()?;
            if pred(self) {
                return Ok(RunStatus::PredicateMet);
            }
        }
    }

    /// True when no process can act again (every node halted, or crashed
    /// under the event policy) — O(1): the driver keeps an active set
    /// instead of polling all `n` processes per round.
    pub fn all_halted(&self) -> bool {
        self.active.is_empty()
    }

    /// Number of processes still executing.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Current round number (rounds executed so far; the virtual tick
    /// under the event policy).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Outputs of all processes, indexed by host-side node id.
    pub fn outputs(&self) -> Vec<P::Output> {
        self.procs.iter().map(Process::output).collect()
    }

    /// Borrows the accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A point-in-time copy of the metrics (see [`Metrics::snapshot`]).
    pub fn metrics_snapshot(&self) -> Metrics {
        self.metrics.snapshot()
    }

    /// Borrows a single process for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn process(&self, v: NodeId) -> &P {
        &self.procs[v]
    }

    /// Borrows all processes.
    pub fn processes(&self) -> &[P] {
        &self.procs
    }
}

impl<P: Process, D> Drop for Driver<'_, P, D> {
    fn drop(&mut self) {
        self.sink.finish(&self.metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_graph::generators;
    use rand::Rng;

    /// Forwards the largest value seen to all ports every round; starts
    /// from a random draw. Standard flood-max — a convenient test vehicle.
    #[derive(Debug)]
    struct FloodMax {
        value: u64,
        rounds_left: u64,
    }

    impl Process for FloodMax {
        type Msg = u64;
        type Output = u64;

        fn round(
            &mut self,
            _ctx: &mut NodeCtx<'_>,
            inbox: &[Incoming<u64>],
            out: &mut OutCtx<'_, u64>,
        ) {
            for m in inbox {
                self.value = self.value.max(m.msg);
            }
            if self.rounds_left == 0 {
                return;
            }
            self.rounds_left -= 1;
            out.broadcast(self.value);
        }

        fn is_halted(&self) -> bool {
            self.rounds_left == 0
        }

        fn output(&self) -> u64 {
            self.value
        }
    }

    fn flood_network<'g>(g: &'g Graph, seed: u64, rounds: u64) -> Network<'g, FloodMax> {
        Network::from_fn(g, seed, 64, |_deg, rng| FloodMax {
            value: rng.gen::<u64>() >> 20,
            rounds_left: rounds,
        })
    }

    use ale_graph::Graph;

    #[test]
    fn flood_max_converges_on_diameter_rounds() {
        let g = generators::cycle(9).unwrap();
        let d = g.diameter() as u64;
        let mut net = flood_network(&g, 7, d + 1);
        let status = net.run_to_halt(1000).unwrap();
        assert_eq!(status, RunStatus::AllHalted);
        let outs = net.outputs();
        let max = *outs.iter().max().unwrap();
        assert!(outs.iter().all(|&v| v == max), "flood-max must agree");
    }

    #[test]
    fn metrics_count_messages_exactly() {
        let g = generators::cycle(6).unwrap();
        let mut net = flood_network(&g, 1, 3);
        net.run_to_halt(100).unwrap();
        // 6 nodes × 2 ports × 3 sending rounds = 36 messages.
        assert_eq!(net.metrics().messages, 36);
        assert!(net.metrics().bits > 0);
        // All nodes halt right after their 3 sending rounds.
        assert_eq!(net.metrics().rounds, 3);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let g = generators::random_regular(20, 3, 5).unwrap();
        let mut a = flood_network(&g, 123, 10);
        let mut b = flood_network(&g, 123, 10);
        a.run_to_halt(100).unwrap();
        b.run_to_halt(100).unwrap();
        assert_eq!(a.outputs(), b.outputs());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn different_seeds_differ() {
        let g = generators::cycle(16).unwrap();
        let a = flood_network(&g, 1, 0);
        let b = flood_network(&g, 2, 0);
        assert_ne!(
            a.outputs(),
            b.outputs(),
            "independent seeds should draw different values"
        );
    }

    #[test]
    fn per_node_rngs_are_independent() {
        let g = generators::cycle(16).unwrap();
        let net = flood_network(&g, 1, 0);
        let outs = net.outputs();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() > 8, "values should be (mostly) distinct");
    }

    #[test]
    fn process_count_mismatch_rejected() {
        let g = generators::cycle(4).unwrap();
        let procs = vec![
            FloodMax {
                value: 0,
                rounds_left: 1,
            };
            3
        ];
        assert!(matches!(
            Network::new(&g, procs, 0, 64),
            Err(CongestError::ProcessCountMismatch {
                nodes: 4,
                processes: 3
            })
        ));
    }

    impl Clone for FloodMax {
        fn clone(&self) -> Self {
            FloodMax {
                value: self.value,
                rounds_left: self.rounds_left,
            }
        }
    }

    /// A buggy process that sends on an invalid port.
    #[derive(Debug)]
    struct BadPort;
    impl Process for BadPort {
        type Msg = u64;
        type Output = ();
        fn round(
            &mut self,
            ctx: &mut NodeCtx<'_>,
            _inbox: &[Incoming<u64>],
            out: &mut OutCtx<'_, u64>,
        ) {
            out.send(ctx.degree + 5, 1);
        }
        fn output(&self) {}
    }

    #[test]
    fn invalid_port_is_an_error() {
        let g = generators::cycle(3).unwrap();
        let mut net = Network::from_fn(&g, 0, 64, |_, _| BadPort);
        assert!(matches!(net.step(), Err(CongestError::InvalidPort { .. })));
        // The failed round is dropped wholesale: nothing metered, and the
        // staging arena is clean, so stepping again errors the same way
        // instead of double-delivering a stale half-round.
        assert_eq!(net.metrics().messages, 0);
        assert_eq!(net.metrics().rounds, 0);
        assert!(matches!(net.step(), Err(CongestError::InvalidPort { .. })));
        assert_eq!(net.metrics().messages, 0);
    }

    /// A process that double-sends on port 0.
    #[derive(Debug)]
    struct DoubleSend;
    impl Process for DoubleSend {
        type Msg = u64;
        type Output = ();
        fn round(
            &mut self,
            ctx: &mut NodeCtx<'_>,
            _inbox: &[Incoming<u64>],
            out: &mut OutCtx<'_, u64>,
        ) {
            if ctx.round == 0 {
                out.send(0, 1);
                out.send(0, 2);
            }
        }
        fn output(&self) {}
    }

    #[test]
    fn multi_send_is_recorded_not_merged() {
        let g = generators::cycle(3).unwrap();
        let mut net = Network::from_fn(&g, 0, 64, |_, _| DoubleSend);
        net.step().unwrap();
        assert_eq!(net.metrics().multi_send_violations, 3);
        assert_eq!(net.metrics().messages, 6);
        assert!(!net.metrics().congest_clean());
    }

    #[test]
    fn trace_records_per_round_stats() {
        let g = generators::cycle(4).unwrap();
        let mut net = flood_network(&g, 2, 3);
        net.enable_trace();
        net.run_to_halt(100).unwrap();
        let trace = net.trace();
        assert_eq!(trace.len() as u64, net.metrics().rounds);
        let total: u64 = trace.iter().map(|t| t.messages).sum();
        assert_eq!(total, net.metrics().messages);
        assert_eq!(trace[0].round, 0);
        assert!(trace[0].max_bits > 0);
        // Without enable_trace the slice is empty.
        let mut quiet = flood_network(&g, 2, 3);
        quiet.run_to_halt(100).unwrap();
        assert!(quiet.trace().is_empty());
    }

    #[test]
    fn metrics_snapshots_are_point_in_time() {
        let g = generators::cycle(6).unwrap();
        let mut net = flood_network(&g, 1, 5);
        net.step().unwrap();
        let early = net.metrics_snapshot();
        net.run_to_halt(100).unwrap();
        let late = net.metrics_snapshot();
        assert_eq!(early.rounds, 1);
        assert!(late.messages > early.messages);
        assert_eq!(late, *net.metrics());
    }

    #[test]
    fn recycled_inboxes_preserve_delivery_semantics() {
        // Two flood networks, one stepped manually round by round, must
        // match a reference run exactly — the arena fast path may not
        // change what any process observes.
        let g = generators::random_regular(18, 4, 2).unwrap();
        let mut a = flood_network(&g, 42, 12);
        let mut b = flood_network(&g, 42, 12);
        a.run_to_halt(100).unwrap();
        while !b.all_halted() {
            b.step().unwrap();
        }
        assert_eq!(a.outputs(), b.outputs());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn run_until_predicate() {
        let g = generators::cycle(8).unwrap();
        let mut net = flood_network(&g, 3, 100);
        let status = net.run_until(1000, |n| n.round() >= 5).unwrap();
        assert_eq!(status, RunStatus::PredicateMet);
        assert_eq!(net.round(), 5);
    }

    #[test]
    fn run_for_exact_rounds() {
        let g = generators::cycle(8).unwrap();
        let mut net = flood_network(&g, 3, 100);
        let status = net.run_for(7).unwrap();
        assert_eq!(status, RunStatus::RoundLimit);
        assert_eq!(net.round(), 7);
    }

    #[test]
    fn round_limit_status() {
        let g = generators::cycle(8).unwrap();
        let mut net = flood_network(&g, 3, 1000);
        let status = net.run_to_halt(4).unwrap();
        assert_eq!(status, RunStatus::RoundLimit);
    }

    #[test]
    fn active_set_tracks_halts() {
        let g = generators::cycle(6).unwrap();
        let mut net = flood_network(&g, 1, 2);
        assert_eq!(net.active_count(), 6);
        assert!(!net.all_halted());
        net.run_to_halt(100).unwrap();
        assert_eq!(net.active_count(), 0);
        assert!(net.all_halted());
    }

    /// Acts only in its scripted rounds and declares every other round
    /// quiet: in a `busy` round it draws from its RNG and sends the draw on
    /// port 0 (`BURST` copies in round `BURST_ROUND`, to grow the inbox
    /// arena past its shrink watermark); it halts in round `halt_at`.
    /// Every draw and every delivery is logged, so the log is the
    /// process's whole observable history.
    #[derive(Debug)]
    struct Scripted {
        busy: Vec<u64>,
        halt_at: Option<u64>,
        log: Vec<(u64, u64)>,
        halted: bool,
    }

    const BURST_ROUND: u64 = 30;
    const BURST: usize = 150;

    impl Process for Scripted {
        type Msg = u64;
        type Output = Vec<(u64, u64)>;

        fn round(
            &mut self,
            ctx: &mut NodeCtx<'_>,
            inbox: &[Incoming<u64>],
            out: &mut OutCtx<'_, u64>,
        ) {
            for m in inbox {
                self.log.push((ctx.round, m.msg));
            }
            if self.busy.contains(&ctx.round) {
                let draw = ctx.rng.gen::<u64>() >> 40;
                self.log.push((ctx.round, draw));
                let copies = if ctx.round == BURST_ROUND { BURST } else { 1 };
                for _ in 0..copies {
                    out.send(0, draw);
                }
            }
            if self.halt_at == Some(ctx.round) {
                self.halted = true;
            }
        }

        fn is_halted(&self) -> bool {
            self.halted
        }

        fn quiet_until(&self, round: u64) -> u64 {
            let busy = self.busy.iter().copied().filter(|&r| r >= round);
            let halt = self.halt_at.filter(|&r| r >= round);
            busy.chain(halt).min().unwrap_or(u64::MAX)
        }

        fn output(&self) -> Vec<(u64, u64)> {
            self.log.clone()
        }
    }

    fn scripted_network(g: &Graph) -> Network<'_, Scripted> {
        let mut v = 0u64;
        Network::from_fn(g, 11, 64, |_, _| {
            let p = Scripted {
                busy: vec![0, 5 + 7 * v, 6 + 7 * v, BURST_ROUND, 52 + v],
                halt_at: v.is_multiple_of(2).then_some(70 + v),
                log: Vec::new(),
                halted: false,
            };
            v += 1;
            p
        })
    }

    /// Records the full per-round stream a trace sink sees.
    struct Collect(std::sync::Arc<std::sync::Mutex<Vec<RoundInfo>>>);

    impl TraceSink for Collect {
        fn on_round(&mut self, info: &RoundInfo) {
            self.0.lock().expect("sink lock").push(*info);
        }
    }

    type RunView = (
        Vec<Vec<(u64, u64)>>,
        Metrics,
        Vec<RoundTrace>,
        Vec<RoundInfo>,
    );

    /// Drives a fresh scripted network with `drive` and returns everything
    /// an observer can see of the run.
    fn observe(g: &Graph, drive: impl FnOnce(&mut Network<'_, Scripted>)) -> RunView {
        let infos = std::sync::Arc::default();
        let mut net = scripted_network(g);
        net.enable_trace();
        net.set_trace_sink(Box::new(Collect(std::sync::Arc::clone(&infos))));
        drive(&mut net);
        let (outputs, metrics, trace) = (net.outputs(), *net.metrics(), net.trace().to_vec());
        drop(net);
        let infos = std::mem::take(&mut *infos.lock().expect("sink lock"));
        (outputs, metrics, trace, infos)
    }

    #[test]
    fn fast_forward_matches_a_manual_step_loop() {
        let g = generators::cycle(5).unwrap();
        let manual = |rounds: u64| {
            move |net: &mut Network<'_, Scripted>| {
                while !net.all_halted() && net.round() < rounds {
                    net.step().unwrap();
                }
            }
        };
        // run_to_halt: the odd nodes never halt, so the run hits the cap.
        let skipped = observe(&g, |net| {
            assert_eq!(net.run_to_halt(90).unwrap(), RunStatus::RoundLimit);
        });
        assert_eq!(skipped, observe(&g, manual(90)));
        assert_eq!(skipped.1.rounds, 90);
        assert!(skipped.3.iter().any(|i| i.buffer_cap > 512));
        // run_for, resumed mid-window and again across the halts.
        let skipped = observe(&g, |net| {
            assert_eq!(net.run_for(8).unwrap(), RunStatus::RoundLimit);
            assert_eq!(net.run_for(60).unwrap(), RunStatus::RoundLimit);
            assert_eq!(net.run_for(20).unwrap(), RunStatus::RoundLimit);
        });
        assert_eq!(skipped, observe(&g, manual(88)));
        // Every node halts once the odd ones are given a halt round too.
        let halting = |net: &mut Network<'_, Scripted>| {
            for v in 0..5 {
                net.procs[v].halt_at = Some(70 + v as u64);
            }
        };
        let skipped = observe(&g, |net| {
            halting(net);
            assert_eq!(net.run_to_halt(1000).unwrap(), RunStatus::AllHalted);
        });
        assert_eq!(
            skipped,
            observe(&g, |net| {
                halting(net);
                manual(1000)(net);
            })
        );
        assert_eq!(skipped.1.rounds, 75);
    }

    /// Declares every round quiet. Its call counter is the probe: a driver
    /// that skips calls `round` zero times, one that steps calls it every
    /// round.
    #[derive(Debug, Default)]
    struct Sleeper {
        calls: u64,
    }

    impl Process for Sleeper {
        type Msg = u64;
        type Output = u64;

        fn round(&mut self, _: &mut NodeCtx<'_>, _: &[Incoming<u64>], _: &mut OutCtx<'_, u64>) {
            self.calls += 1;
        }

        fn quiet_until(&self, _round: u64) -> u64 {
            u64::MAX
        }

        fn output(&self) -> u64 {
            self.calls
        }
    }

    #[test]
    fn a_process_quiet_forever_runs_to_the_round_limit_without_being_called() {
        let g = generators::cycle(4).unwrap();
        for run_for in [true, false] {
            let mut net = Network::from_fn(&g, 0, 64, |_, _| Sleeper::default());
            net.enable_trace();
            let status = if run_for {
                net.run_for(7)
            } else {
                net.run_to_halt(7)
            };
            assert_eq!(status.unwrap(), RunStatus::RoundLimit);
            assert_eq!(net.round(), 7);
            assert_eq!(net.metrics().rounds, 7);
            assert_eq!(net.metrics().congest_rounds, 7);
            assert_eq!(net.trace().len(), 7);
            assert!(net.outputs().iter().all(|&calls| calls == 0));
        }
    }

    #[test]
    fn run_until_and_the_event_policy_step_every_round() {
        let g = generators::cycle(4).unwrap();
        let mut net = Network::from_fn(&g, 0, 64, |_, _| Sleeper::default());
        let status = net.run_until(100, |n| n.round() >= 5).unwrap();
        assert_eq!(status, RunStatus::PredicateMet);
        assert_eq!(net.round(), 5);
        assert!(net.outputs().iter().all(|&calls| calls == 5));
        let mut evented = crate::AsyncNetwork::from_fn(&g, 0, 64, |_, _| Sleeper::default());
        assert_eq!(evented.run_for(7).unwrap(), RunStatus::RoundLimit);
        assert!(evented.outputs().iter().all(|&calls| calls == 7));

        // Against a scripted run: run_until stops where stepping would.
        let g = generators::cycle(5).unwrap();
        let until = observe(&g, |net| {
            let status = net.run_until(1000, |n| n.round() >= 13).unwrap();
            assert_eq!(status, RunStatus::PredicateMet);
            assert_eq!(net.round(), 13);
        });
        let stepped = observe(&g, |net| {
            for _ in 0..13 {
                net.step().unwrap();
            }
        });
        assert_eq!(until, stepped);
    }

    #[test]
    fn messages_are_delivered_through_correct_ports() {
        // Directed probe: node sends its port index; receiver checks the
        // arrival count matches its degree.
        #[derive(Debug)]
        struct PortProbe {
            ok: bool,
            sent: bool,
        }
        impl Process for PortProbe {
            type Msg = u64;
            type Output = bool;
            fn round(
                &mut self,
                ctx: &mut NodeCtx<'_>,
                inbox: &[Incoming<u64>],
                out: &mut OutCtx<'_, u64>,
            ) {
                if ctx.round == 1 {
                    self.ok = inbox.len() == ctx.degree;
                }
                if !self.sent {
                    self.sent = true;
                    for p in 0..ctx.degree {
                        out.send(p, p as u64);
                    }
                }
            }
            fn is_halted(&self) -> bool {
                self.sent
            }
            fn output(&self) -> bool {
                self.ok
            }
        }
        let g = generators::complete(5).unwrap();
        let mut net = Network::from_fn(&g, 0, 64, |_, _| PortProbe {
            ok: false,
            sent: false,
        });
        // Round 0: everyone sends; round 1 would check, but all halt after
        // sending. Drive one step manually and verify via metrics.
        net.step().unwrap();
        assert_eq!(net.metrics().messages, 5 * 4);
    }

    #[test]
    fn inbox_arrival_order_is_sender_then_send_order() {
        // Node 0 of a path receives from node 1 only; on a cycle every
        // node receives from both neighbors, lower sender id first.
        #[derive(Debug)]
        struct Tag {
            id: u64,
            seen: Vec<u64>,
            done: bool,
        }
        impl Process for Tag {
            type Msg = u64;
            type Output = Vec<u64>;
            fn round(
                &mut self,
                ctx: &mut NodeCtx<'_>,
                inbox: &[Incoming<u64>],
                out: &mut OutCtx<'_, u64>,
            ) {
                self.seen.extend(inbox.iter().map(|m| m.msg));
                if ctx.round == 0 {
                    out.broadcast(self.id);
                } else {
                    self.done = true;
                }
            }
            fn is_halted(&self) -> bool {
                self.done
            }
            fn output(&self) -> Vec<u64> {
                self.seen.clone()
            }
        }
        let g = generators::cycle(4).unwrap();
        let mut id = 0u64;
        let mut net = Network::from_fn(&g, 0, 64, |_, _| {
            let p = Tag {
                id,
                seen: Vec::new(),
                done: false,
            };
            id += 1;
            p
        });
        net.run_to_halt(10).unwrap();
        // Each node heard both neighbors, ordered by sender id.
        for (v, seen) in net.outputs().into_iter().enumerate() {
            let mut expected: Vec<u64> = vec![((v + 3) % 4) as u64, ((v + 1) % 4) as u64];
            expected.sort_unstable();
            assert_eq!(seen, expected, "node {v}");
        }
    }
}
