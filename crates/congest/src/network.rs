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
//! * [`Events`](crate::async_net::Events) — a bounded ring of per-tick
//!   delivery slots, with per-message link latencies and a
//!   crash/drop/duplicate adversary;
//!   [`AsyncNetwork`](crate::async_net::AsyncNetwork) is the driver under
//!   this policy (see the [`async_net`](crate::async_net) module docs).
//!
//! Everything else — node RNGs, the active set, the send path and its
//! metering, the inbox arenas, traces and the `run_*` family — exists
//! once, here, for both policies.
//!
//! # Engine design: one store per message, zero allocation per round
//!
//! A pushed message is written once, into its receiver's region; a posted
//! broadcast once, into its sender's board slot, where each neighbor reads
//! it in place. A round has three stages — compute, send, commit — all
//! running on buffers owned by the driver whose capacity persists across
//! rounds:
//!
//! 1. **compute** — every *active* (non-halted) process runs
//!    [`Process::round`] against an [`Inbox`] view of this round's inbox
//!    arena: its region (see below), or, when the previous round posted
//!    broadcasts, its neighbors' posts merged with its region as it reads
//!    them (see [posted broadcasts](#posted-broadcasts));
//! 2. **send** — each [`OutCtx::send`] validates the port, stamps the
//!    port-use mark (multi-send detection without a per-node `Vec<bool>`),
//!    accumulates [`bit_size`](crate::message::Payload::bit_size) into a
//!    stack-local per-round counter batch, and hands the message plus its
//!    target (one fused target/reverse-port lookup) to the policy;
//!    [`OutCtx::broadcast`] meters its `degree` copies once. Counters are
//!    gathered at send time and folded into the metrics *once per round*
//!    at commit, so commit never rescans messages and the hot path never
//!    touches the `Metrics` struct. [`Lockstep`] writes the message
//!    straight into its target's region of next round's arena, or, for a
//!    broadcast in a dense round, posts it once; the event policy decides
//!    its fate and latency and queues it;
//! 3. **commit** — the policy writes every message due next round into
//!    next round's arena the same way (under [`Lockstep`] they are already
//!    there), and the two arenas swap: next round's inboxes are where the
//!    sends put them.
//!
//! ## Inbox regions
//!
//! Each arena is one buffer of slots. A node's first pushed message of a
//! round takes a region for its inbox at the end of what the round has
//! taken so far, and its messages fill that region from the front. Nodes
//! run in ascending id, so a region fills in sending-node order, then send
//! order. A region is sized by traffic, not by the graph: it takes as many
//! slots as the most messages its node has been handed in one round, or,
//! before its first message, its degree capped at a small constant. In the
//! CONGEST model a node sends at most one message per port per round, so a
//! steady load fits its region and each pushed message is copied once, and
//! storage follows the messages in flight: a protocol that sends a few
//! messages on a dense graph takes a few small regions, not one slot per
//! port.
//!
//! A node handed more than its region holds — a high-degree node under
//! dense traffic, a multi-send, a load that grew, or an event tick that
//! brings duplicates or bunched latencies — grows its region: eightfold
//! up to its degree, then by doubling, in place when it is the last region
//! taken, else by moving its messages, in order, to a region at the end.
//! The region keeps the new load from the next round on, so a steady load
//! grows it at most once per arena.
//!
//! The buffer starts with capacity for every node's first region and
//! grows when a round takes more slots than any before (new slots hold
//! copies of a staged message: the crate forbids `unsafe`, so a slot is
//! never uninitialized); it is kept for the driver's life, so resident
//! delivery memory is each arena's busiest round. Only receivers that got
//! messages are reset, so a quiet round costs `O(active + messages)`, not
//! `O(n)`.
//!
//! ## Posted broadcasts
//!
//! A broadcast carries one message, so under [`Lockstep`] a dense round
//! stores it once. A round is **dense** when at least half of the nodes
//! that ran in the previous round made a broadcast their first send (the
//! first round counts as dense; a skipped quiet round does not). In a
//! dense round, a node whose first send is [`OutCtx::broadcast`] **posts**
//! it: the message goes into the node's slot on next round's arena's
//! board, metered once and with every port marked, instead of a copy into
//! each neighbor's region. Its later sends that round are pushed into
//! regions as usual.
//!
//! A posting round that turns out sparse and pushed nothing — typically a
//! first round in which a few nodes broadcast — turns its posts into pushes
//! at commit, posters in ascending id, which fills every region in sender
//! order. Otherwise, next round, if the arena holds any post, the round
//! **pulls**: each active node's [`Inbox`] walks its row of a table of
//! every node's ports sorted by neighbor (built the first time a round
//! pulls) over the board, reading its neighbors' posts in place in
//! neighbor-id order, and merges its region in, a sender's post before its
//! pushes. Nothing is copied into a per-node buffer: a dense round writes
//! each broadcast once and its neighbors read it where it lies. A round
//! without posts hands each node its region. Posting versus pushing is
//! decided from the previous round's traffic alone, so sparse broadcasts
//! keep the push and no receiver scans its ports for them; either way every
//! inbox yields the same messages in the same order. Halted nodes never
//! read the board, so a post costs `O(1)` however many of its neighbors
//! have halted.
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
//! if this round's inboxes hold no message, they ask every active process
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
//! crash schedules between rounds, so empty inboxes do not mean an idle
//! network. The
//! [`ReferenceNetwork`](crate::reference::ReferenceNetwork) oracle
//! executes every round too, which is what lets it check the skip.
//!
//! # Engine invariants
//!
//! * **Observational equivalence.** No process can distinguish
//!   [`Network`], or [`AsyncNetwork`](crate::async_net::AsyncNetwork) at
//!   unit latency with zero faults, from the naive per-node-`Vec`
//!   reference implementation
//!   ([`reference::ReferenceNetwork`](crate::reference::ReferenceNetwork)):
//!   step results, outputs, metrics, and per-round traces are identical
//!   for identical seeds. `crates/congest/tests/equivalence.rs` pins this
//!   for both policies.
//! * **Within-inbox order.** Messages arrive ordered by sending node id,
//!   then by send order within the node. Regions fill in that order, and a
//!   region that grows keeps it; a pulled [`Inbox`] reads posts in neighbor
//!   order and merges the region into them, and a post, being its sender's
//!   first send of the round, precedes that sender's pushes. Processes must
//!   not rely on this — it is an artifact, not part of the model — but it
//!   is deterministic and preserved.
//! * **Failed rounds deliver nothing.** An invalid port aborts the round:
//!   no messages are delivered or metered (its posts are dropped with its
//!   pushes), the round counter does not advance, and inboxes are
//!   preserved for inspection. Multi-send violations recorded before the
//!   failure stick (they already happened).
//! * **Halting is permanent** (see [`Process::is_halted`]).
//!
//! [`Inbox`]: crate::process::Inbox

use crate::error::CongestError;
use crate::message::Payload;
use crate::metrics::{Metrics, RoundInfo, RoundTrace};
use crate::process::{EngineSink, NodeCtx, OutCtx, Process, RoundStats, Sink};
use crate::trace::{TraceSink, TraceSlot};
use ale_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sealed::{Arena, NeighborOrder, Policy, Staging};

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
pub struct Lockstep {
    /// Whether this round posts first-send broadcasts: the previous round
    /// was dense (see the [module docs](crate::network#posted-broadcasts)).
    dense: bool,
}

impl<M: Payload> Policy<M> for Lockstep {
    #[inline]
    fn staging<'a>(&'a mut self, arena: &'a mut Arena<M>) -> Staging<'a, M> {
        if self.dense {
            Staging::Posting(arena)
        } else {
            Staging::Lockstep(arena)
        }
    }

    fn tally(&mut self, broadcasters: u64, ran: usize) {
        self.dense = 2 * broadcasters >= ran as u64;
    }

    /// A round that posted but turned out sparse, and pushed nothing,
    /// leaves next round its posts as pushes, so that next round reads
    /// regions and no receiver scans its ports for a few posts.
    fn commit(&mut self, graph: &Graph, arena: &mut Arena<M>) {
        if !self.dense && arena.has_posts() && !arena.has_pushes() {
            arena.unpost(graph);
        }
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
    use crate::process::{Inbox, Incoming};
    use ale_graph::Graph;

    /// The slots a node's region takes on its first message, or its
    /// degree if smaller. It covers the degree of every bounded-degree
    /// family the scenarios run (tori, random-regular, cycles, rings of
    /// cliques, hypercubes up to 2¹⁶ nodes), so their dense rounds are laid
    /// out exactly from the start, and it bounds what a sparse protocol
    /// on a dense graph takes per receiver before its load is known.
    const FIRST_ROOM: usize = 16;

    /// How many times larger a full region below its node's degree grows
    /// (capped at the degree): the regions it moves out of sum to under a
    /// seventh of its final size, so a round that outgrows every guess —
    /// the first dense round on a dense graph — takes few slots past its
    /// messages, while a region that grew past its load holds that slack
    /// for one round only. Past the degree, a region doubles.
    const GROWTH: usize = 8;

    /// Marks a [`Region::room`] that is not yet a load the node was
    /// handed: its first guess, or a region that grew this round.
    const PROVISIONAL: u32 = 1 << 31;

    /// A port seen from its node: the neighbor it leads to.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Link {
        pub(crate) node: u32,
        pub(crate) port: u32,
    }

    /// Every node's ports ordered by the neighbor they lead to: the order
    /// in which a node reads its neighbors' posts (see the
    /// [module docs](super#posted-broadcasts)). Empty until the first
    /// round that pulls.
    #[derive(Debug, Default)]
    pub(crate) struct NeighborOrder {
        /// Node `v`'s row is `links[starts[v]..starts[v + 1]]`.
        starts: Vec<u32>,
        links: Vec<Link>,
    }

    impl NeighborOrder {
        /// Builds the table for `graph`, unless it is built.
        pub(crate) fn build(&mut self, graph: &Graph) {
            if self.is_built() {
                return;
            }
            self.starts.reserve_exact(graph.n() + 1);
            self.links.reserve_exact(2 * graph.m());
            self.starts.push(0);
            for v in 0..graph.n() {
                let from = self.links.len();
                graph.for_each_port(v, |port, node, _| {
                    self.links.push(Link {
                        node: node as u32,
                        port: port as u32,
                    });
                });
                self.links[from..].sort_unstable_by_key(|link| link.node);
                self.starts.push(to_u32(self.links.len()));
            }
        }

        /// Whether a round has pulled.
        pub(crate) fn is_built(&self) -> bool {
            !self.starts.is_empty()
        }

        /// Node `v`'s ports, by neighbor id.
        #[inline]
        pub(crate) fn row(&self, v: usize) -> &[Link] {
            &self.links[self.starts[v] as usize..self.starts[v + 1] as usize]
        }
    }

    /// The per-round hooks the driver calls on its delivery policy.
    pub trait Policy<M: Payload> {
        /// Start of `round`, before any node computes: removes the nodes
        /// that stop executing now from `active`.
        fn begin(&mut self, round: u64, active: &mut Vec<u32>) {
            let _ = (round, active);
        }

        /// Where this round's metered sends go.
        fn staging<'a>(&'a mut self, arena: &'a mut Arena<M>) -> Staging<'a, M>;

        /// The round failed: forgets everything it staged.
        fn abort(&mut self) {}

        /// The round committed: writes every message due next round into
        /// `arena`, in delivery order.
        fn commit(&mut self, graph: &Graph, arena: &mut Arena<M>) {
            let _ = (graph, arena);
        }

        /// A round ended in which `ran` nodes executed and `broadcasters`
        /// of them made a broadcast their first send.
        fn tally(&mut self, broadcasters: u64, ran: usize) {
            let _ = (broadcasters, ran);
        }

        /// The delivery-buffer capacity reported to trace sinks, given the
        /// two inbox arenas'.
        fn buffer_cap(&self, arena_cap: usize) -> usize {
            arena_cap
        }

        /// Whether the driver may skip quiet rounds: true only for a
        /// policy that holds nothing between rounds and draws nothing per
        /// round, so empty inboxes mean nothing is in flight.
        fn fast_forwards(&self) -> bool {
            false
        }
    }

    /// Where [`OutCtx::send`](crate::process::OutCtx::send) hands a
    /// metered message: one variant per policy, matched once per send.
    pub enum Staging<'a, M> {
        /// Straight into next round's inbox arena.
        Lockstep(&'a mut Arena<M>),
        /// The same, except that a broadcast that is its node's first
        /// send is posted: a dense lockstep round.
        Posting(&'a mut Arena<M>),
        /// Through the adversary into the event queue.
        Events(&'a mut Events<M>),
    }

    /// One node's inbox in an [`Arena`].
    #[derive(Debug, Clone, Copy, Default)]
    struct Region {
        /// The region's first slot; meaningful while `fill > 0`.
        start: u32,
        /// Messages held.
        fill: u32,
        /// Slots the region takes: the most messages the node has been
        /// handed in one round, or, with `PROVISIONAL`, a size not yet
        /// confirmed by a load; 0 before the node's first message.
        room: u32,
    }

    /// The room of a node's first region.
    #[cold]
    fn first_room(graph: &Graph, v: usize) -> u32 {
        to_u32(graph.degree(v).min(FIRST_ROOM)) | PROVISIONAL
    }

    fn to_u32(slots: usize) -> u32 {
        u32::try_from(slots).expect("a round's inboxes fit in u32 slots")
    }

    /// One round's inboxes: each node's pushed messages in a region of
    /// one buffer (see the [module docs](super#inbox-regions)), and its
    /// neighbors' posted broadcasts on a board (see
    /// [posted broadcasts](super#posted-broadcasts)).
    #[derive(Debug)]
    pub struct Arena<M> {
        /// Every region, in the order they were taken this round; its
        /// length is the most slots a round has taken.
        slots: Vec<Incoming<M>>,
        /// Slots taken this round.
        top: usize,
        /// One region per node.
        regions: Vec<Region>,
        /// Nodes holding pushed messages.
        touched: Vec<u32>,
        /// One slot per node for the broadcast it posted; empty until the
        /// arena's first post.
        board: Vec<Option<M>>,
        /// Nodes that posted, ascending.
        posters: Vec<u32>,
        /// Messages held, a post counting once.
        len: usize,
    }

    impl<M: Copy> Arena<M> {
        /// An empty arena for `graph`'s nodes, with room for a round in
        /// which every node gets its first region, so a first dense round
        /// on a bounded-degree graph lays out without regrowing the
        /// buffer.
        pub(crate) fn new(graph: &Graph) -> Self {
            let first = (0..graph.n())
                .map(|v| graph.degree(v).min(FIRST_ROOM))
                .sum();
            Arena {
                slots: Vec::with_capacity(first),
                top: 0,
                regions: vec![Region::default(); graph.n()],
                touched: Vec::new(),
                board: Vec::new(),
                posters: Vec::new(),
                len: 0,
            }
        }

        /// Messages held, a post counting once.
        pub(crate) fn len(&self) -> usize {
            self.len
        }

        /// Node `v`'s pushed messages: its whole inbox unless the arena
        /// holds posts.
        #[inline]
        pub(crate) fn inbox(&self, v: usize) -> &[Incoming<M>] {
            let Region { start, fill, .. } = self.regions[v];
            &self.slots[start as usize..(start + fill) as usize]
        }

        /// Whether any node posted into this arena, so that its inboxes
        /// are pulled.
        #[inline]
        pub(crate) fn has_posts(&self) -> bool {
            !self.posters.is_empty()
        }

        /// Whether any node was pushed a message.
        pub(crate) fn has_pushes(&self) -> bool {
            !self.touched.is_empty()
        }

        /// Turns every post into one push per port of its node, posters in
        /// ascending id. In an arena holding no pushes, that fills every
        /// region in sender order, exactly as pushing the broadcasts would
        /// have.
        pub(crate) fn unpost(&mut self, graph: &Graph) {
            debug_assert!(!self.has_pushes());
            let posters = std::mem::take(&mut self.posters);
            for &w in &posters {
                let msg = self.board[w as usize]
                    .take()
                    .expect("a poster holds a post");
                self.len -= 1;
                graph.for_each_port(w as usize, |_, target, arrival| {
                    self.push(graph, target, arrival, msg);
                });
            }
            self.posters = posters;
            self.posters.clear();
        }

        /// Stores `msg`, which `node` broadcast as its first send of the
        /// round, once for all its neighbors.
        #[inline]
        pub(crate) fn post(&mut self, node: usize, msg: M) {
            if self.board.is_empty() {
                self.board.resize_with(self.regions.len(), || None);
            }
            debug_assert!(self.board[node].is_none(), "one post per node");
            self.board[node] = Some(msg);
            self.posters.push(node as u32);
            self.len += 1;
        }

        /// Node `v`'s inbox when the arena holds posts: its neighbors'
        /// posts, read in place in neighbor-id order (`row`, from
        /// [`NeighborOrder`]), merged with its pushed messages, a sender's
        /// post before its pushes.
        #[inline]
        pub(crate) fn pulled<'a>(
            &'a self,
            graph: &'a Graph,
            v: usize,
            row: &'a [Link],
        ) -> Inbox<'a, M> {
            Inbox::pulled(graph, v, row, &self.board, self.inbox(v))
        }

        /// Stages `msg` for `target`, arriving through its port `port`, at
        /// the end of the target's inbox.
        #[inline]
        pub(crate) fn push(&mut self, graph: &Graph, target: usize, port: usize, msg: M) {
            let Region { fill, room, .. } = self.regions[target];
            if fill == 0 {
                self.take(target, graph);
            } else if fill == room & !PROVISIONAL {
                self.grow(target, graph);
            }
            let region = &mut self.regions[target];
            let at = (region.start + region.fill) as usize;
            region.fill += 1;
            self.len += 1;
            let incoming = Incoming { port, msg };
            match self.slots.get_mut(at) {
                Some(slot) => *slot = incoming,
                None => self.extend(incoming),
            }
        }

        /// Takes `target`'s region at the end of the buffer, for its first
        /// message of the round.
        #[inline]
        fn take(&mut self, target: usize, graph: &Graph) {
            let region = &mut self.regions[target];
            if region.room == 0 {
                region.room = first_room(graph, target);
            }
            region.start = to_u32(self.top);
            self.top += (region.room & !PROVISIONAL) as usize;
            self.touched.push(target as u32);
        }

        /// Gives a full region room for `target`'s next message (see
        /// [`GROWTH`]), in place if it is the last region taken, else
        /// moved, messages in order, to the end of the buffer.
        #[cold]
        #[inline(never)]
        fn grow(&mut self, target: usize, graph: &Graph) {
            let region = self.regions[target];
            let (start, room) = (region.start as usize, (region.room & !PROVISIONAL) as usize);
            let degree = graph.degree(target);
            let grown = if room < degree {
                (GROWTH * room).min(degree)
            } else {
                2 * room
            };
            let to = if start + room == self.top {
                start
            } else {
                self.top
            };
            self.top = to + grown;
            if to != start {
                if self.top > self.slots.len() {
                    let filler = self.slots[start];
                    self.slots.resize(self.top, filler);
                }
                self.slots.copy_within(start..start + room, to);
            }
            let region = &mut self.regions[target];
            region.start = to_u32(to);
            region.room = to_u32(grown) | PROVISIONAL;
        }

        /// Grows the buffer to the slots taken, for `incoming` at a slot
        /// past its end; every new slot holds a copy of it.
        #[cold]
        #[inline(never)]
        fn extend(&mut self, incoming: Incoming<M>) {
            self.slots.resize(self.top, incoming);
        }

        /// Forgets every message, keeping the buffer's and the board's
        /// capacity. A node whose region was provisional is sized by what
        /// it was handed.
        pub(crate) fn clear(&mut self) {
            for &t in &self.touched {
                let region = &mut self.regions[t as usize];
                if region.room & PROVISIONAL != 0 {
                    region.room = region.fill;
                }
                region.fill = 0;
            }
            self.touched.clear();
            for &p in &self.posters {
                self.board[p as usize] = None;
            }
            self.posters.clear();
            self.top = 0;
            self.len = 0;
        }

        /// Buffer plus board capacity, in messages.
        pub(crate) fn capacity(&self) -> usize {
            self.slots.capacity() + self.board.capacity()
        }

        /// Region slots the busiest round has taken.
        #[cfg(test)]
        pub(crate) fn slots_taken(&self) -> usize {
            self.slots.len()
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
    /// This round's inboxes.
    pub(crate) inbox: Arena<P::Msg>,
    /// Next round's inboxes; swapped with `inbox` at commit.
    staged: Arena<P::Msg>,
    /// Ports by neighbor id, for reading posts; built by the first round
    /// that pulls.
    order: NeighborOrder,
    /// Port-use marks for multi-send detection, indexed by port and epoch-
    /// stamped per node visit — never cleared, `max_degree` entries total.
    port_marks: Vec<u64>,
    mark: u64,
    /// Executing node ids, ascending. Nodes leave when they halt (or the
    /// policy stops them) and never return (see the `Process::is_halted`
    /// invariant).
    active: Vec<u32>,
    /// When sent messages reach their inboxes.
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
/// use ale_congest::{Network, Process, NodeCtx, Inbox, OutCtx};
/// use ale_graph::generators;
///
/// // A one-shot flood: every node broadcasts its degree once, then halts.
/// #[derive(Debug)]
/// struct Shout { heard: u64, done: bool }
/// impl Process for Shout {
///     type Msg = u64;
///     type Output = u64;
///     fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
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

/// SplitMix64's state increment: `2⁶⁴/φ`, rounded to odd.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 step: the output of a generator in state `state`, whose
/// next state is `state + GOLDEN_GAMMA`. The workspace's one seed
/// expander: it derives independent per-node seeds from the experiment
/// seed without exposing node ids to protocols, the asynchronous
/// engine's positional adversary streams, and `ale-lab`'s trial seeds.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(GOLDEN_GAMMA);
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
        Self::wire(graph, procs, seed, budget_bits, Lockstep { dense: true })
    }

    /// Builds one process per node with the factory `f`, which receives the
    /// node's degree and its (already seeded) RNG — the same information the
    /// process itself will be allowed to see.
    pub fn from_fn<F>(graph: &'g Graph, seed: u64, budget_bits: usize, f: F) -> Self
    where
        F: FnMut(usize, &mut StdRng) -> P,
    {
        Self::spawn(graph, seed, budget_bits, Lockstep { dense: true }, f)
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
            inbox: Arena::new(graph),
            staged: Arena::new(graph),
            order: NeighborOrder::default(),
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
    /// compute → send → commit pipeline). Under the event policy a round
    /// is one virtual tick.
    ///
    /// # Errors
    ///
    /// [`CongestError::InvalidPort`] if a process addresses a port it does
    /// not have (a protocol bug surfaced as an error, never UB). The
    /// failed round is dropped wholesale: nothing is delivered or metered,
    /// the round counter does not advance, and the round's inboxes are
    /// kept, so stepping again retries it.
    pub fn step(&mut self) -> Result<(), CongestError> {
        debug_assert_eq!(self.staged.len(), 0);
        self.policy.begin(self.round, &mut self.active);
        if self.inbox.has_posts() {
            self.order.build(self.graph);
        }
        let (stats, failure, any_halted) = self.compute();

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

        self.policy.tally(stats.broadcasters, self.active.len());
        if any_halted {
            let procs = &self.procs;
            self.active.retain(|&v| !procs[v as usize].is_halted());
        }

        // Commit: the policy writes next round's messages into their
        // regions, and this round's arena, emptied, becomes next round's
        // staging.
        self.policy.commit(self.graph, &mut self.staged);
        self.inbox.clear();
        std::mem::swap(&mut self.inbox, &mut self.staged);

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
            buffer_cap: self.buffer_cap(),
        });
        self.round += 1;
        Ok(())
    }

    /// Compute + send: drives every active process against its inbox —
    /// its region, or, when this round's arena holds posts, its pulled
    /// view — and sends stream into the policy's staging through the
    /// node's `OutCtx`. Returns the round's counters, its failure, and
    /// whether a process halted.
    fn compute(&mut self) -> (RoundStats, Option<CongestError>, bool) {
        let mut stats = RoundStats::default();
        let mut failure: Option<CongestError> = None;
        let mut any_halted = false;
        let Driver {
            graph,
            procs,
            rngs,
            round,
            metrics,
            inbox,
            staged,
            order,
            port_marks,
            mark,
            active,
            policy,
            ..
        } = self;
        let pulls = inbox.has_posts();
        for &v in active.iter() {
            let v = v as usize;
            let degree = graph.degree(v);
            let inbox = if pulls {
                inbox.pulled(graph, v, order.row(v))
            } else {
                inbox.inbox(v).into()
            };
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
        (stats, failure, any_halted)
    }

    /// The delivery-buffer capacity reported to trace sinks: both inbox
    /// arenas' under [`Lockstep`].
    fn buffer_cap(&self) -> usize {
        self.policy
            .buffer_cap(self.inbox.capacity() + self.staged.capacity())
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
    /// under a policy that does not fast-forward, when this round's
    /// inboxes hold a message, or when an active process would act now.
    fn skip_quiet_rounds(&mut self, limit: u64) {
        if !self.policy.fast_forwards() || self.inbox.len() > 0 {
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
        // An empty step only swaps the two arenas, so it would leave the
        // reported buffer_cap, their sum, alone. The swaps are replayed
        // below: each arena sizes its regions by its own rounds.
        let buffer_cap = self.buffer_cap();
        if (until - round) % 2 == 1 {
            std::mem::swap(&mut self.inbox, &mut self.staged);
        }
        // An empty round, in which nobody broadcast.
        self.policy.tally(0, self.active.len());
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
    use crate::process::Inbox;
    use crate::reference::ReferenceNetwork;
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
            inbox: Inbox<'_, u64>,
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

    /// A buggy process that sends on an invalid port.
    #[derive(Debug)]
    struct BadPort;
    impl Process for BadPort {
        type Msg = u64;
        type Output = ();
        fn round(
            &mut self,
            ctx: &mut NodeCtx<'_>,
            _inbox: Inbox<'_, u64>,
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
        // The failed round is dropped wholesale: nothing metered, and
        // next round's inboxes are clean, so stepping again errors the same way
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
            _inbox: Inbox<'_, u64>,
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
    /// port 0 (`BURST` copies in round `BURST_ROUND`, so receivers
    /// outgrow their inbox regions); it halts in round `halt_at`.
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
            inbox: Inbox<'_, u64>,
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

    fn scripted(v: usize) -> Scripted {
        let v = v as u64;
        Scripted {
            busy: vec![0, 5 + 7 * v, 6 + 7 * v, BURST_ROUND, 52 + v],
            halt_at: v.is_multiple_of(2).then_some(70 + v),
            log: Vec::new(),
            halted: false,
        }
    }

    fn scripted_network(g: &Graph) -> Network<'_, Scripted> {
        Network::new(g, (0..g.n()).map(scripted).collect(), 11, 64).unwrap()
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
        // The burst hands receivers more than their degree, so their
        // regions grow past it; every inbox still arrives in the
        // reference engine's order, which the logs record.
        let burst_inbox = |log: &Vec<(u64, u64)>| {
            log.iter()
                .filter(|&&(round, _)| round == BURST_ROUND + 1)
                .count()
        };
        assert!(skipped.0.iter().any(|log| burst_inbox(log) > 2));
        let mut reference =
            ReferenceNetwork::new(&g, (0..g.n()).map(scripted).collect(), 11, 64).unwrap();
        reference.run_for(90).unwrap();
        assert_eq!(skipped.0, reference.outputs());
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

    /// Passes one token along random ports: each round one node sends one
    /// message.
    #[derive(Debug)]
    struct Walker {
        holds: bool,
    }

    impl Process for Walker {
        type Msg = u64;
        type Output = ();

        fn round(
            &mut self,
            ctx: &mut NodeCtx<'_>,
            inbox: Inbox<'_, u64>,
            out: &mut OutCtx<'_, u64>,
        ) {
            if std::mem::take(&mut self.holds) || !inbox.is_empty() {
                out.send(ctx.rng.gen_range(0..ctx.degree), ctx.round);
            }
        }

        fn output(&self) {}
    }

    #[test]
    fn inbox_storage_follows_the_traffic_not_the_ports() {
        // The complete graph has 2m = 16 256 ports, but one message is in
        // flight: each arena keeps the room it starts with, a first
        // region's worth per node, and never needs a slot per port.
        let g = generators::complete(128).unwrap();
        let mut net = Network::from_fn(&g, 3, 64, |_, _| Walker { holds: false });
        net.procs[0].holds = true;
        net.run_for(500).unwrap();
        assert_eq!(net.metrics().messages, 500);
        assert!(net.buffer_cap() < g.m(), "{}", net.buffer_cap());
    }

    #[test]
    fn a_broadcast_only_run_takes_no_region_slots() {
        // Every node broadcasts every round, so every round (the first
        // counts as dense) posts each broadcast once and takes no region
        // slot in either arena; the run still matches the reference.
        let g = generators::grid2d(6, 7, true).unwrap();
        let mut net = flood_network(&g, 4, 20);
        let mut reference = ReferenceNetwork::from_fn(&g, 4, 64, |_deg, rng| FloodMax {
            value: rng.gen::<u64>() >> 20,
            rounds_left: 20,
        });
        while !net.all_halted() {
            net.step().unwrap();
            assert_eq!(net.inbox.slots_taken() + net.staged.slots_taken(), 0);
        }
        reference.run_to_halt(100).unwrap();
        assert_eq!(net.metrics().messages, 20 * 4 * 42);
        assert_eq!(net.metrics(), reference.metrics());
        assert_eq!(net.outputs(), reference.outputs());
    }

    #[test]
    fn sparse_broadcasts_are_pushed_from_the_first_round_on() {
        // Four nodes in forty broadcast each round. The first round posts
        // (it counts as dense) but is sparse and pushes nothing, so its
        // posts become pushes at commit; no later round posts, so no round
        // pulls and the neighbor table is never built.
        #[derive(Debug)]
        struct Few(u64);
        impl Process for Few {
            type Msg = u64;
            type Output = u64;
            fn round(
                &mut self,
                ctx: &mut NodeCtx<'_>,
                inbox: Inbox<'_, u64>,
                out: &mut OutCtx<'_, u64>,
            ) {
                for m in inbox {
                    self.0 = self.0.rotate_left(3) ^ m.msg ^ m.port as u64;
                }
                if self.0.wrapping_add(ctx.round).is_multiple_of(10) {
                    out.broadcast(self.0.wrapping_add(1));
                }
            }
            fn output(&self) -> u64 {
                self.0
            }
        }
        let g = generators::complete(40).unwrap();
        let procs = || (0..40).map(Few).collect::<Vec<_>>();
        let mut net = Network::new(&g, procs(), 1, 64).unwrap();
        let mut reference = ReferenceNetwork::new(&g, procs(), 1, 64).unwrap();
        for _ in 0..30 {
            net.step().unwrap();
            reference.step().unwrap();
            assert!(!net.inbox.has_posts());
        }
        assert!(net.metrics().messages > 0);
        assert_eq!(net.metrics(), reference.metrics());
        assert_eq!(net.outputs(), reference.outputs());
        assert!(!net.order.is_built());
    }

    #[test]
    fn regions_keep_every_inbox_in_push_order() {
        // Skewed random loads, from none to several times a node's degree
        // (39, past the first region's size), over rounds that reuse the
        // sizes earlier ones learned: regions are taken, grow in place,
        // move and shrink back, and every inbox reads back in push order.
        let g = generators::complete(40).unwrap();
        let mut arena = sealed::Arena::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..60u64 {
            let mut naive = vec![Vec::new(); g.n()];
            let pushes = rng.gen_range(0..3000);
            for i in 0..pushes {
                let t = rng.gen_range(0..g.n()).min(rng.gen_range(0..g.n()));
                arena.push(&g, t, i % 7, (round, i));
                naive[t].push((i % 7, (round, i)));
            }
            assert_eq!(arena.len(), pushes);
            for (v, expected) in naive.iter().enumerate() {
                let inbox: Vec<_> = arena.inbox(v).iter().map(|m| (m.port, m.msg)).collect();
                assert_eq!(&inbox, expected, "round {round}, node {v}");
            }
            arena.clear();
        }
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

        fn round(&mut self, _: &mut NodeCtx<'_>, _: Inbox<'_, u64>, _: &mut OutCtx<'_, u64>) {
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
                inbox: Inbox<'_, u64>,
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
                inbox: Inbox<'_, u64>,
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
