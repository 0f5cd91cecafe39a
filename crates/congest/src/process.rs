//! The anonymous process abstraction and the send handle.
//!
//! A [`Process`] is one node's protocol state machine. Anonymity is enforced
//! structurally: the only information a process can observe is
//!
//! * its own degree (port count),
//! * the current round number (the network is globally synchronous),
//! * messages received this round, tagged with the **local port** they
//!   arrived through, and
//! * its private random bits.
//!
//! Host-side node ids never reach the process; they exist only to seed RNGs
//! and to let the harness inspect outcomes.
//!
//! # Sending: the `Outbox` → [`OutCtx`] migration
//!
//! Until the arena engine landed, `Process::round` *returned* an
//! `Outbox<Msg> = Vec<(port, msg)>` that the network validated and staged
//! afterwards — one heap allocation per node per round plus a full rescan
//! at commit time. The current API inverts the flow: the network hands the
//! process a send handle, [`OutCtx`], and every [`OutCtx::send`] hands its
//! message straight to the network's delivery policy (the capacity-retained
//! staging arena, or the event queue), accumulating bit counters and
//! detecting multi-sends at the moment of the send (commit folds the
//! counters into the metrics once per round).
//!
//! Migrating an implementation is mechanical. Before:
//!
//! ```text
//! fn round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Incoming<u64>]) -> Outbox<u64> {
//!     for m in inbox { self.best = self.best.max(m.msg); }
//!     (0..ctx.degree).map(|p| (p, self.best)).collect()
//! }
//! ```
//!
//! After — same observable behavior, zero per-round allocation:
//!
//! ```
//! use ale_congest::{Incoming, NodeCtx, OutCtx, Process};
//!
//! #[derive(Debug, Default)]
//! struct Max { best: u64 }
//! impl Process for Max {
//!     type Msg = u64;
//!     type Output = u64;
//!     fn round(
//!         &mut self,
//!         ctx: &mut NodeCtx<'_>,
//!         inbox: &[Incoming<u64>],
//!         out: &mut OutCtx<'_, u64>,
//!     ) {
//!         for m in inbox { self.best = self.best.max(m.msg); }
//!         out.broadcast(self.best); // or: for p in 0..ctx.degree { out.send(p, self.best) }
//!     }
//!     fn output(&self) -> u64 { self.best }
//! }
//!
//! // Unit tests (and the reference engine) capture sends with a collector:
//! let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
//! let mut ctx = NodeCtx { degree: 2, round: 0, rng: &mut rng };
//! let mut sent = Vec::new();
//! Max { best: 7 }.round(&mut ctx, &[], &mut OutCtx::collector(2, &mut sent));
//! assert_eq!(sent, vec![(0, 7), (1, 7)]);
//! ```

use crate::error::CongestError;
use crate::message::Payload;
use crate::metrics::Metrics;
use crate::network::sealed::Staging;
use ale_graph::Graph;
use rand::rngs::StdRng;

/// Per-round execution context handed to a process.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    /// The node's degree; ports are `0..degree`.
    pub degree: usize,
    /// Current round number (0 for the first round).
    pub round: u64,
    /// The node's private randomness (seeded by the harness; the seed path
    /// is invisible to the protocol, standing in for physical noise).
    pub rng: &'a mut StdRng,
}

/// A message delivered to a process, tagged with the arrival port.
#[derive(Debug, Clone)]
pub struct Incoming<M> {
    /// The local port the message arrived through.
    pub port: usize,
    /// The payload.
    pub msg: M,
}

/// Per-round delivery counters accumulated at send time. Commit folds the
/// whole batch into [`Metrics`](crate::metrics::Metrics) with one
/// [`record_round`](crate::metrics::Metrics::record_round) call (the
/// counters also feed the [`RoundTrace`](crate::metrics::RoundTrace)), so
/// the per-send hot path touches only this small stack-local struct.
#[derive(Debug, Default)]
pub(crate) struct RoundStats {
    pub(crate) messages: u64,
    pub(crate) bits: u64,
    pub(crate) max_bits: usize,
    /// Messages wider than the CONGEST budget, counted per message at send
    /// time (the aggregate alone could not recover the per-message test).
    pub(crate) oversize: u64,
    /// Sends the adversary discarded this round (event policy only; always
    /// 0 under lockstep delivery and on the reference engine).
    pub(crate) dropped: u64,
    /// Extra copies the adversary injected this round (event policy only;
    /// always 0 under lockstep delivery and on the reference engine).
    pub(crate) duplicated: u64,
}

/// The engine driver's send path: borrowed slices of driver-owned state,
/// packed per node by [`Driver::step`](crate::network::Driver::step).
pub(crate) struct EngineSink<'a, M> {
    /// Host-side sender id — used only for error diagnostics.
    pub(crate) node: usize,
    /// The current round (virtual tick under the event policy).
    pub(crate) round: u64,
    pub(crate) graph: &'a Graph,
    /// Port-use marks for multi-send detection (`marks[p] == mark` ⇔ port
    /// `p` already used by this node this round); epoch-stamped so it is
    /// never cleared.
    pub(crate) marks: &'a mut [u64],
    pub(crate) mark: u64,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) stats: &'a mut RoundStats,
    /// First protocol violation this round; once set, sends are ignored and
    /// the driver drops the whole round.
    pub(crate) failure: &'a mut Option<CongestError>,
    /// Where the delivery policy takes metered messages.
    pub(crate) staging: Staging<'a, M>,
}

/// Where [`OutCtx::send`] writes.
pub(crate) enum Sink<'a, M> {
    /// The engine driver (metered, validated, handed to the policy).
    Engine(EngineSink<'a, M>),
    /// Plain collection of `(port, msg)` pairs — no metering, no
    /// validation — for unit tests and the reference engine.
    Collect(&'a mut Vec<(usize, M)>),
}

/// The send handle passed to [`Process::round`].
///
/// Created by the network (or by [`OutCtx::collector`] in tests); a process
/// cannot construct the engine-backed variant itself, which is what keeps
/// the metering honest.
///
/// Under the engine driver — whichever its delivery policy — every
/// [`OutCtx::send`] takes this one path:
///
/// 1. validates the port (an invalid port latches a
///    [`CongestError::InvalidPort`]; the message and all later sends of the
///    round are dropped, and the network returns the error);
/// 2. records a multi-send violation if the port was already used this
///    round (the duplicate is still delivered — counted, not merged);
/// 3. meters the payload's [`bit_size`](crate::message::Payload::bit_size)
///    into the per-round counters, which commit folds into the run metrics
///    in one batched update;
/// 4. hands the message, with its target from a single fused
///    target/reverse-port lookup, to the delivery policy: lockstep stages
///    it in the flat delivery arena, the event policy decides its fate and
///    latency and queues it.
pub struct OutCtx<'a, M: Payload> {
    pub(crate) degree: usize,
    pub(crate) sink: Sink<'a, M>,
}

impl<'a, M: Payload> OutCtx<'a, M> {
    /// A detached handle that appends `(port, msg)` pairs to `buf` instead
    /// of staging into an engine — the unit-test and reference-engine
    /// stand-in for the pre-arena `Outbox` return value. No validation or
    /// metering happens in this mode; invalid ports and multi-sends are
    /// recorded verbatim for the caller to inspect.
    pub fn collector(degree: usize, buf: &'a mut Vec<(usize, M)>) -> Self {
        OutCtx {
            degree,
            sink: Sink::Collect(buf),
        }
    }

    /// Sends `msg` through `port` this round.
    ///
    /// See the [type docs](OutCtx) for what a send does under the engine.
    /// At most one message per port per round is legal in the CONGEST
    /// model; violations are metered as
    /// [`multi_send_violations`](crate::metrics::Metrics::multi_send_violations).
    pub fn send(&mut self, port: usize, msg: M) {
        match &mut self.sink {
            Sink::Collect(buf) => buf.push((port, msg)),
            Sink::Engine(e) => {
                if e.failure.is_some() {
                    // The round is already being dropped; swallow the send
                    // exactly as the outbox engine ignored entries after
                    // the first invalid one.
                    return;
                }
                if port >= self.degree {
                    *e.failure = Some(CongestError::InvalidPort {
                        node: e.node,
                        port,
                        degree: self.degree,
                    });
                    return;
                }
                if e.marks[port] == e.mark {
                    e.metrics.record_multi_send();
                } else {
                    e.marks[port] = e.mark;
                }
                let bits = msg.bit_size();
                e.stats.messages += 1;
                e.stats.bits += bits as u64;
                if bits > e.stats.max_bits {
                    e.stats.max_bits = bits;
                }
                let budget = e.metrics.budget_bits;
                if budget > 0 && bits > budget {
                    e.stats.oversize += 1;
                }
                let (target, arrival) = e.graph.port_and_reverse(e.node, port);
                match &mut e.staging {
                    Staging::Lockstep(arena) => arena.push(target, arrival, msg),
                    Staging::Events(events) => {
                        events.stage(e.round, target, arrival, msg, e.stats);
                    }
                }
            }
        }
    }

    /// Sends a clone of `msg` through every port — the all-neighbors
    /// broadcast most protocols use. Equivalent to
    /// `for p in 0..degree { send(p, msg.clone()) }` (the last send moves
    /// instead of cloning).
    pub fn broadcast(&mut self, msg: M) {
        if self.degree == 0 {
            return;
        }
        for p in 0..self.degree - 1 {
            self.send(p, msg.clone());
        }
        self.send(self.degree - 1, msg);
    }
}

/// One node's protocol state machine.
///
/// The simulator drives every process in lock-step: each round it calls
/// [`Process::round`] with the messages that arrived and a send handle for
/// the messages to deliver next round. Round 0 is called with an empty
/// inbox (it plays the role of `init`). The lockstep driver may leave out
/// a round the process declared quiet through [`Process::quiet_until`].
pub trait Process {
    /// Message payload type.
    type Msg: Payload;
    /// Final output extracted by the harness (e.g. a leader flag).
    type Output: Clone;

    /// Executes one synchronous round, sending through `out`.
    fn round(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        inbox: &[Incoming<Self::Msg>],
        out: &mut OutCtx<'_, Self::Msg>,
    );

    /// Whether this process has terminated (stopped sending and deciding).
    ///
    /// Irrevocable protocols halt (Definition 1 requires all nodes to stop);
    /// revocable protocols may never halt (Definition 2) — the default
    /// `false` models that.
    ///
    /// **Engine invariant — halting is permanent.** The network stops
    /// polling a process once this returns `true` (it leaves the active
    /// set, its inbox is discarded, and `round` is never called again), so
    /// the answer must be a pure function of state mutated in
    /// [`Process::round`]: a process that reports halted must keep
    /// reporting halted.
    fn is_halted(&self) -> bool {
        false
    }

    /// The first round `≥ round` in which this process, receiving nothing,
    /// could act — change state, draw from its RNG, send, or halt. The
    /// default, `round`, promises nothing.
    ///
    /// **Contract.** The lockstep driver asks only when this process's
    /// inbox for `round` is empty and no message is in flight anywhere.
    /// The answer must be a pure function of state, like
    /// [`Process::is_halted`], and an `r ≥ round` such that calling
    /// [`Process::round`] with an empty inbox in each round of
    /// `round..r` would leave the process exactly as it is: no state
    /// change, no RNG draw, no send, no halt. When every active process
    /// answers past `round`, [`Network`](crate::network::Network)'s
    /// `run_to_halt` and `run_for` skip to the smallest answer, recording
    /// each skipped round exactly as an empty round (see the
    /// [module docs](crate::network#quiet-round-fast-forward)).
    fn quiet_until(&self, round: u64) -> u64 {
        round
    }

    /// The process's current output (may change over time for revocable
    /// protocols — that is the point of revocability).
    fn output(&self) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    /// A process that counts messages and echoes on port 0.
    #[derive(Debug, Default)]
    struct Echo {
        seen: u64,
        done: bool,
    }

    impl Process for Echo {
        type Msg = u64;
        type Output = u64;

        fn round(
            &mut self,
            ctx: &mut NodeCtx<'_>,
            inbox: &[Incoming<u64>],
            out: &mut OutCtx<'_, u64>,
        ) {
            self.seen += inbox.len() as u64;
            if ctx.round >= 3 {
                self.done = true;
                return;
            }
            out.send(0, ctx.round);
        }

        fn is_halted(&self) -> bool {
            self.done
        }

        fn output(&self) -> u64 {
            self.seen
        }
    }

    #[test]
    fn process_trait_is_usable() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Echo::default();
        let mut ctx = NodeCtx {
            degree: 1,
            round: 0,
            rng: &mut rng,
        };
        let mut sent = Vec::new();
        p.round(&mut ctx, &[], &mut OutCtx::collector(1, &mut sent));
        assert_eq!(sent, vec![(0, 0)]);
        assert!(!p.is_halted());
        let mut ctx3 = NodeCtx {
            degree: 1,
            round: 3,
            rng: &mut rng,
        };
        let mut sent = Vec::new();
        p.round(
            &mut ctx3,
            &[Incoming { port: 0, msg: 9 }, Incoming { port: 0, msg: 8 }],
            &mut OutCtx::collector(1, &mut sent),
        );
        assert!(sent.is_empty());
        assert!(p.is_halted());
        assert_eq!(p.output(), 2);
    }

    #[test]
    fn ctx_rng_is_usable() {
        let mut rng = StdRng::seed_from_u64(7);
        let ctx = NodeCtx {
            degree: 4,
            round: 0,
            rng: &mut rng,
        };
        let x: f64 = ctx.rng.gen();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn collector_captures_sends_verbatim() {
        let mut buf: Vec<(usize, u64)> = Vec::new();
        let mut out = OutCtx::collector(3, &mut buf);
        out.send(2, 9);
        out.send(2, 9); // duplicate port: kept, not merged
        out.send(7, 1); // invalid port: kept — validation is the engine's job
        out.broadcast(5);
        assert_eq!(buf, vec![(2, 9), (2, 9), (7, 1), (0, 5), (1, 5), (2, 5)]);
    }

    #[test]
    fn broadcast_on_degree_zero_is_a_noop() {
        let mut buf: Vec<(usize, u64)> = Vec::new();
        OutCtx::collector(0, &mut buf).broadcast(1);
        assert!(buf.is_empty());
    }
}
