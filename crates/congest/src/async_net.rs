//! The event-queue delivery policy and its adversary model.
//!
//! [`AsyncNetwork`] is the engine [`Driver`] under the [`Events`] policy:
//! instead of lockstep delivery, it keeps a deterministic queue of
//! **message-delivery events** on a virtual-time axis. Nodes stay
//! tick-synchronous — every active node executes once per virtual tick —
//! but *links* are asynchronous: a message sent at tick `t` arrives at the
//! start of tick `t + L`, where `1 ≤ L ≤ MAX_LATENCY` is drawn per message
//! from the declared [`LatencyDist`]. An adversary ([`FaultSpec`]) may
//! additionally crash nodes at a scheduled tick, drop messages at send
//! time, or inject duplicate copies. Validation, multi-send detection and
//! metering are the driver's single send path, shared with
//! [`Network`](crate::network::Network).
//!
//! ## The delivery ring
//!
//! Latency is bounded by the configuration's largest draw `L_max ≤`
//! [`MAX_LATENCY`], so the queue is a timing wheel (Varghese & Lauck,
//! SOSP '87): a ring of `L_max` FIFO slots, where slot `t % L_max` holds
//! the deliveries arriving at tick `t`. At tick `t` the ring holds arrival
//! ticks `t + 1 ..= t + L_max − 1` and receives sends for
//! `t + 1 ..= t + L_max`; the slot of `t + L_max` is the one tick `t − 1`'s
//! commit just emptied. So a slot only ever holds one arrival tick, and a
//! send costs one append and one later drain: no comparisons, no
//! per-message sequence number.
//!
//! ## Event-queue invariants
//!
//! * Delivery order within an arrival tick is global send order (sender id
//!   ascending, then send order within the sender): a slot fills in send
//!   order and drains front to back into the receivers' inbox regions,
//!   the write a pushed lockstep send makes (see the
//!   [`network`](crate::network#inbox-regions) module docs); the event
//!   policy never posts a broadcast. A receiver that a tick hands more
//!   than its region holds — a duplicate, or latencies that bunch — grows
//!   its region, keeping that order. At **unit latency with zero faults**
//!   this reproduces the lockstep policy's inbox order exactly (lockstep
//!   reads its [posted broadcasts](crate::network#posted-broadcasts) back
//!   in the same sender order), so both policies match the
//!   [`ReferenceNetwork`](crate::reference::ReferenceNetwork) oracle: step
//!   results, outputs, [`Metrics`](crate::metrics::Metrics), and traces are
//!   byte-identical (pinned by `crates/congest/tests/equivalence.rs`, which
//!   steps both against the oracle in lockstep).
//! * Virtual time only moves forward: a tick runs every active node,
//!   appends each send to the slot of its arrival tick (strictly in the
//!   future), drains the slot due next tick into next tick's inboxes, and
//!   advances.
//! * **Fault atomicity**: a message's fate — dropped, delivered once, or
//!   duplicated — is decided entirely at send time from the adversary's
//!   own SplitMix64 streams. By construction the counters always
//!   reconcile: `delivered == messages − dropped + duplicated`.
//! * **Failed ticks deliver nothing**: an invalid port drops the whole
//!   tick exactly like a failed lockstep round — every slot is truncated
//!   back to its length at the start of the tick, nothing is metered,
//!   virtual time does not advance, and the tick's arrivals are retained
//!   for inspection/retry; multi-send violations recorded before the
//!   failure stick, and so do the adversary draws the tick consumed.
//! * **Memory tracks the load**: a drained slot whose capacity exceeds
//!   twice the mean slot load (counted before the drain, floor 64) gets a
//!   fresh buffer of that mean's size, so the ring's total capacity stays
//!   within a small factor of the messages in flight instead of keeping
//!   every slot at one tick's peak.
//!
//! ## Determinism
//!
//! All adversary randomness derives from the construction seed through
//! fixed-constant SplitMix64 streams (one for message fate, one for
//! latency, one positional per-node draw for crash schedules), so a run
//! is a pure function of `(graph, seed, config)` — independent of worker
//! count, wall clock, and host. Nodes run in ascending id order and each
//! send draws, in order: drop, then duplicate, then the copy's latency,
//! then the original's latency. The node RNGs are the same `node_rngs`
//! streams every engine uses.

use crate::error::CongestError;
use crate::message::Payload;
use crate::network::sealed::{Arena, Policy, Staging};
use crate::network::{splitmix64, Delivery, Driver};
use crate::process::{Process, RoundStats};
use ale_graph::Graph;
use rand::rngs::StdRng;

/// Stream-domain constants: each adversary stream hashes the construction
/// seed with its own constant so the streams are mutually independent and
/// disjoint from the node-RNG derivation (`seed ^ splitmix64(v + 1)`).
const FATE_STREAM: u64 = 0xFA7E_5EED_0000_0001;
const LATENCY_STREAM: u64 = 0x1A7E_5EED_0000_0002;
const CRASH_STREAM: u64 = 0xC4A5_8EED_0000_0003;

/// The largest link latency, in ticks, any [`LatencyDist`] draws:
/// [`ExecConfig::validate`] refuses a uniform `max` above it, and the
/// geometric tail is cut there. It bounds the delivery ring's length.
pub const MAX_LATENCY: u64 = 64;

/// Per-edge message latency, in virtual ticks. Every distribution has
/// support on `L ≥ 1`: a message sent at tick `t` is never visible before
/// tick `t + 1` (the synchronous lower bound).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LatencyDist {
    /// Every message takes exactly one tick — the synchronous schedule.
    /// Consumes no randomness, so a unit-latency run leaves the latency
    /// stream untouched.
    #[default]
    Unit,
    /// Uniform over `{min, …, max}` ticks (inclusive;
    /// `1 ≤ min ≤ max ≤ MAX_LATENCY`).
    Uniform {
        /// Smallest latency, ≥ 1.
        min: u64,
        /// Largest latency, ≥ `min` and ≤ [`MAX_LATENCY`].
        max: u64,
    },
    /// `1 +` a geometric number of failures with success probability `p`
    /// (`0 < p ≤ 1`), capped at [`MAX_LATENCY`] ticks — a long-tailed
    /// link.
    Geometric {
        /// Per-tick arrival probability.
        p: f64,
    },
}

impl LatencyDist {
    /// The largest latency this distribution can draw: the delivery
    /// ring's length.
    fn max(self) -> u64 {
        match self {
            LatencyDist::Unit => 1,
            LatencyDist::Uniform { max, .. } => max,
            LatencyDist::Geometric { .. } => MAX_LATENCY,
        }
    }
}

/// The adversary: per-message drop/duplication probabilities and a
/// per-node crash schedule. `FaultSpec::default()` is the fault-free
/// adversary (all probabilities zero).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability a sent message is discarded (never delivered).
    pub drop: f64,
    /// Probability a delivered message gets one extra copy (with its own
    /// independently drawn latency).
    pub duplicate: f64,
    /// Probability a node is scheduled to crash at all.
    pub crash: f64,
    /// Crash ticks are uniform in `[0, crash_window)`; must be ≥ 1 when
    /// `crash > 0`. A crashed node stops executing at the start of its
    /// crash tick and never returns; messages addressed to it still count
    /// as delivered (they arrive at a dead mailbox).
    pub crash_window: u64,
}

impl FaultSpec {
    /// True when no fault can ever fire — the configuration under which
    /// [`AsyncNetwork`] is byte-equivalent to the synchronous engines
    /// (given unit latency).
    pub fn is_zero(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.crash == 0.0
    }
}

/// Execution configuration for [`AsyncNetwork`]: the link-latency
/// distribution and the adversary. The default — unit latency, zero
/// faults — makes the engine observationally identical to
/// [`Network`](crate::network::Network).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecConfig {
    /// Per-message link latency.
    pub latency: LatencyDist,
    /// The fault adversary.
    pub faults: FaultSpec,
}

impl ExecConfig {
    /// Validates probabilities and distribution parameters.
    ///
    /// # Errors
    ///
    /// [`CongestError::BadExecConfig`] naming the violated constraint:
    /// probabilities outside `[0, 1]` (or non-finite), a uniform latency
    /// range with `min < 1`, `max < min` or `max >` [`MAX_LATENCY`], a
    /// geometric `p` outside `(0, 1]`, or a crash probability without a
    /// positive window.
    pub fn validate(&self) -> Result<(), CongestError> {
        let bad = |reason: String| Err(CongestError::BadExecConfig { reason });
        for (name, p) in [
            ("drop", self.faults.drop),
            ("duplicate", self.faults.duplicate),
            ("crash", self.faults.crash),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return bad(format!("{name} probability {p} outside [0, 1]"));
            }
        }
        match self.latency {
            LatencyDist::Unit => {}
            LatencyDist::Uniform { min, max } => {
                if min < 1 {
                    return bad(format!("uniform latency min {min} < 1"));
                }
                if max < min {
                    return bad(format!("uniform latency max {max} < min {min}"));
                }
                if max > MAX_LATENCY {
                    return bad(format!(
                        "uniform latency max {max} > MAX_LATENCY ({MAX_LATENCY})"
                    ));
                }
            }
            LatencyDist::Geometric { p } => {
                if !(p.is_finite() && p > 0.0 && p <= 1.0) {
                    return bad(format!("geometric latency p {p} outside (0, 1]"));
                }
            }
        }
        if self.faults.crash > 0.0 && self.faults.crash_window == 0 {
            return bad("crash probability set but crash_window is 0".to_string());
        }
        Ok(())
    }
}

/// A SplitMix64 output stream — the adversary's deterministic randomness,
/// kept separate from the node RNGs so protocols cannot observe (or
/// perturb) adversary decisions.
#[derive(Debug, Clone)]
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits.
    fn next_unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// True with probability `p`. Callers gate on `p > 0` so a zero-fault
    /// run consumes nothing from the stream.
    fn chance(&mut self, p: f64) -> bool {
        self.next_unit() < p
    }
}

fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One scheduled delivery; the ring slot it sits in is its arrival tick.
#[derive(Debug)]
struct Event<M> {
    target: u32,
    port: u32,
    msg: M,
}

/// Tick sentinel for "never crashes".
const NEVER: u64 = u64::MAX;

/// The event-queue delivery policy (see the [module docs](self) for the
/// delivery ring, the event-queue invariants and the determinism
/// contract): the adversary's streams and crash schedule, and the ring of
/// scheduled deliveries.
#[derive(Debug)]
pub struct Events<M> {
    config: ExecConfig,
    /// The delivery ring: slot `t % ring.len()` holds the deliveries
    /// arriving at tick `t`, in send order. Its length is the config's
    /// largest latency.
    ring: Vec<Vec<Event<M>>>,
    /// The current tick's slot, `round % ring.len()`.
    now: usize,
    /// Every slot's length at the start of the current tick: a failed
    /// tick truncates back to them.
    marks: Vec<usize>,
    /// Deliveries in the ring.
    queued: usize,
    /// Scheduled crash tick per node ([`NEVER`] = none).
    crash_at: Vec<u64>,
    /// Adversary streams: message fate (drop/duplicate) and latency.
    fate: SplitMix,
    latency: SplitMix,
}

impl<M: Payload> Events<M> {
    fn new(n: usize, seed: u64, config: ExecConfig) -> Result<Self, CongestError> {
        config.validate()?;
        // Positional per-node crash draws: independent of iteration order
        // and of every other stream, so the schedule is a pure function of
        // (seed, node id, config).
        let crash_seed = splitmix64(seed ^ splitmix64(CRASH_STREAM));
        let crash_at = (0..n)
            .map(|v| {
                if config.faults.crash == 0.0 {
                    return NEVER;
                }
                let h = splitmix64(crash_seed ^ splitmix64(v as u64 + 1));
                if unit_f64(h) < config.faults.crash {
                    splitmix64(h) % config.faults.crash_window.max(1)
                } else {
                    NEVER
                }
            })
            .collect();
        let slots = config.latency.max() as usize;
        Ok(Events {
            config,
            ring: (0..slots).map(|_| Vec::new()).collect(),
            now: 0,
            marks: Vec::with_capacity(slots),
            queued: 0,
            crash_at,
            fate: SplitMix::new(splitmix64(seed ^ splitmix64(FATE_STREAM))),
            latency: SplitMix::new(splitmix64(seed ^ splitmix64(LATENCY_STREAM))),
        })
    }

    /// Decides the fate of a send made this tick (already validated and
    /// metered by the driver) and queues its deliveries. A dropped message
    /// consumes exactly one fate draw and nothing else.
    #[inline]
    pub(crate) fn stage(&mut self, target: usize, port: usize, msg: M, stats: &mut RoundStats) {
        let faults = self.config.faults;
        if faults.drop > 0.0 && self.fate.chance(faults.drop) {
            stats.dropped += 1;
            return;
        }
        if faults.duplicate > 0.0 && self.fate.chance(faults.duplicate) {
            stats.duplicated += 1;
            self.schedule(target, port, msg.clone());
        }
        self.schedule(target, port, msg);
    }

    /// Draws one latency and appends the delivery to its arrival tick's
    /// slot.
    fn schedule(&mut self, target: usize, port: usize, msg: M) {
        // `now < len` and `1 ≤ latency ≤ len`, so one subtraction wraps.
        let mut slot = self.now + draw_latency(&mut self.latency, self.config.latency) as usize;
        if slot >= self.ring.len() {
            slot -= self.ring.len();
        }
        self.ring[slot].push(Event {
            target: target as u32,
            port: port as u32,
            msg,
        });
        self.queued += 1;
    }
}

/// Draws one message latency; `Unit` consumes no randomness.
fn draw_latency(latency: &mut SplitMix, dist: LatencyDist) -> u64 {
    match dist {
        LatencyDist::Unit => 1,
        LatencyDist::Uniform { min, max } => min + latency.next_u64() % (max - min + 1),
        LatencyDist::Geometric { p } => {
            let mut l = 1;
            while l < MAX_LATENCY && latency.next_unit() >= p {
                l += 1;
            }
            l
        }
    }
}

impl<M: Payload> Policy<M> for Events<M> {
    /// Crashes scheduled for this tick fire before anyone computes; the
    /// slot lengths are recorded for [`Policy::abort`].
    fn begin(&mut self, round: u64, active: &mut Vec<u32>) {
        if self.config.faults.crash > 0.0 {
            let crash_at = &self.crash_at;
            active.retain(|&v| crash_at[v as usize] > round);
        }
        self.now = (round % self.ring.len() as u64) as usize;
        self.marks.clear();
        self.marks.extend(self.ring.iter().map(Vec::len));
    }

    #[inline]
    fn staging<'a>(&'a mut self, _arena: &'a mut Arena<M>) -> Staging<'a, M> {
        Staging::Events(self)
    }

    fn abort(&mut self) {
        for (slot, &len) in self.ring.iter_mut().zip(&self.marks) {
            self.queued -= slot.len() - len;
            slot.truncate(len);
        }
    }

    fn commit(&mut self, graph: &Graph, arena: &mut Arena<M>) {
        let len = self.ring.len();
        // The mean slot load before the drain: counted after it, a unit
        // ring (one slot, drained every tick) would shrink and regrow
        // every tick.
        let keep = (self.queued / len).max(64);
        let slot = &mut self.ring[(self.now + 1) % len];
        self.queued -= slot.len();
        for ev in slot.drain(..) {
            arena.push(graph, ev.target as usize, ev.port as usize, ev.msg);
        }
        // A fresh buffer, not an in-place `shrink_to`: shrinking in place
        // strands small live blocks inside the large freed ones, which
        // under geometric latency raised peak RSS by a fifth.
        if slot.capacity() > 2 * keep {
            *slot = Vec::with_capacity(keep);
        }
    }

    fn buffer_cap(&self, _arena_cap: usize) -> usize {
        self.ring.iter().map(Vec::capacity).sum()
    }
}

impl<M: Payload> Delivery<M> for Events<M> {}

/// The event-driven asynchronous network: the [`Driver`] under [`Events`]
/// delivery. `round()` reports the current virtual tick.
pub type AsyncNetwork<'g, P> = Driver<'g, P, Events<<P as Process>::Msg>>;

impl<'g, P: Process> AsyncNetwork<'g, P> {
    /// Wires explicit process instances to the graph's nodes under an
    /// execution configuration — the async twin of
    /// [`Network::new`](crate::network::Network::new), identical seeding.
    ///
    /// # Errors
    ///
    /// [`CongestError::BadExecConfig`] when the configuration fails
    /// validation, [`CongestError::ProcessCountMismatch`] on a
    /// process-count mismatch.
    pub fn new_with(
        graph: &'g Graph,
        procs: Vec<P>,
        seed: u64,
        budget_bits: usize,
        config: ExecConfig,
    ) -> Result<Self, CongestError> {
        let events = Events::new(graph.n(), seed, config)?;
        Self::wire(graph, procs, seed, budget_bits, events)
    }

    /// Builds one process per node with the factory `f` under the default
    /// configuration — the async twin of
    /// [`Network::from_fn`](crate::network::Network::from_fn).
    pub fn from_fn<F>(graph: &'g Graph, seed: u64, budget_bits: usize, f: F) -> Self
    where
        F: FnMut(usize, &mut StdRng) -> P,
    {
        Self::from_fn_with(graph, seed, budget_bits, ExecConfig::default(), f)
            .expect("default ExecConfig always validates")
    }

    /// [`AsyncNetwork::from_fn`] with an explicit execution configuration.
    ///
    /// # Errors
    ///
    /// [`CongestError::BadExecConfig`] when the configuration fails
    /// validation.
    pub fn from_fn_with<F>(
        graph: &'g Graph,
        seed: u64,
        budget_bits: usize,
        config: ExecConfig,
        f: F,
    ) -> Result<Self, CongestError>
    where
        F: FnMut(usize, &mut StdRng) -> P,
    {
        let events = Events::new(graph.n(), seed, config)?;
        Ok(Self::spawn(graph, seed, budget_bits, events, f))
    }

    /// Messages scheduled but not yet consumed by a committed tick: the
    /// queue plus the arrivals waiting in the inboxes (for the next tick,
    /// or for the retry of a failed one).
    pub fn in_flight(&self) -> usize {
        self.policy.queued + self.inbox.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RunStatus;
    use crate::process::{Incoming, NodeCtx, OutCtx};
    use ale_graph::generators;

    /// Broadcasts a counter for `left` ticks, summing everything heard.
    #[derive(Debug)]
    struct Pulse {
        left: u64,
        heard: u64,
    }
    impl Process for Pulse {
        type Msg = u64;
        type Output = u64;
        fn round(
            &mut self,
            _ctx: &mut NodeCtx<'_>,
            inbox: &[Incoming<u64>],
            out: &mut OutCtx<'_, u64>,
        ) {
            self.heard += inbox.iter().map(|m| m.msg).sum::<u64>();
            if self.left > 0 {
                self.left -= 1;
                out.broadcast(1);
            }
        }
        fn is_halted(&self) -> bool {
            self.left == 0
        }
        fn output(&self) -> u64 {
            self.heard
        }
    }

    fn pulse_net(graph: &Graph, config: ExecConfig, seed: u64) -> AsyncNetwork<'_, Pulse> {
        AsyncNetwork::from_fn_with(graph, seed, 64, config, |_, _| Pulse { left: 3, heard: 0 })
            .expect("valid config")
    }

    #[test]
    fn unit_latency_fault_free_runs_like_a_synchronous_engine() {
        let g = generators::cycle(6).unwrap();
        let mut net = pulse_net(&g, ExecConfig::default(), 7);
        net.enable_trace();
        let status = net.run_to_halt(10).unwrap();
        assert_eq!(status, RunStatus::AllHalted);
        let m = net.metrics();
        assert_eq!(m.messages, 6 * 3 * 2);
        assert_eq!(m.delivered, m.messages);
        assert_eq!((m.dropped, m.duplicated), (0, 0));
        assert_eq!(net.trace().len() as u64, m.rounds);
        // Everyone halts after tick 2, so the tick-2 sends land at a dead
        // mailbox: each node hears its two neighbors for ticks 1 and 2 —
        // exactly the synchronous engines' halting semantics.
        assert!(net.outputs().iter().all(|&h| h == 4));
    }

    #[test]
    fn latency_delays_but_does_not_lose_messages() {
        let g = generators::cycle(6).unwrap();
        let cfg = ExecConfig {
            latency: LatencyDist::Uniform { min: 1, max: 5 },
            ..ExecConfig::default()
        };
        let mut unit = pulse_net(&g, ExecConfig::default(), 7);
        let mut slow = pulse_net(&g, cfg, 7);
        unit.run_for(40).unwrap();
        slow.run_for(40).unwrap();
        // Same sends, same enqueue-time accounting; only the delivery
        // schedule differs — and late arrivals can land after their
        // reader halted, so a node may *hear* less, never more.
        assert_eq!(unit.metrics().messages, slow.metrics().messages);
        assert_eq!(slow.metrics().delivered, slow.metrics().messages);
        for (u, s) in unit.outputs().into_iter().zip(slow.outputs()) {
            assert!(s <= u, "latency cannot create messages");
        }
    }

    #[test]
    fn drops_and_duplicates_reconcile() {
        let g = generators::complete(8).unwrap();
        let cfg = ExecConfig {
            faults: FaultSpec {
                drop: 0.3,
                duplicate: 0.2,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        };
        let mut net = pulse_net(&g, cfg, 11);
        net.run_for(10).unwrap();
        let m = net.metrics();
        assert!(m.dropped > 0, "0.3 over {} sends must fire", m.messages);
        assert!(m.duplicated > 0);
        assert_eq!(m.delivered, m.messages - m.dropped + m.duplicated);
        assert!(m.congest_clean(), "faults are not protocol violations");
    }

    #[test]
    fn crashed_nodes_stop_executing() {
        let g = generators::complete(16).unwrap();
        let cfg = ExecConfig {
            faults: FaultSpec {
                crash: 0.5,
                crash_window: 2,
                ..FaultSpec::default()
            },
            ..ExecConfig::default()
        };
        let mut net = pulse_net(&g, cfg, 3);
        net.step().unwrap();
        let after_first = net.active_count();
        assert!(after_first < 16, "seed 3 schedules at least one crash");
        net.run_for(5).unwrap();
        // Crash window is [0, 2): no crashes after tick 1, and survivors
        // halt on their own schedule.
        assert_eq!(net.all_halted(), net.active_count() == 0);
    }

    #[test]
    fn identical_seeds_reproduce_fault_schedules_exactly() {
        let g = generators::complete(8).unwrap();
        let cfg = ExecConfig {
            latency: LatencyDist::Geometric { p: 0.5 },
            faults: FaultSpec {
                drop: 0.2,
                duplicate: 0.1,
                crash: 0.2,
                crash_window: 4,
            },
        };
        let run = |seed: u64| {
            let mut net = pulse_net(&g, cfg, seed);
            net.enable_trace();
            net.run_for(20).unwrap();
            (net.outputs(), net.metrics_snapshot(), net.trace().to_vec())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds must diverge");
    }

    #[test]
    fn invalid_config_is_rejected_loudly() {
        let cases = [
            ExecConfig {
                faults: FaultSpec {
                    drop: 1.5,
                    ..FaultSpec::default()
                },
                ..ExecConfig::default()
            },
            ExecConfig {
                faults: FaultSpec {
                    duplicate: -0.1,
                    ..FaultSpec::default()
                },
                ..ExecConfig::default()
            },
            ExecConfig {
                latency: LatencyDist::Uniform { min: 0, max: 3 },
                ..ExecConfig::default()
            },
            ExecConfig {
                latency: LatencyDist::Uniform { min: 5, max: 2 },
                ..ExecConfig::default()
            },
            ExecConfig {
                latency: LatencyDist::Geometric { p: 0.0 },
                ..ExecConfig::default()
            },
            ExecConfig {
                faults: FaultSpec {
                    crash: 0.5,
                    crash_window: 0,
                    ..FaultSpec::default()
                },
                ..ExecConfig::default()
            },
        ];
        for cfg in cases {
            assert!(
                matches!(cfg.validate(), Err(CongestError::BadExecConfig { .. })),
                "{cfg:?} must be rejected"
            );
        }
        assert!(ExecConfig::default().validate().is_ok());
    }

    #[test]
    fn uniform_latency_is_capped_at_max_latency() {
        let uniform = |max| ExecConfig {
            latency: LatencyDist::Uniform { min: 1, max },
            ..ExecConfig::default()
        };
        assert!(uniform(MAX_LATENCY).validate().is_ok());
        let err = uniform(MAX_LATENCY + 1).validate().unwrap_err();
        assert!(matches!(err, CongestError::BadExecConfig { .. }));
        assert!(err.to_string().contains("MAX_LATENCY (64)"), "{err}");
    }

    #[test]
    fn ring_capacity_tracks_the_messages_in_flight() {
        // Without the shrink rule every slot keeps one tick's peak
        // capacity: 60x the peak in-flight count under geometric latency.
        let g = generators::grid2d(32, 32, true).unwrap();
        for latency in [
            LatencyDist::Uniform { min: 1, max: 64 },
            LatencyDist::Geometric { p: 0.5 },
        ] {
            let config = ExecConfig {
                latency,
                ..ExecConfig::default()
            };
            let mut net = AsyncNetwork::from_fn_with(&g, 1, 64, config, |_, _| Pulse {
                left: 300,
                heard: 0,
            })
            .expect("valid config");
            let (mut peak_cap, mut peak_in_flight) = (0, 0);
            for _ in 0..300 {
                net.step().unwrap();
                peak_cap = peak_cap.max(net.policy.buffer_cap(0));
                peak_in_flight = peak_in_flight.max(net.in_flight());
            }
            assert!(
                peak_cap <= 3 * peak_in_flight,
                "{latency:?}: ring capacity {peak_cap} for {peak_in_flight} in flight"
            );
        }
    }
}
