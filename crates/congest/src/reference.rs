//! The slow, obviously-correct reference engine.
//!
//! [`ReferenceNetwork`] executes exactly the algorithm the simulator used
//! before the flat-arena engine landed: every node's sends are collected
//! into a plain `Vec` ([`OutCtx::collector`]), validated entry by entry
//! against a per-node `vec![false; degree]`, staged into `n` separate
//! per-receiver `Vec`s, and metered in a commit-phase rescan; halted nodes
//! are skipped by polling all `n` processes each round.
//!
//! It exists for two reasons:
//!
//! * **equivalence testing** — `crates/congest/tests/equivalence.rs` pins
//!   that both delivery policies, the lockstep arena and the event queue
//!   at unit latency with zero faults, are observationally identical to
//!   it (step results, outputs, metrics, per-round traces) on seeded
//!   graphs, including mid-run halts and the invalid-port drop-the-round
//!   path. It never skips a round: its `run_*` methods call every process
//!   in every round and ignore [`Process::quiet_until`], which is what
//!   lets `tests/quiet_rounds.rs` check the arena's
//!   [quiet-round fast-forward](crate::network#quiet-round-fast-forward);
//! * **benchmarking** — `ale-lab bench`'s simulator suite times the arena
//!   and the event queue against this baseline
//!   (`dense-gossip-100-rounds/reference/N` and the `mostly-halted-*`
//!   cases in `BENCH_simulator.json`).
//!
//! Do not use it for experiments: it allocates per node per round and
//! scans all `n` nodes even when almost everything has halted. It is kept
//! deliberately naive.

use crate::error::CongestError;
use crate::metrics::{Metrics, RoundInfo, RoundTrace};
use crate::network::{node_rngs, RunStatus};
use crate::process::{Incoming, NodeCtx, OutCtx, Process};
use crate::trace::{TraceSink, TraceSlot};
use ale_graph::Graph;
use rand::rngs::StdRng;

/// The pre-arena engine: per-node staging `Vec`s, commit-phase metering,
/// O(n) halt polling. Same observable behavior as
/// [`Network`](crate::network::Network), kept as the equivalence oracle.
#[derive(Debug)]
pub struct ReferenceNetwork<'g, P: Process> {
    graph: &'g Graph,
    procs: Vec<P>,
    rngs: Vec<StdRng>,
    round: u64,
    metrics: Metrics,
    inboxes: Vec<Vec<Incoming<P::Msg>>>,
    staging: Vec<Vec<Incoming<P::Msg>>>,
    outbox: Vec<(usize, P::Msg)>,
    trace: Option<Vec<RoundTrace>>,
    sink: TraceSlot,
}

impl<'g, P: Process> ReferenceNetwork<'g, P> {
    /// Wires explicit process instances to the graph's nodes (the
    /// reference twin of [`Network::new`](crate::network::Network::new) —
    /// identical seeding, so runs are comparable trace for trace).
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
        if procs.len() != graph.n() {
            return Err(CongestError::ProcessCountMismatch {
                nodes: graph.n(),
                processes: procs.len(),
            });
        }
        let rngs = node_rngs(graph.n(), seed);
        Ok(Self::build(graph, procs, rngs, budget_bits))
    }

    /// Builds one process per node with the factory `f` (the reference
    /// twin of [`Network::from_fn`](crate::network::Network::from_fn)).
    pub fn from_fn<F>(graph: &'g Graph, seed: u64, budget_bits: usize, mut f: F) -> Self
    where
        F: FnMut(usize, &mut StdRng) -> P,
    {
        let n = graph.n();
        let mut rngs = node_rngs(n, seed);
        let procs = (0..n).map(|v| f(graph.degree(v), &mut rngs[v])).collect();
        Self::build(graph, procs, rngs, budget_bits)
    }

    fn build(graph: &'g Graph, procs: Vec<P>, rngs: Vec<StdRng>, budget_bits: usize) -> Self {
        let n = graph.n();
        ReferenceNetwork {
            graph,
            procs,
            rngs,
            round: 0,
            metrics: Metrics::new(budget_bits),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            staging: (0..n).map(|_| Vec::new()).collect(),
            outbox: Vec::new(),
            trace: None,
            sink: TraceSlot::attach(),
        }
    }

    /// Starts recording per-round statistics from the next step on.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded per-round trace (empty unless
    /// [`ReferenceNetwork::enable_trace`] was called).
    pub fn trace(&self) -> &[RoundTrace] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Attaches a streaming per-round observer (the reference twin of
    /// [`Network::set_trace_sink`](crate::network::Network::set_trace_sink)).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink.replace(sink, &self.metrics);
    }

    /// Executes one synchronous round with the pre-arena algorithm.
    ///
    /// # Errors
    ///
    /// [`CongestError::InvalidPort`] on a protocol bug, dropping the whole
    /// round exactly as the arena engine does.
    pub fn step(&mut self) -> Result<(), CongestError> {
        use crate::message::Payload;

        let n = self.graph.n();
        debug_assert!(self.staging.iter().all(Vec::is_empty));

        let mut failure = None;
        'nodes: for v in 0..n {
            if self.procs[v].is_halted() {
                self.inboxes[v].clear();
                continue;
            }
            let degree = self.graph.degree(v);
            let mut ctx = NodeCtx {
                degree,
                round: self.round,
                rng: &mut self.rngs[v],
            };
            self.outbox.clear();
            let mut out = OutCtx::collector(degree, &mut self.outbox);
            self.procs[v].round(&mut ctx, &self.inboxes[v], &mut out);
            let mut used_ports = vec![false; degree];
            for (port, msg) in self.outbox.drain(..) {
                if port >= degree {
                    failure = Some(CongestError::InvalidPort {
                        node: v,
                        port,
                        degree,
                    });
                    break 'nodes;
                }
                if used_ports[port] {
                    self.metrics.record_multi_send();
                } else {
                    used_ports[port] = true;
                }
                let target = self.graph.port_target(v, port);
                let arrival = self.graph.reverse_port(v, port);
                self.staging[target].push(Incoming { port: arrival, msg });
            }
        }
        if let Some(e) = failure {
            self.outbox.clear();
            for staged in &mut self.staging {
                staged.clear();
            }
            return Err(e);
        }

        // Commit: meter the staged deliveries, then recycle buffers.
        let mut max_bits_this_round = 0usize;
        let mut messages_this_round = 0u64;
        let mut bits_this_round = 0u64;
        for staged in &self.staging {
            for incoming in staged {
                let bits = incoming.msg.bit_size();
                max_bits_this_round = max_bits_this_round.max(bits);
                messages_this_round += 1;
                bits_this_round += bits as u64;
                self.metrics.record_message(bits);
            }
        }
        self.metrics.record_step(max_bits_this_round);
        if let Some(trace) = self.trace.as_mut() {
            trace.push(RoundTrace {
                round: self.round,
                messages: messages_this_round,
                bits: bits_this_round,
                max_bits: max_bits_this_round,
            });
        }
        self.sink.on_round(&RoundInfo {
            round: self.round,
            messages: messages_this_round,
            bits: bits_this_round,
            max_bits: max_bits_this_round,
            active: self.procs.iter().filter(|p| !p.is_halted()).count(),
            buffer_cap: self.outbox.capacity(),
        });
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        std::mem::swap(&mut self.inboxes, &mut self.staging);
        self.round += 1;
        Ok(())
    }

    /// Runs until every process halts, up to `max_rounds`.
    ///
    /// # Errors
    ///
    /// Propagates [`ReferenceNetwork::step`] errors.
    pub fn run_to_halt(&mut self, max_rounds: u64) -> Result<RunStatus, CongestError> {
        let start = self.round;
        loop {
            if self.all_halted() {
                return Ok(RunStatus::AllHalted);
            }
            if self.round - start >= max_rounds {
                return Ok(RunStatus::RoundLimit);
            }
            self.step()?;
        }
    }

    /// Runs exactly `rounds` rounds (or stops early if all halt).
    ///
    /// # Errors
    ///
    /// Propagates [`ReferenceNetwork::step`] errors.
    pub fn run_for(&mut self, rounds: u64) -> Result<RunStatus, CongestError> {
        let target = self.round + rounds;
        while self.round < target {
            if self.all_halted() {
                return Ok(RunStatus::AllHalted);
            }
            self.step()?;
        }
        Ok(RunStatus::RoundLimit)
    }

    /// True when every process reports halted — O(n) by design (the
    /// arena engine's O(1) active set is one of the things it replaces).
    pub fn all_halted(&self) -> bool {
        self.procs.iter().all(Process::is_halted)
    }

    /// Current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Outputs of all processes, indexed by host-side node id.
    pub fn outputs(&self) -> Vec<P::Output> {
        self.procs.iter().map(Process::output).collect()
    }

    /// Borrows all processes (same inspection surface as the other
    /// engines, so engine-generic tests can dispatch over all three).
    pub fn processes(&self) -> &[P] {
        &self.procs
    }

    /// Borrows the accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// A point-in-time copy of the metrics.
    pub fn metrics_snapshot(&self) -> Metrics {
        self.metrics.snapshot()
    }
}

impl<P: Process> Drop for ReferenceNetwork<'_, P> {
    fn drop(&mut self) {
        self.sink.finish(&self.metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ale_graph::generators;

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
            self.heard += inbox.len() as u64;
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

    #[test]
    fn reference_engine_runs_and_meters() {
        let g = generators::cycle(5).unwrap();
        let mut net = ReferenceNetwork::from_fn(&g, 1, 64, |_, _| Pulse { left: 2, heard: 0 });
        net.enable_trace();
        let status = net.run_to_halt(10).unwrap();
        assert_eq!(status, RunStatus::AllHalted);
        assert_eq!(net.metrics().messages, 5 * 2 * 2);
        assert_eq!(net.trace().len() as u64, net.metrics().rounds);
    }
}
