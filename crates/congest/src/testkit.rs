//! Engine-generic test support: one constructor, every engine.
//!
//! The crate ships three execution engines behind the same [`Process`]
//! trait — the engine driver under its two delivery policies, lockstep
//! ([`Network`]) and event queue ([`AsyncNetwork`], driven here at unit
//! latency with zero faults, the configuration under which it is
//! byte-equivalent to the others), and the reference engine
//! ([`ReferenceNetwork`]).
//! Tests that construct an engine directly silently pin themselves to one
//! of them; [`AnyNetwork`] lets the same test body loop over
//! [`EngineKind::ALL`] so every compliance or property check covers every
//! engine for free.
//!
//! This is deliberately the *common* surface: the intersection of the
//! three engines' APIs. Engine-specific knobs (fault injection, explicit
//! [`ExecConfig`]s, in-flight inspection) stay on the concrete types.

use crate::async_net::{AsyncNetwork, ExecConfig};
use crate::error::CongestError;
use crate::metrics::{Metrics, RoundTrace};
use crate::network::{Network, RunStatus};
use crate::process::Process;
use crate::reference::ReferenceNetwork;
use crate::trace::TraceSink;
use ale_graph::Graph;
use rand::rngs::StdRng;

/// Which execution engine to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The engine driver under lockstep delivery ([`Network`]).
    Arena,
    /// The slow pre-arena oracle ([`ReferenceNetwork`]).
    Reference,
    /// The engine driver under event-queue delivery ([`AsyncNetwork`]) at
    /// unit latency with zero faults — its synchronous-equivalent
    /// configuration.
    Async,
}

impl EngineKind {
    /// Every engine, for `for kind in EngineKind::ALL` test loops.
    pub const ALL: [EngineKind; 3] = [EngineKind::Arena, EngineKind::Reference, EngineKind::Async];
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Arena => "arena",
            EngineKind::Reference => "reference",
            EngineKind::Async => "async",
        })
    }
}

/// An engine chosen at runtime. Methods dispatch to the wrapped engine;
/// the surface is the intersection of the three engines' APIs.
#[derive(Debug)]
pub enum AnyNetwork<'g, P: Process> {
    /// A wrapped arena engine.
    Arena(Network<'g, P>),
    /// A wrapped reference engine.
    Reference(ReferenceNetwork<'g, P>),
    /// A wrapped asynchronous engine (unit latency, zero faults).
    Async(AsyncNetwork<'g, P>),
}

macro_rules! dispatch {
    ($self:expr, $net:ident => $body:expr) => {
        match $self {
            AnyNetwork::Arena($net) => $body,
            AnyNetwork::Reference($net) => $body,
            AnyNetwork::Async($net) => $body,
        }
    };
}

impl<'g, P: Process> AnyNetwork<'g, P> {
    /// Wires explicit process instances to the graph's nodes on the
    /// chosen engine — the engine-generic
    /// [`Network::new`](crate::network::Network::new); all engines use
    /// identical node-RNG seeding, so runs are comparable trace for trace.
    ///
    /// # Errors
    ///
    /// [`CongestError::ProcessCountMismatch`] when
    /// `procs.len() != graph.n()`.
    pub fn new(
        kind: EngineKind,
        graph: &'g Graph,
        procs: Vec<P>,
        seed: u64,
        budget_bits: usize,
    ) -> Result<Self, CongestError> {
        Ok(match kind {
            EngineKind::Arena => AnyNetwork::Arena(Network::new(graph, procs, seed, budget_bits)?),
            EngineKind::Reference => {
                AnyNetwork::Reference(ReferenceNetwork::new(graph, procs, seed, budget_bits)?)
            }
            EngineKind::Async => AnyNetwork::Async(AsyncNetwork::new_with(
                graph,
                procs,
                seed,
                budget_bits,
                ExecConfig::default(),
            )?),
        })
    }

    /// Builds one process per node with the factory `f` on the chosen
    /// engine — the engine-generic
    /// [`Network::from_fn`](crate::network::Network::from_fn).
    pub fn from_fn<F>(
        kind: EngineKind,
        graph: &'g Graph,
        seed: u64,
        budget_bits: usize,
        f: F,
    ) -> Self
    where
        F: FnMut(usize, &mut StdRng) -> P,
    {
        match kind {
            EngineKind::Arena => AnyNetwork::Arena(Network::from_fn(graph, seed, budget_bits, f)),
            EngineKind::Reference => {
                AnyNetwork::Reference(ReferenceNetwork::from_fn(graph, seed, budget_bits, f))
            }
            EngineKind::Async => {
                AnyNetwork::Async(AsyncNetwork::from_fn(graph, seed, budget_bits, f))
            }
        }
    }

    /// Starts recording per-round statistics from the next step on.
    pub fn enable_trace(&mut self) {
        dispatch!(self, net => net.enable_trace())
    }

    /// The recorded per-round trace.
    pub fn trace(&self) -> &[RoundTrace] {
        dispatch!(self, net => net.trace())
    }

    /// Attaches a streaming per-round observer.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        dispatch!(self, net => net.set_trace_sink(sink))
    }

    /// Executes one round (one virtual tick on the async engine).
    ///
    /// # Errors
    ///
    /// Propagates the wrapped engine's [`CongestError`]s.
    pub fn step(&mut self) -> Result<(), CongestError> {
        dispatch!(self, net => net.step())
    }

    /// Runs until every process halts, up to `max_rounds`.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped engine's [`CongestError`]s.
    pub fn run_to_halt(&mut self, max_rounds: u64) -> Result<RunStatus, CongestError> {
        dispatch!(self, net => net.run_to_halt(max_rounds))
    }

    /// Runs exactly `rounds` rounds (or stops early if all halt).
    ///
    /// # Errors
    ///
    /// Propagates the wrapped engine's [`CongestError`]s.
    pub fn run_for(&mut self, rounds: u64) -> Result<RunStatus, CongestError> {
        dispatch!(self, net => net.run_for(rounds))
    }

    /// True when every process reports halted.
    pub fn all_halted(&self) -> bool {
        dispatch!(self, net => net.all_halted())
    }

    /// Current round number (virtual tick on the async engine).
    pub fn round(&self) -> u64 {
        dispatch!(self, net => net.round())
    }

    /// Outputs of all processes, indexed by host-side node id.
    pub fn outputs(&self) -> Vec<P::Output> {
        dispatch!(self, net => net.outputs())
    }

    /// Borrows all processes.
    pub fn processes(&self) -> &[P] {
        dispatch!(self, net => net.processes())
    }

    /// Borrows the accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        dispatch!(self, net => net.metrics())
    }

    /// A point-in-time copy of the metrics.
    pub fn metrics_snapshot(&self) -> Metrics {
        dispatch!(self, net => net.metrics_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Inbox, NodeCtx, OutCtx};
    use ale_graph::generators;

    /// Broadcasts its degree once, sums everything heard, halts.
    #[derive(Debug)]
    struct Shout {
        heard: u64,
        done: bool,
    }
    impl Process for Shout {
        type Msg = u64;
        type Output = u64;
        fn round(
            &mut self,
            ctx: &mut NodeCtx<'_>,
            inbox: Inbox<'_, u64>,
            out: &mut OutCtx<'_, u64>,
        ) {
            self.heard += inbox.iter().map(|m| m.msg).sum::<u64>();
            if ctx.round == 0 {
                out.broadcast(ctx.degree as u64);
            } else {
                self.done = true;
            }
        }
        fn is_halted(&self) -> bool {
            self.done
        }
        fn output(&self) -> u64 {
            self.heard
        }
    }

    #[test]
    fn every_engine_produces_the_same_run() {
        let g = generators::cycle(5).unwrap();
        let mut runs = Vec::new();
        for kind in EngineKind::ALL {
            let mut net = AnyNetwork::from_fn(kind, &g, 9, 64, |_, _| Shout {
                heard: 0,
                done: false,
            });
            net.enable_trace();
            assert!(
                matches!(
                    (kind, &net),
                    (EngineKind::Arena, AnyNetwork::Arena(_))
                        | (EngineKind::Reference, AnyNetwork::Reference(_))
                        | (EngineKind::Async, AnyNetwork::Async(_))
                ),
                "{kind}"
            );
            let status = net.run_to_halt(10).unwrap();
            assert_eq!(status, RunStatus::AllHalted, "{kind}");
            assert!(net.outputs().iter().all(|&h| h == 4), "{kind}");
            runs.push((net.metrics_snapshot(), net.trace().to_vec()));
        }
        assert_eq!(runs[0], runs[1], "arena vs reference");
        assert_eq!(runs[0], runs[2], "arena vs async");
    }

    #[test]
    fn new_rejects_count_mismatch_on_every_engine() {
        let g = generators::complete(4).unwrap();
        for kind in EngineKind::ALL {
            let procs = (0..2)
                .map(|_| Shout {
                    heard: 0,
                    done: false,
                })
                .collect();
            assert!(
                matches!(
                    AnyNetwork::new(kind, &g, procs, 0, 8),
                    Err(CongestError::ProcessCountMismatch {
                        nodes: 4,
                        processes: 2
                    })
                ),
                "{kind}"
            );
        }
    }
}
