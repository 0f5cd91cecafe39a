//! # ale-congest — anonymous CONGEST simulator
//!
//! A discrete simulator of the model in Section 2 of Kowalski & Mosteiro
//! (ICDCS 2021): a connected undirected network of **anonymous** nodes
//! with port-numbered links, globally synchronous rounds, reliable
//! communication, and an `O(log n)`-bit per-link-per-round CONGEST
//! budget — plus an event-queue delivery policy that relaxes the
//! synchrony and reliability assumptions behind the same [`Process`]
//! trait, for measuring degradation off the model.
//!
//! * [`Process`] — one node's protocol state machine; sees only its degree,
//!   the round number, port-tagged messages, and private randomness.
//! * [`OutCtx`] — the send handle: every send is validated, metered, and
//!   handed to the delivery policy at the moment it happens, on one path
//!   for every policy (see the [`process`] module docs for the `Outbox` →
//!   `OutCtx` migration).
//! * [`Driver`] — the one engine driver: wires processes to a graph and
//!   drives rounds on zero-allocation per-receiver inbox regions (and,
//!   under lockstep, broadcasts posted once per dense round), generic
//!   over a sealed [`Delivery`] policy (see the [`network`] module docs
//!   for the compute → send → commit pipeline and the engine
//!   invariants). It has two names:
//!   * [`Network`] — the driver under [`network::Lockstep`] delivery,
//!     exactly the synchronous model;
//!   * [`AsyncNetwork`] — the driver under [`async_net::Events`] delivery:
//!     per-message link latencies and a crash/drop/duplicate adversary
//!     ([`ExecConfig`]), byte-identical to [`Network`] at unit latency with
//!     zero faults.
//! * [`reference::ReferenceNetwork`] — the slow pre-arena engine, kept as
//!   the equivalence oracle and benchmark baseline.
//! * [`Metrics`] — rounds, CONGEST-charged rounds, messages, and bits; the
//!   units Theorems 1 and 3 of the paper bound. Bit-level metering is what
//!   lets runs be compared against bit-round bounds from the literature.
//!
//! ## Quickstart
//!
//! ```
//! use ale_congest::{Network, Process, NodeCtx, Inbox, OutCtx};
//! use ale_graph::generators;
//!
//! /// Every node forwards the maximum value it has seen for 3 rounds.
//! #[derive(Debug)]
//! struct Max(u64, u64);
//! impl Process for Max {
//!     type Msg = u64;
//!     type Output = u64;
//!     fn round(&mut self, _ctx: &mut NodeCtx<'_>, inbox: Inbox<'_, u64>, out: &mut OutCtx<'_, u64>) {
//!         for m in inbox { self.0 = self.0.max(m.msg); }
//!         if self.1 == 0 { return; }
//!         self.1 -= 1;
//!         out.broadcast(self.0);
//!     }
//!     fn is_halted(&self) -> bool { self.1 == 0 }
//!     fn output(&self) -> u64 { self.0 }
//! }
//!
//! let g = generators::complete(4)?;
//! let mut net = Network::from_fn(&g, 0, 32, |_d, _rng| Max(7, 3));
//! net.run_to_halt(10)?;
//! assert!(net.outputs().iter().all(|&v| v == 7));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod async_net;
pub mod error;
pub mod message;
pub mod metrics;
pub mod network;
pub mod process;
pub mod reference;
pub mod testkit;
pub mod trace;

pub use async_net::{AsyncNetwork, ExecConfig, FaultSpec, LatencyDist, MAX_LATENCY};
pub use error::CongestError;
pub use message::{congest_budget, Payload};
pub use metrics::{Metrics, RoundInfo, RoundTrace};
pub use network::{splitmix64, Delivery, Driver, Network, RunStatus};
pub use process::{Inbox, Incoming, NodeCtx, OutCtx, Process};
pub use reference::ReferenceNetwork;
pub use testkit::{AnyNetwork, EngineKind};
pub use trace::{clear_trace_factory, install_trace_factory, TraceSink};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn error_and_metrics_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CongestError>();
        assert_send_sync::<Metrics>();
        assert_send_sync::<RunStatus>();
    }
}
