//! # ale-core — leader election in anonymous networks
//!
//! Production-quality implementations of the two protocols of
//! Kowalski & Mosteiro, *Time and Communication Complexity of Leader
//! Election in Anonymous Networks* (ICDCS 2021, arXiv:2101.04400):
//!
//! * [`irrevocable`] — **known network size** (Section 4, Theorem 1):
//!   candidates span bounded territories with *cautious broadcast*, probe
//!   them with random walks, and convergecast the largest random ID;
//!   `Õ(√(n·t_mix/Φ))` messages, `O(t_mix·log² n)` rounds, whp-unique
//!   leader.
//! * [`revocable`] — **unknown network size** (Section 5, Theorem 3 /
//!   Corollary 1): irrevocable election is impossible without `n`
//!   (Theorem 2), so nodes probe doubling size estimates with a diffusion-
//!   with-thresholds certification and elect the smallest ID under the
//!   largest certificate, revocably.
//!
//! Both run on the anonymous CONGEST simulator of
//! [`ale_congest`] over graphs from [`ale_graph`].
//!
//! ## Quickstart
//!
//! ```
//! use ale_core::irrevocable::{run_irrevocable, IrrevocableConfig};
//! use ale_graph::Topology;
//!
//! let topo = Topology::Hypercube { dim: 3 };
//! let g = topo.build(0)?;
//! let cfg = IrrevocableConfig::derive_for(&g, &topo)?;
//! let outcome = run_irrevocable(&g, &cfg, 1)?;
//! assert_eq!(outcome.leader_count(), 1);
//! println!(
//!     "elected node {} using {} messages in {} rounds",
//!     outcome.unique_leader().unwrap(),
//!     outcome.metrics.messages,
//!     outcome.metrics.rounds,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod irrevocable;
pub mod outcome;
pub mod revocable;

pub use error::CoreError;
pub use outcome::{run_lockstep, ElectionOutcome, SuccessStats};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
        assert_send_sync::<ElectionOutcome>();
        assert_send_sync::<irrevocable::IrrevocableConfig>();
        assert_send_sync::<irrevocable::IrrevocableProcess>();
        assert_send_sync::<revocable::RevocableParams>();
        assert_send_sync::<revocable::RevocableProcess>();
    }
}
