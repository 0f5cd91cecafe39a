//! # ale-markov — Markov-chain and linear-algebra substrate
//!
//! Finite Markov chains on CSR sparse matrices, mixing times, and the
//! dense linear algebra of the exact oracles —
//! the mathematical substrate behind the graph properties (`ale-graph`) and
//! protocol analyses (`ale-core`) of this workspace's reproduction of
//! Kowalski & Mosteiro, *Time and Communication Complexity of Leader
//! Election in Anonymous Networks* (ICDCS 2021).
//!
//! The paper's algorithms take the network's mixing time `t_mix` and
//! conductance `Φ` as inputs (Theorem 1) and its analysis reasons about the
//! diffusion matrix of the `Avg` procedure (Lemmas 3–4). This crate provides
//! those chains and their mixing times; the cut oracles for `Φ` and `i(G)`
//! live in `ale_graph::cuts`.
//!
//! Every [`MarkovChain`] stores its transition matrix as a [`CsrMatrix`]:
//! a chain step costs `O(nnz)` — `O(m)` on an `m`-edge graph — which is
//! what lets the scenario sweeps reach tens of thousands of nodes. The
//! dense [`Matrix`] is the arithmetic of the two algorithms whose work is
//! a dense product: exact mixing
//! ([`mixing::mixing_time_exact`] raises the chain to powers) and Jacobi
//! eigendecomposition ([`spectral::jacobi_eigen`], the test oracle for the
//! sparse `λ₂`). The harness's `λ₂`, spectral gap and spectral `t_mix`
//! bound live in `ale_graph::spectral_sparse`.
//!
//! ## Quickstart
//!
//! ```
//! use ale_markov::{MarkovChain, mixing, spectral};
//!
//! // Lazy random walk on the 4-cycle.
//! let adj: Vec<Vec<usize>> = (0..4).map(|i| vec![(i + 3) % 4, (i + 1) % 4]).collect();
//! let chain = MarkovChain::lazy_random_walk(&adj)?;
//!
//! let t_mix = mixing::mixing_time_exact(&chain, 1 << 20)?;
//! assert!(t_mix >= 1);
//! // The cycle is vertex-transitive: one O(m)-per-step walk from any
//! // start gives the same value.
//! assert_eq!(mixing::mixing_time_from_state(&chain, 0, 1 << 20)?, t_mix);
//!
//! // λ₂ from the Jacobi oracle on the dense form (lazy C4: 1/2).
//! let eig = spectral::jacobi_eigen(&chain.transition().to_dense(), 200)?;
//! assert!((eig.values[1] - 0.5).abs() < 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod error;
pub mod matrix;
pub mod mixing;
pub mod spectral;

pub use chain::MarkovChain;
pub use error::MarkovError;
pub use matrix::{vecops, CsrMatrix, Matrix};
pub use spectral::Eigen;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matrix>();
        assert_send_sync::<CsrMatrix>();
        assert_send_sync::<MarkovChain>();
        assert_send_sync::<MarkovError>();
        assert_send_sync::<Eigen>();
    }
}
