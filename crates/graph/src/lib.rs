//! # ale-graph — anonymous-network graph substrate
//!
//! Topologies, port numberings, and the graph quantities the paper's
//! protocols consume: conductance `Φ(G)`, isoperimetric number `i(G)`,
//! mixing time `t_mix`, and diameter.
//!
//! The central type is [`Graph`]: a simple connected undirected graph where
//! nodes address neighbors **only through ports** — the anonymity model of
//! Kowalski & Mosteiro (ICDCS 2021), Section 2. Generators for the paper's
//! experiment families live in [`generators`] (see [`Topology`]), exact cut
//! oracles in [`cuts`], scalable spectral estimates in [`spectral_sparse`],
//! closed forms in [`analytic`], sparse `Graph → CsrMatrix` transition
//! constructors in [`transition`] (the `O(m)`-per-step path behind the
//! large-n sweeps), and the aggregated [`props::GraphProps`] /
//! [`props::NetworkKnowledge`] bundles feed the protocols.
//!
//! ## Quickstart
//!
//! ```
//! use ale_graph::{Topology, props::GraphProps};
//!
//! let topo = Topology::Hypercube { dim: 4 };
//! let g = topo.build(0)?;
//! let props = GraphProps::compute_for(&g, &topo)?;
//! assert_eq!(props.n, 16);
//! assert!(props.conductance.value > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod cuts;
pub mod error;
pub mod generators;
#[allow(clippy::module_inception)]
mod graph;
pub mod implicit;
pub mod props;
pub mod spectral_sparse;
pub mod transition;

pub use error::GraphError;
pub use generators::{Topology, IMPLICIT_THRESHOLD};
pub use graph::{Graph, Neighbors, NodeId, Port};
pub use implicit::ImplicitTopology;
pub use props::{GraphProps, NetworkKnowledge};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
        assert_send_sync::<Topology>();
        assert_send_sync::<GraphProps>();
        assert_send_sync::<NetworkKnowledge>();
        assert_send_sync::<GraphError>();
    }
}
