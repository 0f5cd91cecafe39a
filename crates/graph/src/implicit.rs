//! Implicit (computed) topologies: O(1) graph memory for regular families.
//!
//! An [`ImplicitTopology`] stores only its parameters — neighbors, port
//! targets, and reverse ports are *computed* on demand instead of being
//! materialized into per-node adjacency tables. [`crate::Graph`] wraps one
//! behind the same API as an explicitly built graph
//! ([`crate::Graph::from_implicit`]), so the CONGEST engine and every
//! analysis pass run unchanged while graph memory stays constant in `n`.
//! This is what makes million-node ladders fit on one box: a
//! 1000×1000 torus costs a few machine words instead of hundreds of
//! megabytes of adjacency vectors.
//!
//! The port numberings are **bit-identical** to the explicit builders in
//! [`crate::generators`]: for rings, tori, and hypercubes the formulas
//! below reproduce exactly the port order that `Graph::from_edges` derives
//! from each generator's edge-emission sequence (pinned by
//! `crates/graph/tests/implicit_equivalence.rs`). Cube-connected cycles are
//! defined here first and the explicit builder materializes the formulas,
//! so the two backends agree by construction.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId, Port};

/// A topology whose structure is computed from parameters, never stored.
///
/// All families here are vertex-regular with degree ≤ `dim`, connected by
/// construction, and simple. See the module docs for the port-numbering
/// contract with the explicit builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplicitTopology {
    /// A cycle on `n ≥ 3` nodes (degree 2).
    Ring {
        /// Number of nodes.
        n: usize,
    },
    /// A `rows × cols` torus, both ≥ 3 (degree 4).
    Torus {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A `dim`-dimensional hypercube, `1 ≤ dim ≤ 24` (degree `dim`).
    Hypercube {
        /// Dimension; `n = 2^dim`.
        dim: usize,
    },
    /// Cube-connected cycles of dimension `3 ≤ dim ≤ 26`: each hypercube
    /// corner is replaced by a `dim`-cycle, giving a constant-degree-3
    /// network on `n = dim · 2^dim` nodes — the ladder's bounded-degree
    /// family at sizes where the pairing-model expander is too expensive
    /// to build explicitly.
    Ccc {
        /// Dimension; `n = dim · 2^dim`.
        dim: usize,
    },
}

/// Ports of node `v` on a ring, in the order `Graph::from_edges` derives
/// from the cycle generator's emission `(0,1), (1,2), …, (n-1,0)`.
fn ring_ports(n: usize, v: usize) -> [usize; 2] {
    if v == 0 {
        [1, n - 1]
    } else {
        [v - 1, (v + 1) % n]
    }
}

/// Ports of node `v` on a torus, matching the grid generator's
/// row-major east-then-south edge emission with wraparound.
fn torus_ports(rows: usize, cols: usize, v: usize) -> [usize; 4] {
    let (r, c) = (v / cols, v % cols);
    let north = ((r + rows - 1) % rows) * cols + c;
    let south = ((r + 1) % rows) * cols + c;
    let west = r * cols + (c + cols - 1) % cols;
    let east = r * cols + (c + 1) % cols;
    // Port order = order the node's incident edges appear in the
    // generator's emission; wrap edges are emitted by the far cell, which
    // pushes them behind the node's own east/south slots.
    match (r == 0, c == 0) {
        (false, false) => [north, west, east, south],
        (false, true) => [north, east, south, west],
        (true, false) => [west, east, south, north],
        (true, true) => [east, south, west, north],
    }
}

/// The flipped bit for port `p` of hypercube node `w`.
///
/// The generator emits `(u, u ^ 2^b)` for ascending `u` then ascending
/// `b` (only when `u < v`), so `w`'s ports list set bits descending
/// (edges emitted by smaller partners) before clear bits ascending
/// (edges emitted by `w` itself).
fn hypercube_port_bit(dim: usize, w: usize, p: usize) -> usize {
    let s = w.count_ones() as usize;
    if p < s {
        let mut seen = 0;
        for b in (0..dim).rev() {
            if (w >> b) & 1 == 1 {
                if seen == p {
                    return b;
                }
                seen += 1;
            }
        }
    } else {
        let mut remaining = p - s;
        for b in 0..dim {
            if (w >> b) & 1 == 0 {
                if remaining == 0 {
                    return b;
                }
                remaining -= 1;
            }
        }
    }
    panic!("port {p} out of range for hypercube node {w} (dim {dim})");
}

/// The port at `u = w ^ 2^b` that leads back to `w` (closed form).
fn hypercube_reverse(u: usize, b: usize) -> usize {
    if (u >> b) & 1 == 1 {
        // Bit `b` is set in `u`: its edge sits in the set-bits-descending
        // prefix, at the index counting set bits above `b`.
        (u >> (b + 1)).count_ones() as usize
    } else {
        // Clear in `u`: offset past all set bits, then clear bits below `b`.
        u.count_ones() as usize + b - (u & ((1 << b) - 1)).count_ones() as usize
    }
}

impl ImplicitTopology {
    /// Validates the family parameters (same constraints as the explicit
    /// generators).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] when the parameters violate the
    /// family's constraints (see the variant docs).
    pub fn validate(&self) -> Result<(), GraphError> {
        let bad = |reason: String| Err(GraphError::InvalidParameters { reason });
        match *self {
            ImplicitTopology::Ring { n } if n < 3 => bad(format!("ring needs n >= 3, got {n}")),
            ImplicitTopology::Torus { rows, cols } if rows < 3 || cols < 3 => {
                bad(format!("torus needs rows, cols >= 3, got {rows}x{cols}"))
            }
            ImplicitTopology::Torus { rows, cols }
                if rows
                    .checked_mul(cols)
                    .and_then(|n| n.checked_mul(2))
                    .is_none() =>
            {
                bad(format!("torus {rows}x{cols} has too many edges for usize"))
            }
            ImplicitTopology::Hypercube { dim } if !(1..=24).contains(&dim) => {
                bad(format!("hypercube dim must be in 1..=24, got {dim}"))
            }
            ImplicitTopology::Ccc { dim } if !(3..=26).contains(&dim) => {
                bad(format!("ccc dim must be in 3..=26, got {dim}"))
            }
            _ => Ok(()),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        match *self {
            ImplicitTopology::Ring { n } => n,
            ImplicitTopology::Torus { rows, cols } => rows * cols,
            ImplicitTopology::Hypercube { dim } => 1 << dim,
            ImplicitTopology::Ccc { dim } => dim << dim,
        }
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        match *self {
            ImplicitTopology::Ring { n } => n,
            ImplicitTopology::Torus { rows, cols } => 2 * rows * cols,
            ImplicitTopology::Hypercube { dim } => dim * (1 << dim) / 2,
            // dim·2^dim cycle edges plus 2^dim·dim/2 cross edges.
            ImplicitTopology::Ccc { dim } => (dim << dim) + (dim << dim) / 2,
        }
    }

    /// Degree of node `v` (these families are vertex-regular).
    pub fn degree(&self, v: NodeId) -> usize {
        debug_assert!(v < self.n(), "node {v} out of range");
        let _ = v;
        match *self {
            ImplicitTopology::Ring { .. } => 2,
            ImplicitTopology::Torus { .. } => 4,
            ImplicitTopology::Hypercube { dim } => dim,
            ImplicitTopology::Ccc { .. } => 3,
        }
    }

    /// Maximum degree (O(1); equals every node's degree).
    pub fn max_degree(&self) -> usize {
        self.degree(0)
    }

    /// The node reached from `v` through port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    pub fn port_target(&self, v: NodeId, p: Port) -> NodeId {
        assert!(v < self.n(), "node {v} out of range");
        match *self {
            ImplicitTopology::Ring { n } => ring_ports(n, v)[p],
            ImplicitTopology::Torus { rows, cols } => torus_ports(rows, cols, v)[p],
            ImplicitTopology::Hypercube { dim } => v ^ (1 << hypercube_port_bit(dim, v, p)),
            ImplicitTopology::Ccc { dim } => {
                let (w, i) = (v / dim, v % dim);
                match p {
                    0 => w * dim + (i + dim - 1) % dim,
                    1 => w * dim + (i + 1) % dim,
                    2 => (w ^ (1 << i)) * dim + i,
                    _ => panic!("port {p} out of range for ccc node {v}"),
                }
            }
        }
    }

    /// The port at `port_target(v, p)` that leads back to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    pub fn reverse_port(&self, v: NodeId, p: Port) -> Port {
        self.port_and_reverse(v, p).1
    }

    /// Fused `(port_target, reverse_port)` lookup — the engine's hot path
    /// resolves both in one pass.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    pub fn port_and_reverse(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        assert!(v < self.n(), "node {v} out of range");
        match *self {
            ImplicitTopology::Ring { n } => {
                let t = ring_ports(n, v)[p];
                let back = ring_ports(n, t);
                (t, if back[0] == v { 0 } else { 1 })
            }
            ImplicitTopology::Torus { rows, cols } => {
                let t = torus_ports(rows, cols, v)[p];
                let back = torus_ports(rows, cols, t);
                let q = back
                    .iter()
                    .position(|&u| u == v)
                    .expect("torus adjacency is symmetric");
                (t, q)
            }
            ImplicitTopology::Hypercube { dim } => {
                let b = hypercube_port_bit(dim, v, p);
                let t = v ^ (1 << b);
                (t, hypercube_reverse(t, b))
            }
            // Cycle predecessor/successor ports reverse to each other; the
            // cross edge keeps the same position `i` on both rings.
            ImplicitTopology::Ccc { .. } => (self.port_target(v, p), [1, 0, 2][p]),
        }
    }

    /// Materializes the family into an explicitly stored [`Graph`] with
    /// **identical** port numbering — the equivalence oracle for the
    /// implicit formulas, and the path taken when an algorithm genuinely
    /// needs stored adjacency (e.g. port shuffling).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the parameters are invalid.
    pub fn materialize(&self) -> Result<Graph, GraphError> {
        self.validate()?;
        let n = self.n();
        let mut ports: Vec<Vec<NodeId>> = Vec::with_capacity(n);
        let mut reverse: Vec<Vec<Port>> = Vec::with_capacity(n);
        for v in 0..n {
            let d = self.degree(v);
            let mut pv = Vec::with_capacity(d);
            let mut rv = Vec::with_capacity(d);
            for p in 0..d {
                let (t, q) = self.port_and_reverse(v, p);
                pv.push(t);
                rv.push(q);
            }
            ports.push(pv);
            reverse.push(rv);
        }
        Ok(Graph::from_port_tables(ports, reverse, self.m()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<ImplicitTopology> {
        vec![
            ImplicitTopology::Ring { n: 7 },
            ImplicitTopology::Torus { rows: 3, cols: 5 },
            ImplicitTopology::Hypercube { dim: 4 },
            ImplicitTopology::Ccc { dim: 3 },
        ]
    }

    #[test]
    fn validates_parameters() {
        assert!(ImplicitTopology::Ring { n: 2 }.validate().is_err());
        assert!(ImplicitTopology::Torus { rows: 2, cols: 5 }
            .validate()
            .is_err());
        assert!(ImplicitTopology::Hypercube { dim: 0 }.validate().is_err());
        assert!(ImplicitTopology::Hypercube { dim: 25 }.validate().is_err());
        assert!(ImplicitTopology::Ccc { dim: 2 }.validate().is_err());
        for t in all() {
            assert!(t.validate().is_ok(), "{t:?}");
        }
    }

    #[test]
    fn degree_sum_matches_edge_count() {
        for t in all() {
            let sum: usize = (0..t.n()).map(|v| t.degree(v)).sum();
            assert_eq!(sum, 2 * t.m(), "{t:?}");
        }
    }

    #[test]
    fn reverse_ports_are_involutions() {
        for t in all() {
            for v in 0..t.n() {
                for p in 0..t.degree(v) {
                    let (u, q) = t.port_and_reverse(v, p);
                    assert_ne!(u, v, "{t:?}: self-loop at {v}");
                    assert_eq!(t.port_target(u, q), v, "{t:?}: reverse leads back");
                    assert_eq!(t.reverse_port(u, q), p, "{t:?}: reverse is an involution");
                }
            }
        }
    }

    #[test]
    fn neighbors_are_simple() {
        for t in all() {
            for v in 0..t.n() {
                let mut nbrs: Vec<_> = (0..t.degree(v)).map(|p| t.port_target(v, p)).collect();
                nbrs.sort_unstable();
                let before = nbrs.len();
                nbrs.dedup();
                assert_eq!(before, nbrs.len(), "{t:?}: multi-edge at {v}");
            }
        }
    }

    #[test]
    fn materialized_graph_is_connected_and_consistent() {
        for t in all() {
            let g = t.materialize().unwrap();
            assert_eq!(g.n(), t.n(), "{t:?}");
            assert_eq!(g.m(), t.m(), "{t:?}");
            assert!(g.is_connected(), "{t:?}");
        }
    }

    #[test]
    fn ccc_structure() {
        let t = ImplicitTopology::Ccc { dim: 3 };
        assert_eq!(t.n(), 24);
        assert_eq!(t.m(), 36);
        // Node (w=0, i=1) = id 1: pred (0,0), succ (0,2), across (w=2, i=1).
        assert_eq!(t.port_target(1, 0), 0);
        assert_eq!(t.port_target(1, 1), 2);
        assert_eq!(t.port_target(1, 2), 2 * 3 + 1);
    }
}
