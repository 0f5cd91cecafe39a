//! The core [`Graph`] type: a simple connected undirected graph with
//! per-node **port numbering**.
//!
//! The paper's model (Section 2) gives nodes no identifiers — only a local
//! labeling of their incident links ("port numbers"). The simulator and
//! protocols address neighbors exclusively through ports; node ids exist
//! only on the host side (for wiring and analysis), never inside a protocol.
//!
//! Two storage backends sit behind one API:
//!
//! * **Explicit** — a compact CSR layout (`u32` offsets/targets/reverse
//!   ports in three flat vectors), built by [`Graph::from_edges`]. Memory
//!   is ~`4·(n + 4m)` bytes, with no per-node allocations.
//! * **Implicit** — an [`ImplicitTopology`] whose neighbors and ports are
//!   computed on demand ([`Graph::from_implicit`]): O(1) graph memory for
//!   the regular ladder families (ring/torus/hypercube/CCC) at millions of
//!   nodes.
//!
//! Equality ([`PartialEq`]) is structural — same node count, edge count,
//! and per-node port lists — so an implicit graph compares equal to its
//! materialized explicit twin.

use crate::error::GraphError;
use crate::implicit::ImplicitTopology;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A node identifier, visible only to the host/simulator side.
pub type NodeId = usize;

/// A port index in `0..degree(v)`, the only way a protocol can address a
/// neighbor. (The paper numbers ports `1..=N`; we use 0-based indices.)
pub type Port = usize;

/// Compressed-sparse-row port tables: node `v`'s ports live at
/// `offsets[v]..offsets[v+1]` in `targets` (neighbor ids, port order) and
/// `reverses` (the matching return ports).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    reverses: Vec<u32>,
}

impl Csr {
    /// Flattens per-node port/reverse tables into CSR form.
    fn from_tables(ports: Vec<Vec<NodeId>>, reverse: Vec<Vec<Port>>) -> Csr {
        let n = ports.len();
        let total: usize = ports.iter().map(Vec::len).sum();
        assert!(n < u32::MAX as usize, "graph too large for u32 indexing");
        assert!(
            total < u32::MAX as usize,
            "graph too large for u32 indexing"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(total);
        let mut reverses = Vec::with_capacity(total);
        offsets.push(0u32);
        for (pv, rv) in ports.into_iter().zip(reverse) {
            targets.extend(pv.into_iter().map(|t| t as u32));
            reverses.extend(rv.into_iter().map(|q| q as u32));
            offsets.push(targets.len() as u32);
        }
        Csr {
            offsets,
            targets,
            reverses,
        }
    }

    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Start of node `v`'s port range, with the range length.
    fn range(&self, v: NodeId) -> (usize, usize) {
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        (lo, hi - lo)
    }
}

/// The storage backend behind a [`Graph`].
#[derive(Debug, Clone)]
enum Repr {
    Explicit(Csr),
    Implicit(ImplicitTopology),
}

/// A simple, connected, undirected graph with explicit port numbering.
///
/// Construction validates simplicity (no self-loops, no duplicate edges) and
/// connectivity, matching the paper's network model. Port numberings are
/// arbitrary per node and can be re-randomized with
/// [`Graph::with_shuffled_ports`] — protocol behaviour must be invariant
/// under such permutations (anonymity), which the property tests exploit.
///
/// # Examples
///
/// ```
/// use ale_graph::Graph;
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.degree(0), 2);
/// // Port p of node v leads to a neighbor; the reverse port leads back.
/// let u = g.port_target(0, 0);
/// let back = g.reverse_port(0, 0);
/// assert_eq!(g.port_target(u, back), 0);
/// # Ok::<(), ale_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    repr: Repr,
    /// Number of undirected edges.
    m: usize,
}

/// Iterator over a node's neighbors in port order (see
/// [`Graph::neighbors`]).
#[derive(Debug, Clone)]
pub struct Neighbors<'g> {
    inner: NeighborsInner<'g>,
}

#[derive(Debug, Clone)]
enum NeighborsInner<'g> {
    Slice(std::slice::Iter<'g, u32>),
    Implicit {
        topo: &'g ImplicitTopology,
        v: NodeId,
        next: Port,
        degree: usize,
    },
}

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match &mut self.inner {
            NeighborsInner::Slice(it) => it.next().map(|&t| t as usize),
            NeighborsInner::Implicit {
                topo,
                v,
                next,
                degree,
            } => {
                if *next >= *degree {
                    return None;
                }
                let t = topo.port_target(*v, *next);
                *next += 1;
                Some(t)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match &self.inner {
            NeighborsInner::Slice(it) => it.len(),
            NeighborsInner::Implicit { next, degree, .. } => degree - next,
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

impl Graph {
    /// Builds a graph from an explicit undirected edge list.
    ///
    /// Ports at each node are numbered in the order edges are supplied.
    ///
    /// # Errors
    ///
    /// * [`GraphError::InvalidParameters`] if `n == 0`.
    /// * [`GraphError::NodeOutOfRange`] for edges referencing ids `>= n`.
    /// * [`GraphError::SelfLoop`] / [`GraphError::DuplicateEdge`] for
    ///   non-simple input.
    /// * [`GraphError::Disconnected`] if the resulting graph is not
    ///   connected (the paper's model requires connectivity).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::InvalidParameters {
                reason: "graph must have at least one node".into(),
            });
        }
        let mut ports: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut reverse: Vec<Vec<Port>> = vec![Vec::new(); n];
        let mut seen = std::collections::HashSet::with_capacity(edges.len());
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                return Err(GraphError::DuplicateEdge { u, v });
            }
            // The two endpoints' new ports point at each other — reverse
            // ports fall out of the insertion order with no lookup.
            let pu = ports[u].len();
            let pv = ports[v].len();
            ports[u].push(v);
            ports[v].push(u);
            reverse[u].push(pv);
            reverse[v].push(pu);
        }
        let g = Graph::from_port_tables(ports, reverse, edges.len());
        if !g.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(g)
    }

    /// Internal constructor from consistent port/reverse tables (no
    /// validation beyond CSR flattening); used by [`Graph::from_edges`]
    /// and [`ImplicitTopology::materialize`].
    pub(crate) fn from_port_tables(
        ports: Vec<Vec<NodeId>>,
        reverse: Vec<Vec<Port>>,
        m: usize,
    ) -> Self {
        Graph {
            repr: Repr::Explicit(Csr::from_tables(ports, reverse)),
            m,
        }
    }

    /// Internal constructor: computes reverse ports from a port table.
    fn from_ports(ports: Vec<Vec<NodeId>>, m: usize) -> Result<Self, GraphError> {
        let n = ports.len();
        // For each node u and port p, find the port q at v = ports[u][p]
        // with ports[v][q] == u. Ports to the same neighbor are unique in a
        // simple graph, so a map per node keeps it O(m).
        let mut reverse: Vec<Vec<Port>> = ports.iter().map(|p| vec![usize::MAX; p.len()]).collect();
        let mut port_of: Vec<std::collections::HashMap<NodeId, Port>> =
            vec![std::collections::HashMap::new(); n];
        for (u, nbrs) in ports.iter().enumerate() {
            for (p, &v) in nbrs.iter().enumerate() {
                port_of[u].insert(v, p);
            }
        }
        for (u, nbrs) in ports.iter().enumerate() {
            for (p, &v) in nbrs.iter().enumerate() {
                let q = *port_of[v].get(&u).ok_or(GraphError::InvalidParameters {
                    reason: format!("asymmetric adjacency between {u} and {v}"),
                })?;
                reverse[u][p] = q;
            }
        }
        Ok(Graph::from_port_tables(ports, reverse, m))
    }

    /// Wraps an [`ImplicitTopology`] without materializing it: graph
    /// memory stays O(1) no matter how large `n` is.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the family parameters are
    /// invalid (connectivity and simplicity hold by construction for
    /// valid parameters).
    pub fn from_implicit(topo: ImplicitTopology) -> Result<Self, GraphError> {
        topo.validate()?;
        Ok(Graph {
            m: topo.m(),
            repr: Repr::Implicit(topo),
        })
    }

    /// Whether this graph uses the implicit (computed) backend.
    pub fn is_implicit(&self) -> bool {
        matches!(self.repr, Repr::Implicit(_))
    }

    /// Number of nodes `n = |V|`.
    pub fn n(&self) -> usize {
        match &self.repr {
            Repr::Explicit(csr) => csr.n(),
            Repr::Implicit(t) => t.n(),
        }
    }

    /// Number of undirected edges `m = |E|`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of node `v` (also its number of ports).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: NodeId) -> usize {
        match &self.repr {
            Repr::Explicit(csr) => csr.range(v).1,
            Repr::Implicit(t) => {
                assert!(v < t.n(), "node {v} out of range");
                t.degree(v)
            }
        }
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        match &self.repr {
            Repr::Explicit(csr) => (0..csr.n()).map(|v| csr.range(v).1).max().unwrap_or(0),
            Repr::Implicit(t) => t.max_degree(),
        }
    }

    /// The node reached from `v` through port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    pub fn port_target(&self, v: NodeId, p: Port) -> NodeId {
        match &self.repr {
            Repr::Explicit(csr) => {
                let (lo, d) = csr.range(v);
                assert!(p < d, "port {p} out of range for node {v}");
                csr.targets[lo + p] as usize
            }
            Repr::Implicit(t) => t.port_target(v, p),
        }
    }

    /// The port at `port_target(v, p)` that leads back to `v`.
    ///
    /// This is what the simulator uses to tell a receiver *through which of
    /// its own ports* a message arrived — the only addressing information
    /// the anonymous model grants.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    pub fn reverse_port(&self, v: NodeId, p: Port) -> Port {
        match &self.repr {
            Repr::Explicit(csr) => {
                let (lo, d) = csr.range(v);
                assert!(p < d, "port {p} out of range for node {v}");
                csr.reverses[lo + p] as usize
            }
            Repr::Implicit(t) => t.reverse_port(v, p),
        }
    }

    /// Fused `(port_target, reverse_port)` lookup: one bounds check and one
    /// row resolution instead of two — the simulator's per-send path.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    pub fn port_and_reverse(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        match &self.repr {
            Repr::Explicit(csr) => {
                let (lo, d) = csr.range(v);
                assert!(p < d, "port {p} out of range for node {v}");
                (csr.targets[lo + p] as usize, csr.reverses[lo + p] as usize)
            }
            Repr::Implicit(t) => t.port_and_reverse(v, p),
        }
    }

    /// Calls `f(p, target, reverse)` for each port `p` of `v` in port
    /// order: [`Graph::port_and_reverse`] for the whole row, resolved once
    /// — the simulator's broadcast path.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn for_each_port(&self, v: NodeId, mut f: impl FnMut(Port, NodeId, Port)) {
        match &self.repr {
            Repr::Explicit(csr) => {
                let (lo, d) = csr.range(v);
                let row = csr.targets[lo..lo + d]
                    .iter()
                    .zip(&csr.reverses[lo..lo + d]);
                for (p, (&t, &q)) in row.enumerate() {
                    f(p, t as usize, q as usize);
                }
            }
            Repr::Implicit(t) => {
                for p in 0..t.degree(v) {
                    let (u, q) = t.port_and_reverse(v, p);
                    f(p, u, q);
                }
            }
        }
    }

    /// Neighbors of `v` in port order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        let inner = match &self.repr {
            Repr::Explicit(csr) => {
                let lo = csr.offsets[v] as usize;
                let hi = csr.offsets[v + 1] as usize;
                NeighborsInner::Slice(csr.targets[lo..hi].iter())
            }
            Repr::Implicit(t) => {
                assert!(v < t.n(), "node {v} out of range");
                NeighborsInner::Implicit {
                    topo: t,
                    v,
                    next: 0,
                    degree: t.degree(v),
                }
            }
        };
        Neighbors { inner }
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Plain adjacency lists (neighbor ids per node, in port order) — the
    /// format consumed by `ale-markov` chain constructors. Materialized on
    /// call (O(n + m) memory) for either backend.
    pub fn adjacency(&self) -> Vec<Vec<NodeId>> {
        (0..self.n()).map(|v| self.neighbors(v).collect()).collect()
    }

    /// Breadth-first connectivity check.
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == n
    }

    /// Returns an isomorphic graph whose port numberings are independently
    /// permuted at every node (deterministically from `seed`).
    ///
    /// Anonymity means no protocol may behave differently under such a
    /// permutation beyond what its own randomness induces; property tests
    /// use this to hunt for accidental dependence on port order.
    /// An implicit graph materializes into explicit storage here — shuffled
    /// ports cannot be computed.
    pub fn with_shuffled_ports(&self, seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = self.n();
        let mut ports: Vec<Vec<NodeId>> = Vec::with_capacity(n);
        for v in 0..n {
            let mut nbrs: Vec<NodeId> = self.neighbors(v).collect();
            nbrs.shuffle(&mut rng);
            ports.push(nbrs);
        }
        Self::from_ports(ports, self.m).expect("permuting ports preserves validity")
    }

    /// All-pairs-free single-source BFS distances from `src`
    /// (`usize::MAX` for unreachable — cannot happen on validated graphs).
    pub fn bfs_distances(&self, src: NodeId) -> Vec<usize> {
        let n = self.n();
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::from([src]);
        dist[src] = 0;
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Exact diameter by BFS from every node — `O(n·m)`, fine for simulated
    /// sizes.
    pub fn diameter(&self) -> usize {
        (0..self.n())
            .map(|v| {
                self.bfs_distances(v)
                    .into_iter()
                    .filter(|&d| d != usize::MAX)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }
}

impl PartialEq for Graph {
    /// Structural equality: same node count, edge count, and per-node port
    /// lists in order — an implicit graph equals its materialized twin.
    fn eq(&self, other: &Graph) -> bool {
        if self.m != other.m || self.n() != other.n() {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Explicit(a), Repr::Explicit(b)) => a == b,
            (Repr::Implicit(a), Repr::Implicit(b)) if a == b => true,
            _ => (0..self.n()).all(|v| {
                self.degree(v) == other.degree(v) && self.neighbors(v).eq(other.neighbors(v))
            }),
        }
    }
}

impl Eq for Graph {}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn rejects_empty_loops_dups_disconnected() {
        assert!(matches!(
            Graph::from_edges(0, &[]),
            Err(GraphError::InvalidParameters { .. })
        ));
        assert!(matches!(
            Graph::from_edges(2, &[(0, 0)]),
            Err(GraphError::SelfLoop { node: 0 })
        ));
        assert!(matches!(
            Graph::from_edges(2, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            Graph::from_edges(4, &[(0, 1), (2, 3)]),
            Err(GraphError::Disconnected)
        ));
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn port_reverse_roundtrip() {
        let g = triangle();
        for v in 0..g.n() {
            for p in 0..g.degree(v) {
                let u = g.port_target(v, p);
                let q = g.reverse_port(v, p);
                assert_eq!(g.port_target(u, q), v, "reverse port must lead back");
                assert_eq!(g.reverse_port(u, q), p, "reverse is an involution");
                assert_eq!(g.port_and_reverse(v, p), (u, q), "fused lookup agrees");
            }
        }
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn bfs_and_diameter() {
        // Path 0-1-2-3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3]);
        assert_eq!(g.diameter(), 3);
        assert_eq!(triangle().diameter(), 1);
    }

    #[test]
    fn shuffled_ports_preserve_topology() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).unwrap();
        let s = g.with_shuffled_ports(99);
        assert_eq!(s.n(), g.n());
        assert_eq!(s.m(), g.m());
        for v in 0..g.n() {
            let mut a: Vec<_> = g.neighbors(v).collect();
            let mut b: Vec<_> = s.neighbors(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "node {v} neighborhood changed");
        }
        // Reverse ports must stay consistent after shuffling.
        for v in 0..s.n() {
            for p in 0..s.degree(v) {
                let u = s.port_target(v, p);
                assert_eq!(s.port_target(u, s.reverse_port(v, p)), v);
            }
        }
    }

    #[test]
    fn adjacency_matches_ports() {
        let g = triangle();
        let adj = g.adjacency();
        for (v, adj_v) in adj.iter().enumerate() {
            let nbrs: Vec<_> = g.neighbors(v).collect();
            assert_eq!(adj_v, &nbrs);
        }
    }

    #[test]
    fn implicit_backend_equals_materialized_explicit() {
        let topo = ImplicitTopology::Torus { rows: 4, cols: 5 };
        let implicit = Graph::from_implicit(topo).unwrap();
        let explicit = topo.materialize().unwrap();
        assert!(implicit.is_implicit());
        assert!(!explicit.is_implicit());
        assert_eq!(implicit, explicit);
        assert_eq!(explicit, implicit);
        assert_eq!(implicit.diameter(), explicit.diameter());
        // A different topology compares unequal through the structural path.
        let ring = Graph::from_implicit(ImplicitTopology::Ring { n: 20 }).unwrap();
        assert_ne!(ring, implicit);
    }

    #[test]
    fn implicit_rejects_bad_parameters() {
        assert!(Graph::from_implicit(ImplicitTopology::Ring { n: 2 }).is_err());
    }
}
