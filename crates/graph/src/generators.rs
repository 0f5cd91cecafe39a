//! Topology generators for the experiment suite.
//!
//! The paper's bounds are parameterized by conductance `Φ` and mixing time
//! `t_mix`, so the harness needs families spanning the spectrum:
//!
//! * **well-connected** (clique, hypercube, random regular): `Φ = Θ(1)` or
//!   `Θ(1/log n)`, `t_mix` polylogarithmic — where the paper's protocol is
//!   near-optimal;
//! * **poorly-connected** (cycle, path, barbell, lollipop): `Φ = Θ(1/n)`,
//!   `t_mix = Θ(n²)` — where message bounds blow up and crossovers appear;
//! * **intermediate** (2-D torus/grid, ring of cliques): `Φ = Θ(1/√n)`.
//!
//! Every generator is deterministic in its `seed` argument (ignored by the
//! deterministic families) and returns a validated, connected [`Graph`].

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use crate::implicit::ImplicitTopology;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use std::fmt;

/// Node count at and above which [`Topology::build`] switches the families
/// with closed-form port maps (cycle, torus, hypercube, CCC) to the
/// O(1)-memory [`ImplicitTopology`] backend. Below it the explicit CSR
/// builder is used, which doubles as the equivalence oracle in tests.
pub const IMPLICIT_THRESHOLD: usize = 100_000;

/// A named topology with its parameters; build concrete graphs with
/// [`Topology::build`].
///
/// # Examples
///
/// ```
/// use ale_graph::Topology;
/// let g = Topology::Cycle { n: 8 }.build(0)?;
/// assert_eq!(g.n(), 8);
/// assert_eq!(g.m(), 8);
/// # Ok::<(), ale_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Topology {
    /// Cycle `C_n` (n ≥ 3): the paper's impossibility arena.
    Cycle {
        /// Number of nodes.
        n: usize,
    },
    /// Path `P_n` (n ≥ 2).
    Path {
        /// Number of nodes.
        n: usize,
    },
    /// Complete graph `K_n` (n ≥ 2).
    Complete {
        /// Number of nodes.
        n: usize,
    },
    /// Star `K_{1,n−1}` (n ≥ 2): hub is node 0.
    Star {
        /// Number of nodes including the hub.
        n: usize,
    },
    /// 2-D grid, optionally wrapped into a torus.
    Grid2d {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
        /// Wrap both dimensions (torus) — keeps the graph vertex-transitive.
        torus: bool,
    },
    /// Hypercube `Q_d` on `2^d` nodes.
    Hypercube {
        /// Dimension (d ≥ 1).
        dim: usize,
    },
    /// Cube-connected cycles `CCC_d` on `d·2^d` nodes: each hypercube
    /// corner replaced by a `d`-cycle, giving a degree-3 vertex-transitive
    /// expander-adjacent family that scales to millions of nodes with O(1)
    /// graph memory.
    Ccc {
        /// Dimension (3 ≤ d ≤ 26).
        dim: usize,
    },
    /// Complete binary tree on `n` nodes (n ≥ 1).
    BinaryTree {
        /// Number of nodes.
        n: usize,
    },
    /// Random `d`-regular graph by the pairing model with retries
    /// (a standard expander for `d ≥ 3`).
    RandomRegular {
        /// Number of nodes (`n·d` must be even, `d < n`).
        n: usize,
        /// Degree.
        d: usize,
    },
    /// Erdős–Rényi `G(n, p)` conditioned on connectivity (retries).
    Gnp {
        /// Number of nodes.
        n: usize,
        /// Edge probability in parts per million (integer so the enum stays
        /// `Eq + Hash` for use as a map key; `p = ppm / 1e6`).
        ppm: u32,
    },
    /// Two cliques `K_k` joined by a single edge — the classic low-
    /// conductance "dumbbell".
    Barbell {
        /// Clique size (k ≥ 2); total nodes `2k`.
        k: usize,
    },
    /// Clique `K_k` with a path of `tail` extra nodes attached — the
    /// lollipop, worst case for hitting times.
    Lollipop {
        /// Clique size (k ≥ 2).
        k: usize,
        /// Path length.
        tail: usize,
    },
    /// `c` cliques of size `k` arranged in a ring, consecutive cliques
    /// joined by one edge.
    RingOfCliques {
        /// Number of cliques (c ≥ 3).
        cliques: usize,
        /// Clique size (k ≥ 2).
        k: usize,
    },
}

impl Topology {
    /// Builds the concrete graph. Randomized families use `seed`;
    /// deterministic families ignore it.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] for out-of-range parameters;
    /// [`GraphError::GenerationFailed`] if a randomized family exhausts its
    /// retry budget.
    ///
    /// Families with closed-form port maps (cycle, torus, hypercube, CCC)
    /// switch to the O(1)-memory implicit backend once the node count
    /// reaches [`IMPLICIT_THRESHOLD`]; the produced graph is structurally
    /// identical to the explicit one (same neighbors, ports, and reverse
    /// ports — see `tests/implicit_equivalence.rs`).
    pub fn build(self, seed: u64) -> Result<Graph, GraphError> {
        if let Some(topo) = self.implicit_form() {
            if self.node_count() >= IMPLICIT_THRESHOLD {
                return Graph::from_implicit(topo);
            }
        }
        match self {
            Topology::Cycle { n } => cycle(n),
            Topology::Path { n } => path(n),
            Topology::Complete { n } => complete(n),
            Topology::Star { n } => star(n),
            Topology::Grid2d { rows, cols, torus } => grid2d(rows, cols, torus),
            Topology::Hypercube { dim } => hypercube(dim),
            Topology::Ccc { dim } => ccc(dim),
            Topology::BinaryTree { n } => binary_tree(n),
            Topology::RandomRegular { n, d } => random_regular(n, d, seed),
            Topology::Gnp { n, ppm } => gnp_connected(n, ppm as f64 / 1e6, seed),
            Topology::Barbell { k } => barbell(k),
            Topology::Lollipop { k, tail } => lollipop(k, tail),
            Topology::RingOfCliques { cliques, k } => ring_of_cliques(cliques, k),
        }
    }

    /// The implicit counterpart of this topology, if one exists.
    fn implicit_form(self) -> Option<ImplicitTopology> {
        match self {
            Topology::Cycle { n } => Some(ImplicitTopology::Ring { n }),
            Topology::Grid2d {
                rows,
                cols,
                torus: true,
            } => Some(ImplicitTopology::Torus { rows, cols }),
            Topology::Hypercube { dim } => Some(ImplicitTopology::Hypercube { dim }),
            Topology::Ccc { dim } => Some(ImplicitTopology::Ccc { dim }),
            _ => None,
        }
    }

    /// Number of nodes the built graph will have, saturating at
    /// `usize::MAX` where the count overflows.
    pub fn node_count(self) -> usize {
        let pow2 = |dim: usize| {
            u32::try_from(dim)
                .ok()
                .and_then(|d| 1usize.checked_shl(d))
                .unwrap_or(usize::MAX)
        };
        match self {
            Topology::Cycle { n }
            | Topology::Path { n }
            | Topology::Complete { n }
            | Topology::Star { n }
            | Topology::BinaryTree { n }
            | Topology::RandomRegular { n, .. }
            | Topology::Gnp { n, .. } => n,
            Topology::Grid2d { rows, cols, .. } => rows.saturating_mul(cols),
            Topology::Hypercube { dim } => pow2(dim),
            Topology::Ccc { dim } => dim.saturating_mul(pow2(dim)),
            Topology::Barbell { k } => k.saturating_mul(2),
            Topology::Lollipop { k, tail } => k.saturating_add(tail),
            Topology::RingOfCliques { cliques, k } => cliques.saturating_mul(k),
        }
    }

    /// Most edges the built graph can have, saturating at `usize::MAX`
    /// where the count overflows: exact for the deterministic families,
    /// `n·d/2` for random regular graphs, and every pair for `G(n, p)`,
    /// whose builder draws each one.
    pub fn max_edges(self) -> usize {
        let pairs = |n: usize| {
            let (a, b) = (n, n.saturating_sub(1));
            // Halve the even factor first, so nothing overflows early.
            if a % 2 == 0 {
                (a / 2).saturating_mul(b)
            } else {
                a.saturating_mul(b / 2)
            }
        };
        match self {
            Topology::Cycle { n } => n,
            Topology::Path { n } | Topology::Star { n } | Topology::BinaryTree { n } => {
                n.saturating_sub(1)
            }
            Topology::Complete { n } | Topology::Gnp { n, .. } => pairs(n),
            Topology::Grid2d {
                rows,
                cols,
                torus: true,
            } => rows.saturating_mul(cols).saturating_mul(2),
            Topology::Grid2d { rows, cols, .. } => rows
                .saturating_mul(cols.saturating_sub(1))
                .saturating_add(cols.saturating_mul(rows.saturating_sub(1))),
            // Degree d on 2^d nodes; degree 3 on d·2^d nodes. Both counts
            // are even, and a saturated one stays saturated when halved
            // and multiplied.
            Topology::Hypercube { dim } => (self.node_count() / 2).saturating_mul(dim),
            Topology::Ccc { .. } => (self.node_count() / 2).saturating_mul(3),
            Topology::RandomRegular { n, d } => n.checked_mul(d).map_or(usize::MAX, |nd| nd / 2),
            Topology::Barbell { k } => pairs(k).saturating_mul(2).saturating_add(1),
            Topology::Lollipop { k, tail } => pairs(k).saturating_add(tail),
            Topology::RingOfCliques { cliques, k } => {
                pairs(k).saturating_add(1).saturating_mul(cliques)
            }
        }
    }

    /// A short machine-friendly family name (for CSV columns).
    pub fn family(&self) -> &'static str {
        match self {
            Topology::Cycle { .. } => "cycle",
            Topology::Path { .. } => "path",
            Topology::Complete { .. } => "complete",
            Topology::Star { .. } => "star",
            Topology::Grid2d { torus: true, .. } => "torus",
            Topology::Grid2d { torus: false, .. } => "grid",
            Topology::Hypercube { .. } => "hypercube",
            Topology::Ccc { .. } => "ccc",
            Topology::BinaryTree { .. } => "btree",
            Topology::RandomRegular { .. } => "rregular",
            Topology::Gnp { .. } => "gnp",
            Topology::Barbell { .. } => "barbell",
            Topology::Lollipop { .. } => "lollipop",
            Topology::RingOfCliques { .. } => "ringcliques",
        }
    }

    /// The round-trippable `family:args` spec — exactly the CLI form
    /// [`std::str::FromStr`] parses, unlike [`std::fmt::Display`]'s
    /// human-oriented `family(k=v)` rendering. Run manifests persist
    /// topology overrides in this form so a stored run can be re-expanded
    /// verbatim (`ale-lab run --resume`).
    pub fn spec(&self) -> String {
        match self {
            Topology::Cycle { n } => format!("cycle:{n}"),
            Topology::Path { n } => format!("path:{n}"),
            Topology::Complete { n } => format!("complete:{n}"),
            Topology::Star { n } => format!("star:{n}"),
            Topology::Grid2d {
                rows,
                cols,
                torus: false,
            } => format!("grid:{rows}x{cols}"),
            Topology::Grid2d {
                rows,
                cols,
                torus: true,
            } => format!("torus:{rows}x{cols}"),
            Topology::Hypercube { dim } => format!("hypercube:{dim}"),
            Topology::Ccc { dim } => format!("ccc:{dim}"),
            Topology::BinaryTree { n } => format!("btree:{n}"),
            Topology::RandomRegular { n, d } => format!("rregular:{n}x{d}"),
            Topology::Gnp { n, ppm } => format!("gnp:{n}x{}", *ppm as f64 / 1e6),
            Topology::Barbell { k } => format!("barbell:{k}"),
            Topology::Lollipop { k, tail } => format!("lollipop:{k}x{tail}"),
            Topology::RingOfCliques { cliques, k } => format!("ringcliques:{cliques}x{k}"),
        }
    }
}

impl std::str::FromStr for Topology {
    type Err = GraphError;

    /// Parses the grid-friendly CLI form `family:args`, e.g.
    /// `complete:64`, `cycle:32`, `hypercube:6`, `grid:8x8`, `torus:8x8`,
    /// `rregular:64x4`, `gnp:64x0.05`, `barbell:8`, `lollipop:8x4`,
    /// `ringcliques:8x8`, `btree:15`, `path:16`, `star:16`.
    fn from_str(s: &str) -> Result<Self, GraphError> {
        let bad = |msg: String| GraphError::InvalidParameters { reason: msg };
        let (family, args) = s
            .split_once(':')
            .ok_or_else(|| bad(format!("'{s}': expected family:args (e.g. complete:64)")))?;
        let ints = || -> Result<Vec<usize>, GraphError> {
            args.split('x')
                .map(|p| {
                    p.trim()
                        .parse::<usize>()
                        .map_err(|_| bad(format!("'{s}': '{p}' is not an integer")))
                })
                .collect()
        };
        let one = || -> Result<usize, GraphError> {
            let v = ints()?;
            if v.len() == 1 {
                Ok(v[0])
            } else {
                Err(bad(format!("'{s}': expected one integer argument")))
            }
        };
        let two = || -> Result<(usize, usize), GraphError> {
            let v = ints()?;
            if v.len() == 2 {
                Ok((v[0], v[1]))
            } else {
                Err(bad(format!("'{s}': expected AxB arguments")))
            }
        };
        match family.trim() {
            "cycle" => Ok(Topology::Cycle { n: one()? }),
            "path" => Ok(Topology::Path { n: one()? }),
            "complete" | "clique" => Ok(Topology::Complete { n: one()? }),
            "star" => Ok(Topology::Star { n: one()? }),
            "hypercube" => Ok(Topology::Hypercube { dim: one()? }),
            "ccc" => Ok(Topology::Ccc { dim: one()? }),
            "btree" => Ok(Topology::BinaryTree { n: one()? }),
            "barbell" => Ok(Topology::Barbell { k: one()? }),
            "grid" => {
                let (rows, cols) = two()?;
                Ok(Topology::Grid2d {
                    rows,
                    cols,
                    torus: false,
                })
            }
            "torus" => {
                let (rows, cols) = two()?;
                Ok(Topology::Grid2d {
                    rows,
                    cols,
                    torus: true,
                })
            }
            "rregular" => {
                let (n, d) = two()?;
                Ok(Topology::RandomRegular { n, d })
            }
            "lollipop" => {
                let (k, tail) = two()?;
                Ok(Topology::Lollipop { k, tail })
            }
            "ringcliques" => {
                let (cliques, k) = two()?;
                Ok(Topology::RingOfCliques { cliques, k })
            }
            "gnp" => {
                let (n_str, p_str) = args
                    .split_once('x')
                    .ok_or_else(|| bad(format!("'{s}': expected gnp:NxP")))?;
                let n = n_str
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| bad(format!("'{s}': '{n_str}' is not an integer")))?;
                let p = p_str
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| bad(format!("'{s}': '{p_str}' is not a probability")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(bad(format!("'{s}': p must be in [0, 1]")));
                }
                Ok(Topology::Gnp {
                    n,
                    ppm: (p * 1e6).round() as u32,
                })
            }
            other => Err(bad(format!(
                "unknown topology family '{other}' \
                 (cycle, path, complete, star, grid, torus, hypercube, ccc, \
                 btree, rregular, gnp, barbell, lollipop, ringcliques)"
            ))),
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Cycle { n } => write!(f, "cycle(n={n})"),
            Topology::Path { n } => write!(f, "path(n={n})"),
            Topology::Complete { n } => write!(f, "complete(n={n})"),
            Topology::Star { n } => write!(f, "star(n={n})"),
            Topology::Grid2d { rows, cols, torus } => {
                write!(
                    f,
                    "{}({rows}x{cols})",
                    if *torus { "torus" } else { "grid" }
                )
            }
            Topology::Hypercube { dim } => write!(f, "hypercube(d={dim})"),
            Topology::Ccc { dim } => write!(f, "ccc(d={dim})"),
            Topology::BinaryTree { n } => write!(f, "btree(n={n})"),
            Topology::RandomRegular { n, d } => write!(f, "rregular(n={n},d={d})"),
            Topology::Gnp { n, ppm } => write!(f, "gnp(n={n},p={})", *ppm as f64 / 1e6),
            Topology::Barbell { k } => write!(f, "barbell(k={k})"),
            Topology::Lollipop { k, tail } => write!(f, "lollipop(k={k},tail={tail})"),
            Topology::RingOfCliques { cliques, k } => {
                write!(f, "ringcliques(c={cliques},k={k})")
            }
        }
    }
}

fn invalid(reason: impl Into<String>) -> GraphError {
    GraphError::InvalidParameters {
        reason: reason.into(),
    }
}

/// Cycle `C_n`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(invalid("cycle requires n >= 3"));
    }
    let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edges(n, &edges)
}

/// Path `P_n`.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(invalid("path requires n >= 2"));
    }
    let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
    Graph::from_edges(n, &edges)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(invalid("complete graph requires n >= 2"));
    }
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Star with hub 0.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(invalid("star requires n >= 2"));
    }
    let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
    Graph::from_edges(n, &edges)
}

/// 2-D grid or torus on `rows x cols` nodes.
pub fn grid2d(rows: usize, cols: usize, torus: bool) -> Result<Graph, GraphError> {
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| invalid(format!("grid {rows}x{cols} has too many nodes for usize")))?;
    if rows < 1 || cols < 1 || n < 2 {
        return Err(invalid("grid requires at least 2 nodes"));
    }
    if torus && (rows < 3 || cols < 3) {
        return Err(invalid("torus requires rows, cols >= 3 (else multi-edges)"));
    }
    let id = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            } else if torus {
                edges.push((id(r, c), id(r, 0)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            } else if torus {
                edges.push((id(r, c), id(0, c)));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Hypercube `Q_d`.
pub fn hypercube(dim: usize) -> Result<Graph, GraphError> {
    if dim == 0 || dim > 24 {
        return Err(invalid("hypercube requires 1 <= dim <= 24"));
    }
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim / 2);
    for u in 0..n {
        for b in 0..dim {
            let v = u ^ (1 << b);
            if u < v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Cube-connected cycles `CCC_d`: hypercube corner `w` becomes the cycle
/// of nodes `(w, i)` for `i ∈ 0..d` (node id `w·d + i`), with ring edges
/// along each cycle and an "across" edge from `(w, i)` to `(w ⊕ 2^i, i)`.
///
/// Built by materializing the implicit port formulas — the CCC port order
/// `[ring-pred, ring-succ, across]` is not expressible as a single edge
/// list fed to [`Graph::from_edges`], so the implicit backend is the
/// canonical definition and this explicit form is its materialization.
pub fn ccc(dim: usize) -> Result<Graph, GraphError> {
    ImplicitTopology::Ccc { dim }.materialize()
}

/// Complete binary tree (heap layout: children of `i` are `2i+1`, `2i+2`).
pub fn binary_tree(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(invalid("binary tree requires n >= 2"));
    }
    let mut edges = Vec::with_capacity(n - 1);
    for i in 1..n {
        edges.push(((i - 1) / 2, i));
    }
    Graph::from_edges(n, &edges)
}

/// Random `d`-regular graph via the pairing (configuration) model,
/// retrying until the result is simple and connected.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Graph, GraphError> {
    if d == 0 || d >= n || !(n * d).is_multiple_of(2) {
        return Err(invalid(format!(
            "d-regular requires 0 < d < n and n*d even (n={n}, d={d})"
        )));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    const ATTEMPTS: usize = 500;
    for _ in 0..ATTEMPTS {
        // Stubs: node i appears d times.
        let mut stubs: Vec<NodeId> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(&mut rng);
        let mut ok = true;
        let mut seen = std::collections::HashSet::with_capacity(n * d / 2);
        let mut edges = Vec::with_capacity(n * d / 2);
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v {
                ok = false;
                break;
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                ok = false;
                break;
            }
            edges.push((u, v));
        }
        if !ok {
            continue;
        }
        match Graph::from_edges(n, &edges) {
            Ok(g) => return Ok(g),
            Err(GraphError::Disconnected) => continue,
            Err(e) => return Err(e),
        }
    }
    Err(GraphError::GenerationFailed { attempts: ATTEMPTS })
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity.
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    if n < 2 || !(0.0..=1.0).contains(&p) {
        return Err(invalid(format!(
            "gnp requires n >= 2, 0 <= p <= 1 (n={n}, p={p})"
        )));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    const ATTEMPTS: usize = 200;
    for _ in 0..ATTEMPTS {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        match Graph::from_edges(n, &edges) {
            Ok(g) => return Ok(g),
            Err(GraphError::Disconnected) => continue,
            Err(e) => return Err(e),
        }
    }
    Err(GraphError::GenerationFailed { attempts: ATTEMPTS })
}

/// Two `K_k` cliques joined by one edge (nodes `0..k` and `k..2k`,
/// bridge `(k-1, k)`).
pub fn barbell(k: usize) -> Result<Graph, GraphError> {
    if k < 2 {
        return Err(invalid("barbell requires clique size k >= 2"));
    }
    let mut edges = Vec::new();
    for base in [0, k] {
        for u in 0..k {
            for v in (u + 1)..k {
                edges.push((base + u, base + v));
            }
        }
    }
    edges.push((k - 1, k));
    Graph::from_edges(2 * k, &edges)
}

/// Clique `K_k` with a path of `tail` nodes hanging off node `k−1`.
pub fn lollipop(k: usize, tail: usize) -> Result<Graph, GraphError> {
    if k < 2 || tail < 1 {
        return Err(invalid("lollipop requires k >= 2 and tail >= 1"));
    }
    let mut edges = Vec::new();
    for u in 0..k {
        for v in (u + 1)..k {
            edges.push((u, v));
        }
    }
    edges.push((k - 1, k));
    for i in 0..tail - 1 {
        edges.push((k + i, k + i + 1));
    }
    Graph::from_edges(k + tail, &edges)
}

/// `cliques` copies of `K_k` in a ring; clique `i`'s last node connects to
/// clique `i+1`'s first node.
pub fn ring_of_cliques(cliques: usize, k: usize) -> Result<Graph, GraphError> {
    if cliques < 3 || k < 2 {
        return Err(invalid("ring of cliques requires cliques >= 3, k >= 2"));
    }
    let n = cliques * k;
    let mut edges = Vec::new();
    for c in 0..cliques {
        let base = c * k;
        for u in 0..k {
            for v in (u + 1)..k {
                edges.push((base + u, base + v));
            }
        }
        let next_base = ((c + 1) % cliques) * k;
        edges.push((base + k - 1, next_base));
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_properties() {
        let g = cycle(8).unwrap();
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 8);
        assert!(g.is_connected());
        assert!((0..8).all(|v| g.degree(v) == 2));
        assert_eq!(g.diameter(), 4);
        assert!(cycle(2).is_err());
    }

    #[test]
    fn path_properties() {
        let g = path(5).unwrap();
        assert_eq!(g.m(), 4);
        assert_eq!(g.diameter(), 4);
        assert!(path(1).is_err());
    }

    #[test]
    fn complete_properties() {
        let g = complete(6).unwrap();
        assert_eq!(g.m(), 15);
        assert_eq!(g.diameter(), 1);
        assert!((0..6).all(|v| g.degree(v) == 5));
        assert!(complete(1).is_err());
    }

    #[test]
    fn star_properties() {
        let g = star(7).unwrap();
        assert_eq!(g.degree(0), 6);
        assert!((1..7).all(|v| g.degree(v) == 1));
        assert_eq!(g.diameter(), 2);
    }

    #[test]
    fn grid_and_torus() {
        let g = grid2d(3, 4, false).unwrap();
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 4 * 2); // horizontal 3*3, vertical 2*4
        let t = grid2d(3, 4, true).unwrap();
        assert_eq!(t.m(), 2 * 12); // torus is 4-regular
        assert!((0..12).all(|v| t.degree(v) == 4));
        assert!(grid2d(2, 2, true).is_err());
        assert!(grid2d(0, 5, false).is_err());
    }

    #[test]
    fn hypercube_properties() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 32);
        assert!((0..16).all(|v| g.degree(v) == 4));
        assert_eq!(g.diameter(), 4);
        assert!(hypercube(0).is_err());
    }

    #[test]
    fn ccc_properties() {
        let g = ccc(3).unwrap();
        assert_eq!(g.n(), 24);
        assert_eq!(g.m(), 36);
        assert!((0..24).all(|v| g.degree(v) == 3));
        assert!(g.is_connected());
        assert!(ccc(2).is_err());
    }

    #[test]
    fn large_families_switch_to_the_implicit_backend() {
        // Just below the threshold: explicit. At/above: implicit.
        let small = Topology::Cycle { n: 1000 }.build(0).unwrap();
        assert!(!small.is_implicit());
        let big = Topology::Cycle {
            n: IMPLICIT_THRESHOLD,
        }
        .build(0)
        .unwrap();
        assert!(big.is_implicit());
        assert_eq!(big.n(), IMPLICIT_THRESHOLD);
        assert_eq!(big.degree(0), 2);
        // Non-closed-form families never switch.
        let tree = Topology::BinaryTree { n: 200_000 }.build(0).unwrap();
        assert!(!tree.is_implicit());
    }

    #[test]
    fn binary_tree_properties() {
        let g = binary_tree(7).unwrap();
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(6), 1);
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn random_regular_is_regular_connected() {
        for seed in 0..5 {
            let g = random_regular(24, 3, seed).unwrap();
            assert_eq!(g.n(), 24);
            assert!((0..24).all(|v| g.degree(v) == 3));
            assert!(g.is_connected());
        }
        assert!(random_regular(5, 3, 0).is_err()); // odd n*d
        assert!(random_regular(4, 4, 0).is_err()); // d >= n
    }

    #[test]
    fn random_regular_deterministic_in_seed() {
        let a = random_regular(16, 4, 7).unwrap();
        let b = random_regular(16, 4, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gnp_connected_works() {
        let g = gnp_connected(20, 0.3, 3).unwrap();
        assert!(g.is_connected());
        assert!(gnp_connected(1, 0.5, 0).is_err());
        assert!(gnp_connected(10, 1.5, 0).is_err());
        // p = 0 can never connect: must exhaust retries.
        assert!(matches!(
            gnp_connected(4, 0.0, 0),
            Err(GraphError::GenerationFailed { .. })
        ));
    }

    #[test]
    fn barbell_and_lollipop() {
        let g = barbell(4).unwrap();
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 2 * 6 + 1);
        let l = lollipop(4, 3).unwrap();
        assert_eq!(l.n(), 7);
        assert_eq!(l.m(), 6 + 3);
        assert_eq!(l.degree(6), 1);
        assert!(barbell(1).is_err());
        assert!(lollipop(4, 0).is_err());
    }

    #[test]
    fn ring_of_cliques_shape() {
        let g = ring_of_cliques(4, 3).unwrap();
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 4 * 3 + 4);
        assert!(g.is_connected());
        assert!(ring_of_cliques(2, 3).is_err());
    }

    #[test]
    fn parses_cli_specs() {
        let cases: [(&str, Topology); 11] = [
            ("complete:64", Topology::Complete { n: 64 }),
            ("clique:8", Topology::Complete { n: 8 }),
            ("cycle:32", Topology::Cycle { n: 32 }),
            ("hypercube:6", Topology::Hypercube { dim: 6 }),
            ("ccc:4", Topology::Ccc { dim: 4 }),
            (
                "grid:4x6",
                Topology::Grid2d {
                    rows: 4,
                    cols: 6,
                    torus: false,
                },
            ),
            (
                "torus:8x8",
                Topology::Grid2d {
                    rows: 8,
                    cols: 8,
                    torus: true,
                },
            ),
            ("rregular:64x4", Topology::RandomRegular { n: 64, d: 4 }),
            ("lollipop:8x4", Topology::Lollipop { k: 8, tail: 4 }),
            (
                "ringcliques:8x8",
                Topology::RingOfCliques { cliques: 8, k: 8 },
            ),
            ("gnp:64x0.05", Topology::Gnp { n: 64, ppm: 50_000 }),
        ];
        for (text, expected) in cases {
            assert_eq!(text.parse::<Topology>().unwrap(), expected, "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "complete",
            "complete:x",
            "grid:8",
            "torus:8x8x8",
            "gnp:64x1.5",
            "klein-bottle:4",
            "rregular:64",
        ] {
            assert!(bad.parse::<Topology>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn topology_enum_roundtrip() {
        let topos = [
            Topology::Cycle { n: 10 },
            Topology::Path { n: 10 },
            Topology::Complete { n: 10 },
            Topology::Star { n: 10 },
            Topology::Grid2d {
                rows: 4,
                cols: 4,
                torus: true,
            },
            Topology::Hypercube { dim: 3 },
            Topology::Ccc { dim: 3 },
            Topology::BinaryTree { n: 10 },
            Topology::RandomRegular { n: 10, d: 3 },
            Topology::Gnp {
                n: 10,
                ppm: 400_000,
            },
            Topology::Barbell { k: 5 },
            Topology::Lollipop { k: 5, tail: 5 },
            Topology::RingOfCliques { cliques: 3, k: 4 },
        ];
        for t in topos {
            let g = t.build(11).unwrap();
            assert_eq!(g.n(), t.node_count(), "node_count mismatch for {t}");
            assert!(g.is_connected());
            assert!(!t.family().is_empty());
            assert!(!t.to_string().is_empty());
            // The spec form round-trips through FromStr (the Display form
            // intentionally does not — it is for humans).
            assert_eq!(t.spec().parse::<Topology>().unwrap(), t, "{t}");
        }
        // A grid (non-torus) variant too, since the array above only has
        // the torus flavor.
        let grid = Topology::Grid2d {
            rows: 3,
            cols: 5,
            torus: false,
        };
        assert_eq!(grid.spec(), "grid:3x5");
        assert_eq!(grid.spec().parse::<Topology>().unwrap(), grid);
    }

    #[test]
    fn sizes_past_usize_saturate_and_are_refused_by_build() {
        let big = 1usize << (usize::BITS / 2);
        for t in [
            Topology::Hypercube { dim: 64 },
            Topology::Ccc { dim: 64 },
            Topology::Grid2d {
                rows: big,
                cols: big,
                torus: true,
            },
            Topology::Grid2d {
                rows: big,
                cols: big,
                torus: false,
            },
        ] {
            assert_eq!(t.node_count(), usize::MAX, "{t}");
            assert_eq!(t.max_edges(), usize::MAX, "{t}");
            assert!(
                matches!(t.build(0), Err(GraphError::InvalidParameters { .. })),
                "{t}"
            );
        }
        for t in [
            Topology::Complete { n: usize::MAX },
            Topology::Gnp {
                n: usize::MAX,
                ppm: 1,
            },
            Topology::RandomRegular { n: big, d: big },
            Topology::RingOfCliques { cliques: 3, k: big },
        ] {
            assert_eq!(t.max_edges(), usize::MAX, "{t}");
        }
    }

    #[test]
    fn max_edges_is_the_built_edge_count() {
        for t in [
            Topology::Cycle { n: 7 },
            Topology::Path { n: 6 },
            Topology::Complete { n: 9 },
            Topology::Complete { n: 10 },
            Topology::Star { n: 5 },
            Topology::Grid2d {
                rows: 3,
                cols: 5,
                torus: false,
            },
            Topology::Grid2d {
                rows: 4,
                cols: 3,
                torus: true,
            },
            Topology::Hypercube { dim: 5 },
            Topology::Ccc { dim: 3 },
            Topology::Ccc { dim: 4 },
            Topology::BinaryTree { n: 10 },
            Topology::RandomRegular { n: 12, d: 3 },
            Topology::RandomRegular { n: 9, d: 4 },
            Topology::Barbell { k: 5 },
            Topology::Lollipop { k: 4, tail: 3 },
            Topology::RingOfCliques { cliques: 4, k: 3 },
        ] {
            assert_eq!(t.max_edges(), t.build(1).unwrap().m(), "{t}");
        }
        // G(n, p) draws each pair once, so its count is a bound.
        for (n, ppm) in [(12, 500_000), (10, 1_000_000)] {
            let t = Topology::Gnp { n, ppm };
            assert!(t.build(1).unwrap().m() <= t.max_edges(), "{t}");
        }
        assert_eq!(
            Topology::Gnp {
                n: 10,
                ppm: 1_000_000
            }
            .max_edges(),
            45
        );
    }
}
