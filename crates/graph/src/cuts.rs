//! Exact cut-based graph quantities: conductance `Φ(G)` and the
//! isoperimetric number `i(G)`.
//!
//! Definitions follow Section 2 of the paper:
//!
//! * `Φ(G) = min_{S ⊂ V} |∂S| / min(Vol(S), Vol(S̄))` with
//!   `Vol(S) = Σ_{v∈S} deg(v)`;
//! * `i(G) = min_{S ⊆ V, |S| ≤ |V|/2} |∂S| / |S|` (the graph Cheeger
//!   constant, Mohar \[23\]).
//!
//! Both minimize over exponentially many cuts; the exact functions here are
//! `O(2ⁿ·n)` oracles for tests and small lemma-level experiments, with a
//! hard size guard. Larger graphs use spectral bands
//! ([`crate::spectral_sparse`]) or closed forms ([`crate::analytic`]).

use crate::error::GraphError;
use crate::graph::Graph;

/// Maximum `n` accepted by the exact cut enumerations.
pub const EXACT_CUT_LIMIT: usize = 22;

fn for_each_cut<F: FnMut(&[bool], usize)>(n: usize, mut f: F) {
    // Node 0 is fixed outside S so each unordered cut appears once.
    let mask_count: u64 = 1u64 << (n - 1);
    let mut in_s = vec![false; n];
    for mask in 1..mask_count {
        let mut size = 0;
        for b in 0..(n - 1) {
            let is_in = mask >> b & 1 == 1;
            in_s[b + 1] = is_in;
            if is_in {
                size += 1;
            }
        }
        f(&in_s, size);
    }
}

fn crossing_edges(g: &Graph, in_s: &[bool]) -> usize {
    let mut cut = 0;
    for (u, v) in g.edges() {
        if in_s[u] != in_s[v] {
            cut += 1;
        }
    }
    cut
}

/// Exact graph conductance `Φ(G)` by cut enumeration.
///
/// # Errors
///
/// * [`GraphError::TooLargeForExact`] if `n > EXACT_CUT_LIMIT`.
/// * [`GraphError::InvalidParameters`] if `n < 2`.
///
/// # Examples
///
/// ```
/// use ale_graph::{generators, cuts};
/// let g = generators::cycle(8)?;
/// // Best cut: an arc of 4 nodes; |∂S| = 2, Vol = 8 ⇒ Φ = 1/4.
/// assert!((cuts::conductance_exact(&g)? - 0.25).abs() < 1e-12);
/// # Ok::<(), ale_graph::GraphError>(())
/// ```
pub fn conductance_exact(g: &Graph) -> Result<f64, GraphError> {
    let n = g.n();
    if n < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "conductance needs n >= 2".into(),
        });
    }
    if n > EXACT_CUT_LIMIT {
        return Err(GraphError::TooLargeForExact {
            limit: EXACT_CUT_LIMIT,
            n,
        });
    }
    let total_vol: usize = 2 * g.m();
    let degrees: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut best = f64::INFINITY;
    for_each_cut(n, |in_s, _| {
        let cut = crossing_edges(g, in_s);
        let vol_s: usize = in_s
            .iter()
            .enumerate()
            .filter(|(_, &x)| x)
            .map(|(v, _)| degrees[v])
            .sum();
        let denom = vol_s.min(total_vol - vol_s);
        if denom > 0 {
            let ratio = cut as f64 / denom as f64;
            if ratio < best {
                best = ratio;
            }
        }
    });
    Ok(best)
}

/// Exact isoperimetric number `i(G)` by cut enumeration.
///
/// # Errors
///
/// Same as [`conductance_exact`].
///
/// # Examples
///
/// ```
/// use ale_graph::{generators, cuts};
/// let g = generators::complete(6)?;
/// // K6: |∂S|/|S| = 6 − |S| is minimized at |S| = 3.
/// assert!((cuts::isoperimetric_exact(&g)? - 3.0).abs() < 1e-12);
/// # Ok::<(), ale_graph::GraphError>(())
/// ```
pub fn isoperimetric_exact(g: &Graph) -> Result<f64, GraphError> {
    let n = g.n();
    if n < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "isoperimetric number needs n >= 2".into(),
        });
    }
    if n > EXACT_CUT_LIMIT {
        return Err(GraphError::TooLargeForExact {
            limit: EXACT_CUT_LIMIT,
            n,
        });
    }
    let mut best = f64::INFINITY;
    for_each_cut(n, |in_s, size| {
        // i(G) restricts to |S| <= n/2; the enumeration fixes node 0 in S̄,
        // so take whichever side is small (both sides' ratios are covered
        // across the enumeration, but checking the small side here is exact
        // and cheap).
        let cut = crossing_edges(g, in_s);
        let side = if 2 * size <= n { size } else { n - size };
        if side > 0 && 2 * side <= n {
            let ratio = cut as f64 / side as f64;
            if ratio < best {
                best = ratio;
            }
        }
    });
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cycle_conductance_and_isoperimetric() {
        let g = generators::cycle(8).unwrap();
        assert!((conductance_exact(&g).unwrap() - 2.0 / 8.0).abs() < 1e-12);
        assert!((isoperimetric_exact(&g).unwrap() - 2.0 / 4.0).abs() < 1e-12);
        let g6 = generators::cycle(6).unwrap();
        assert!((isoperimetric_exact(&g6).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_values() {
        let g = generators::complete(6).unwrap();
        // Φ(K6): cut |S|=3: 9 edges, Vol(S)=15 ⇒ 9/15 = 0.6.
        assert!((conductance_exact(&g).unwrap() - 0.6).abs() < 1e-12);
        assert!((isoperimetric_exact(&g).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn path_is_worst_at_the_middle() {
        let g = generators::path(8).unwrap();
        // Middle cut: 1 edge, |S| = 4 ⇒ i = 1/4; Vol(S) = 7 ⇒ Φ = 1/7.
        assert!((isoperimetric_exact(&g).unwrap() - 0.25).abs() < 1e-12);
        assert!((conductance_exact(&g).unwrap() - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn barbell_is_bridge_limited() {
        let g = generators::barbell(4).unwrap();
        // The bridge cut: 1 edge, each side has 4 nodes, Vol = 13.
        assert!((isoperimetric_exact(&g).unwrap() - 0.25).abs() < 1e-12);
        assert!((conductance_exact(&g).unwrap() - 1.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn star_values() {
        let g = generators::star(6).unwrap();
        // i(G): leaves-only S of size 2 ≤ n/2 = 3: |∂S| = 2 ⇒ 1. Any
        // S containing the hub with |S|=3 has |∂S| = 3 ⇒ 1. So i = 1.
        assert!((isoperimetric_exact(&g).unwrap() - 1.0).abs() < 1e-12);
        // Φ: S = hub + 2 leaves: |∂S| = 3, Vol(S) = 7, Vol(S̄) = 3 ⇒ 1.
        // S = 2 leaves: |∂S| = 2, Vol(S) = 2 ⇒ 1. Any single leaf: 1/1 = 1.
        assert!((conductance_exact(&g).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hypercube_dimension_cut() {
        let g = generators::hypercube(3).unwrap();
        // Q3: dimension cut: 4 edges, |S| = 4, Vol(S) = 12 ⇒ Φ = 1/3, i = 1.
        assert!((conductance_exact(&g).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((isoperimetric_exact(&g).unwrap() - 1.0).abs() < 1e-12);
    }

    /// The paper's lower bound `i(G) ≥ 2/n` for connected graphs (used to
    /// get Corollary 1 from Theorem 3).
    #[test]
    fn lower_bound_holds_everywhere() {
        for g in [
            generators::cycle(10).unwrap(),
            generators::path(9).unwrap(),
            generators::star(8).unwrap(),
            generators::barbell(5).unwrap(),
            generators::binary_tree(10).unwrap(),
        ] {
            let i = isoperimetric_exact(&g).unwrap();
            assert!(
                i >= 2.0 / g.n() as f64 - 1e-12,
                "i(G) = {i} below 2/n for n = {}",
                g.n()
            );
        }
    }

    #[test]
    fn guards_reject_bad_sizes() {
        let big = generators::cycle(EXACT_CUT_LIMIT + 1).unwrap();
        assert!(matches!(
            conductance_exact(&big),
            Err(GraphError::TooLargeForExact { .. })
        ));
        assert!(matches!(
            isoperimetric_exact(&big),
            Err(GraphError::TooLargeForExact { .. })
        ));
    }

    #[test]
    fn conductance_at_most_one_isoperimetric_at_most_min_degree_bound() {
        for g in [
            generators::cycle(12).unwrap(),
            generators::complete(8).unwrap(),
            generators::hypercube(4).unwrap(),
        ] {
            let phi = conductance_exact(&g).unwrap();
            assert!(phi <= 1.0 + 1e-12, "Φ must be ≤ 1, got {phi}");
            let i = isoperimetric_exact(&g).unwrap();
            // |∂S| ≤ Vol(S) ≤ Δ|S| gives i ≤ Δ.
            assert!(i <= g.max_degree() as f64 + 1e-12);
        }
    }
}
