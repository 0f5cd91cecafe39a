//! Finite Markov chains over graph state spaces.
//!
//! The paper's analysis uses two chains built from the network graph
//! `G = (V, E)`:
//!
//! * the **lazy random walk** `P = ½I + ½D⁻¹A` used by the random-walk
//!   probing phase of the irrevocable protocol (Section 4), and
//! * the **diffusion matrix** `S` with `s_ij = α` for each edge and
//!   `s_ii = 1 − α·deg(i)` used by the `Avg` procedure of the revocable
//!   protocol (Section 5.2), where the paper sets `α = 1/(2k^{1+ε})`.
//!
//! `S` is symmetric and doubly stochastic whenever `α·deg(i) ≤ 1` for all
//! `i`, which makes its stationary distribution uniform — the fact Lemma 3
//! rests on.
//!
//! A chain stores its matrix as a [`CsrMatrix`], so [`MarkovChain::step`]
//! costs `O(nnz)` — `O(m)` on an `m`-edge graph, which is what the large-n
//! scenario sweeps depend on. The adjacency-list constructors here and the
//! `Graph`-taking helpers in `ale-graph` build their rows through the
//! shared [`lazy_walk_row`] and [`diffusion_row`].

use crate::error::MarkovError;
use crate::matrix::{vecops, CsrMatrix, EPS};

/// CSR row entries of the lazy random walk at node `i` with neighbors
/// `nbrs`: the self-loop `½` plus `½/deg` per neighbor.
///
/// Shared by [`MarkovChain::lazy_random_walk`] and the `Graph`-taking
/// constructors in `ale-graph`, so the two build paths cannot drift.
///
/// # Panics
///
/// Panics when `nbrs` is empty (the walk is undefined at an isolated
/// node); constructors reject that case first.
pub fn lazy_walk_row(i: usize, nbrs: &[usize]) -> Vec<(usize, f64)> {
    assert!(!nbrs.is_empty(), "lazy walk undefined at isolated node {i}");
    let w = 0.5 / nbrs.len() as f64;
    let mut entries = Vec::with_capacity(nbrs.len() + 1);
    entries.push((i, 0.5));
    entries.extend(nbrs.iter().map(|&j| (j, w)));
    entries
}

/// CSR row entries of the diffusion matrix at node `i`: `α` per neighbor
/// and `1 − α·deg(i)` on the diagonal (clamped at 0 within tolerance).
///
/// Shared by [`MarkovChain::diffusion`] and the `Graph`-taking
/// constructors in `ale-graph`.
///
/// # Errors
///
/// [`MarkovError::NotStochastic`] when `α·deg(i) > 1` beyond [`EPS`].
pub fn diffusion_row(
    i: usize,
    nbrs: &[usize],
    alpha: f64,
) -> Result<Vec<(usize, f64)>, MarkovError> {
    let self_weight = 1.0 - alpha * nbrs.len() as f64;
    if self_weight < -EPS {
        return Err(MarkovError::NotStochastic {
            row: i,
            sum: self_weight,
        });
    }
    let mut entries = Vec::with_capacity(nbrs.len() + 1);
    entries.push((i, self_weight.max(0.0)));
    entries.extend(nbrs.iter().map(|&j| (j, alpha)));
    Ok(entries)
}

/// A finite Markov chain given by a row-stochastic CSR transition matrix.
///
/// # Examples
///
/// ```
/// use ale_markov::MarkovChain;
///
/// // Lazy walk on a triangle: every state keeps probability 1/2 in place.
/// let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
/// let chain = MarkovChain::lazy_random_walk(&adj)?;
/// assert_eq!(chain.len(), 3);
/// assert!(chain.transition().is_doubly_stochastic());
/// assert_eq!(chain.step(&[1.0, 0.0, 0.0])?, vec![0.5, 0.25, 0.25]);
/// # Ok::<(), ale_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    p: CsrMatrix,
}

impl MarkovChain {
    /// Wraps an explicit CSR transition matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotSquare`] for non-square input and
    /// [`MarkovError::NotStochastic`] when a row does not describe a
    /// probability distribution.
    pub fn from_csr(p: CsrMatrix) -> Result<Self, MarkovError> {
        if !p.is_square() {
            return Err(MarkovError::NotSquare {
                rows: p.rows(),
                cols: p.cols(),
            });
        }
        if let Some((row, sum)) = p.stochastic_violation() {
            return Err(MarkovError::NotStochastic { row, sum });
        }
        Ok(MarkovChain { p })
    }

    /// Builds the lazy random walk `P = ½I + ½D⁻¹A` over an adjacency list.
    ///
    /// This is exactly the walk used by the paper's random-walk probing: the
    /// token stays put with probability ½ and otherwise moves to a uniformly
    /// random neighbor.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] for an empty graph or if any node has
    /// no neighbors (the walk would be undefined there).
    pub fn lazy_random_walk(adj: &[Vec<usize>]) -> Result<Self, MarkovError> {
        let rows = adj
            .iter()
            .enumerate()
            .map(|(i, nbrs)| {
                if nbrs.is_empty() {
                    Err(MarkovError::Empty)
                } else {
                    Ok(lazy_walk_row(i, nbrs))
                }
            })
            .collect::<Result<_, _>>()?;
        MarkovChain::from_csr(CsrMatrix::from_row_entries(adj.len(), rows)?)
    }

    /// Builds the diffusion matrix `S` of the `Avg` procedure: `s_ij = α`
    /// for every edge `{i, j}` and `s_ii = 1 − α·deg(i)`.
    ///
    /// With `α = 1/(2k^{1+ε})` this is the potential-averaging step in
    /// Algorithm 7 line 8 of the paper. `S` is symmetric (hence doubly
    /// stochastic) whenever `α·deg(i) ≤ 1` for every node.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Empty`] for an empty graph,
    /// [`MarkovError::NotStochastic`] if `α·deg(i) > 1` for some node
    /// (negative self-loop probability).
    pub fn diffusion(adj: &[Vec<usize>], alpha: f64) -> Result<Self, MarkovError> {
        let rows = adj
            .iter()
            .enumerate()
            .map(|(i, nbrs)| diffusion_row(i, nbrs, alpha))
            .collect::<Result<_, _>>()?;
        MarkovChain::from_csr(CsrMatrix::from_row_entries(adj.len(), rows)?)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.p.rows()
    }

    /// Returns `true` when the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the transition matrix.
    pub fn transition(&self) -> &CsrMatrix {
        &self.p
    }

    /// Evolves a distribution one step: returns `µ·P` in `O(nnz)`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] if `mu.len() != self.len()`.
    pub fn step(&self, mu: &[f64]) -> Result<Vec<f64>, MarkovError> {
        self.p.vec_mul(mu)
    }

    /// [`MarkovChain::step`] into a caller-provided buffer — the
    /// allocation-free form long diffusion loops should use.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] on either length mismatch.
    pub fn step_into(&self, mu: &[f64], out: &mut [f64]) -> Result<(), MarkovError> {
        self.p.vec_mul_into(mu, out)
    }

    /// Checks irreducibility: the support digraph of `P` must be strongly
    /// connected. For the symmetric chains used in this workspace this is
    /// plain graph connectivity. Costs `O(nnz)`.
    pub fn is_irreducible(&self) -> bool {
        // Backward reachability = forward reachability in the transpose.
        !self.is_empty() && all_reachable(&self.p) && all_reachable(&self.p.transpose())
    }

    /// Checks aperiodicity via the sufficient condition used throughout the
    /// paper: some state has a self-loop (`p_ii > 0`). Lazy walks and
    /// diffusion matrices always satisfy it.
    pub fn has_self_loop(&self) -> bool {
        (0..self.len()).any(|i| self.p.get(i, i) > EPS)
    }

    /// Computes the stationary distribution by power iteration on `µ ↦ µP`.
    ///
    /// For the doubly-stochastic chains in this workspace the result is the
    /// uniform distribution; the general implementation doubles as a test
    /// oracle for that fact.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Reducible`] when the chain is reducible, and
    /// [`MarkovError::NotConverged`] if `max_iters` steps do not reach the
    /// requested tolerance `tol`.
    pub fn stationary_distribution(
        &self,
        tol: f64,
        max_iters: usize,
    ) -> Result<Vec<f64>, MarkovError> {
        if !self.is_irreducible() {
            return Err(MarkovError::Reducible);
        }
        let n = self.len();
        let mut mu = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        let mut residual = f64::INFINITY;
        for _ in 0..max_iters {
            self.step_into(&mu, &mut next)?;
            residual = vecops::max_abs_diff(&mu, &next);
            std::mem::swap(&mut mu, &mut next);
            if residual < tol {
                vecops::normalize_l1(&mut mu);
                return Ok(mu);
            }
        }
        Err(MarkovError::NotConverged {
            iterations: max_iters,
            residual,
        })
    }
}

/// DFS over `p`'s support from state 0; `true` when every state is hit.
fn all_reachable(p: &CsrMatrix) -> bool {
    let n = p.rows();
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1usize;
    while let Some(u) = stack.pop() {
        let (cols, vals) = p.row(u);
        for (&v, &w) in cols.iter().zip(vals) {
            if w > EPS && !seen[v] {
                seen[v] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::test_csr as csr;

    fn path3() -> Vec<Vec<usize>> {
        vec![vec![1], vec![0, 2], vec![1]]
    }

    fn triangle() -> Vec<Vec<usize>> {
        vec![vec![1, 2], vec![0, 2], vec![0, 1]]
    }

    #[test]
    fn lazy_walk_rows_stochastic_and_lazy() {
        let c = MarkovChain::lazy_random_walk(&path3()).unwrap();
        for i in 0..3 {
            assert!((c.transition().get(i, i) - 0.5).abs() < 1e-12);
        }
        // Degree-1 endpoints put the other half on their single neighbor.
        assert!((c.transition().get(0, 1) - 0.5).abs() < 1e-12);
        assert!((c.transition().get(1, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lazy_walk_regular_graph_is_doubly_stochastic() {
        let c = MarkovChain::lazy_random_walk(&triangle()).unwrap();
        assert!(c.transition().is_doubly_stochastic());
        assert_eq!(c.transition().transpose(), *c.transition());
    }

    #[test]
    fn lazy_walk_rejects_isolated_node() {
        let adj = vec![vec![1], vec![0], vec![]];
        assert!(MarkovChain::lazy_random_walk(&adj).is_err());
        assert!(MarkovChain::lazy_random_walk(&[]).is_err());
    }

    #[test]
    fn diffusion_is_symmetric_doubly_stochastic() {
        let c = MarkovChain::diffusion(&path3(), 0.25).unwrap();
        assert_eq!(c.transition().transpose(), *c.transition());
        assert!(c.transition().is_doubly_stochastic());
        assert_eq!(c.transition().get(0, 1), 0.25);
        assert_eq!(c.transition().get(1, 1), 0.5);
    }

    #[test]
    fn diffusion_rejects_empty_graph() {
        assert!(matches!(
            MarkovChain::diffusion(&[], 0.25),
            Err(MarkovError::Empty)
        ));
    }

    #[test]
    fn diffusion_rejects_overweight_alpha() {
        // Middle node has degree 2; alpha = 0.75 would give s_ii = -0.5.
        assert!(matches!(
            MarkovChain::diffusion(&path3(), 0.75),
            Err(MarkovError::NotStochastic { row: 1, .. })
        ));
    }

    #[test]
    fn from_csr_validates() {
        assert!(matches!(
            MarkovChain::from_csr(csr(&[vec![0.5, 0.4], vec![0.5, 0.5]])),
            Err(MarkovError::NotStochastic { row: 0, .. })
        ));
        assert!(matches!(
            MarkovChain::from_csr(csr(&[vec![0.5, 0.5, 0.0], vec![0.0, 0.5, 0.5]])),
            Err(MarkovError::NotSquare { .. })
        ));
    }

    #[test]
    fn irreducibility_detects_disconnection() {
        let p = csr(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.5, 0.5],
            vec![0.0, 0.5, 0.5],
        ]);
        assert!(!MarkovChain::from_csr(p).unwrap().is_irreducible());
        let c = MarkovChain::lazy_random_walk(&path3()).unwrap();
        assert!(c.is_irreducible());
    }

    #[test]
    fn irreducibility_needs_both_directions() {
        // 0 → 1 but 1 only returns to itself: reducible despite forward
        // reachability from 0.
        let p = csr(&[vec![0.5, 0.5], vec![0.0, 1.0]]);
        assert!(!MarkovChain::from_csr(p).unwrap().is_irreducible());
    }

    #[test]
    fn self_loops_present_on_lazy_chains() {
        assert!(MarkovChain::lazy_random_walk(&triangle())
            .unwrap()
            .has_self_loop());
    }

    #[test]
    fn stationary_uniform_on_doubly_stochastic() {
        let c = MarkovChain::diffusion(&triangle(), 0.2).unwrap();
        let pi = c.stationary_distribution(1e-12, 10_000).unwrap();
        for x in pi {
            assert!((x - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stationary_weighted_on_path() {
        // Lazy walk on a path: stationary ∝ degree = (1, 2, 1)/4.
        let c = MarkovChain::lazy_random_walk(&path3()).unwrap();
        let pi = c.stationary_distribution(1e-13, 100_000).unwrap();
        assert!((pi[0] - 0.25).abs() < 1e-6);
        assert!((pi[1] - 0.5).abs() < 1e-6);
        assert!((pi[2] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn stationary_rejects_reducible() {
        let c = MarkovChain::from_csr(csr(&[vec![1.0, 0.0], vec![0.0, 1.0]])).unwrap();
        assert!(matches!(
            c.stationary_distribution(1e-9, 100),
            Err(MarkovError::Reducible)
        ));
    }

    #[test]
    fn step_moves_mass() {
        let c = MarkovChain::lazy_random_walk(&path3()).unwrap();
        let mu = c.step(&[1.0, 0.0, 0.0]).unwrap();
        assert!((mu[0] - 0.5).abs() < 1e-12);
        assert!((mu[1] - 0.5).abs() < 1e-12);
        assert_eq!(mu[2], 0.0);
        let mut out = vec![0.0; 3];
        c.step_into(&[1.0, 0.0, 0.0], &mut out).unwrap();
        assert_eq!(out, mu);
    }
}
