//! `Graph → CsrMatrix` transition-matrix constructors: the sparse bridge
//! between the graph substrate and `ale-markov`.
//!
//! A transition matrix built from a graph has exactly `n + 2m` non-zero
//! entries (one self-loop plus the edge endpoints), so the CSR form costs
//! `O(m)` memory and `O(m)` per chain step — versus `O(n²)` dense, which is
//! what lets the `diffusion` / `thresholds` scenario sweeps reach tens of
//! thousands of nodes. The rows come from the same
//! `ale_markov::chain::{lazy_walk_row, diffusion_row}` that
//! [`MarkovChain`]'s adjacency-list constructors use.
//!
//! [`normalized_lazy_csr`] builds the symmetric operator
//! `N = ½I + ½D^{-1/2}AD^{-1/2}` that [`crate::spectral_sparse`] iterates —
//! the previously hand-rolled matrix-free loop there now runs on the same
//! CSR kernel as everything else.

use crate::error::GraphError;
use crate::graph::Graph;
use ale_markov::chain::{diffusion_row, lazy_walk_row};
use ale_markov::{CsrMatrix, MarkovChain, MarkovError};

fn numeric(context: &str, e: MarkovError) -> GraphError {
    GraphError::Numeric {
        reason: format!("{context}: {e}"),
    }
}

/// CSR form of the lazy random walk `P = ½I + ½D⁻¹A`.
///
/// Every validated [`Graph`] is connected (hence free of isolated nodes),
/// so the walk is always well defined.
///
/// # Examples
///
/// ```
/// use ale_graph::{generators, transition};
/// let g = generators::cycle(8)?;
/// let p = transition::lazy_walk_csr(&g);
/// assert_eq!(p.rows(), 8);
/// assert_eq!(p.nnz(), 8 + 2 * 8); // n self-loops + 2m edge entries
/// assert!(p.stochastic_violation().is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lazy_walk_csr(g: &Graph) -> CsrMatrix {
    let n = g.n();
    let mut nbrs = Vec::new();
    let rows = (0..n)
        .map(|v| {
            nbrs.clear();
            nbrs.extend(g.neighbors(v));
            lazy_walk_row(v, &nbrs)
        })
        .collect();
    CsrMatrix::from_row_entries(n, rows).expect("validated graph yields a well-formed CSR")
}

/// CSR form of the diffusion matrix `S` of the `Avg` procedure:
/// `s_ij = α` per edge, `s_ii = 1 − α·deg(i)`.
///
/// # Errors
///
/// [`GraphError::Numeric`] when `α·deg(i) > 1` for some node (the matrix
/// would not be stochastic there).
pub fn diffusion_csr(g: &Graph, alpha: f64) -> Result<CsrMatrix, GraphError> {
    let n = g.n();
    let mut rows = Vec::with_capacity(n);
    let mut nbrs = Vec::new();
    for v in 0..n {
        nbrs.clear();
        nbrs.extend(g.neighbors(v));
        rows.push(diffusion_row(v, &nbrs, alpha).map_err(|e| numeric("diffusion row", e))?);
    }
    CsrMatrix::from_row_entries(n, rows).map_err(|e| numeric("diffusion csr", e))
}

/// CSR form of the symmetric normalized lazy operator
/// `N = ½I + ½D^{-1/2}AD^{-1/2}` — similar to the lazy walk (shares its
/// eigenvalues), with principal eigenvector `∝ √deg`.
pub fn normalized_lazy_csr(g: &Graph) -> CsrMatrix {
    let n = g.n();
    let sqrt_deg: Vec<f64> = (0..n).map(|v| (g.degree(v) as f64).sqrt()).collect();
    let mut rows = Vec::with_capacity(n);
    for v in 0..n {
        let deg = g.degree(v);
        let mut entries = Vec::with_capacity(deg + 1);
        entries.push((v, 0.5));
        entries.extend(
            g.neighbors(v)
                .map(|u| (u, 0.5 / (sqrt_deg[v] * sqrt_deg[u]))),
        );
        rows.push(entries);
    }
    CsrMatrix::from_row_entries(n, rows).expect("validated graph yields a well-formed CSR")
}

/// Lazy random walk chain over `g` — `O(m)` per step.
///
/// # Errors
///
/// [`GraphError::Numeric`] if chain validation fails (cannot happen for a
/// validated graph; kept for API honesty).
///
/// # Examples
///
/// ```
/// use ale_graph::{generators, transition};
/// let g = generators::grid2d(4, 4, true)?;
/// let chain = transition::lazy_walk_chain(&g)?;
/// assert!(chain.transition().is_doubly_stochastic());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lazy_walk_chain(g: &Graph) -> Result<MarkovChain, GraphError> {
    MarkovChain::from_csr(lazy_walk_csr(g)).map_err(|e| numeric("lazy walk chain", e))
}

/// Diffusion chain over `g` — `O(m)` per step.
///
/// # Errors
///
/// [`GraphError::Numeric`] when `α·deg(i) > 1` for some node.
pub fn diffusion_chain(g: &Graph, alpha: f64) -> Result<MarkovChain, GraphError> {
    MarkovChain::from_csr(diffusion_csr(g, alpha)?).map_err(|e| numeric("diffusion chain", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn lazy_walk_csr_matches_adjacency_constructor() {
        for g in [
            generators::cycle(9).unwrap(),
            generators::star(7).unwrap(),
            generators::grid2d(3, 4, false).unwrap(),
        ] {
            let csr = lazy_walk_csr(&g);
            let chain = MarkovChain::lazy_random_walk(&g.adjacency()).unwrap();
            assert_eq!(csr, *chain.transition(), "n = {}", g.n());
            assert_eq!(csr.nnz(), g.n() + 2 * g.m());
        }
    }

    #[test]
    fn diffusion_csr_matches_adjacency_constructor() {
        let g = generators::hypercube(3).unwrap();
        let alpha = 0.1;
        let csr = diffusion_csr(&g, alpha).unwrap();
        let chain = MarkovChain::diffusion(&g.adjacency(), alpha).unwrap();
        assert_eq!(csr, *chain.transition());
        assert_eq!(csr.transpose(), csr);
        assert!(csr.is_doubly_stochastic());
    }

    #[test]
    fn diffusion_csr_rejects_overweight_alpha() {
        let g = generators::star(5).unwrap();
        // Hub degree 4: alpha 0.3 gives self-weight -0.2.
        assert!(matches!(
            diffusion_csr(&g, 0.3),
            Err(GraphError::Numeric { .. })
        ));
        assert!(diffusion_chain(&g, 0.3).is_err());
    }

    #[test]
    fn chains_are_valid() {
        let g = generators::grid2d(5, 5, true).unwrap();
        let walk = lazy_walk_chain(&g).unwrap();
        assert!(walk.transition().is_doubly_stochastic());
        let diff = diffusion_chain(&g, 0.05).unwrap();
        assert_eq!(diff.transition().transpose(), *diff.transition());
    }

    /// FNV-1a over the bits of every iterate of 64 `step_into` steps of
    /// `chain` from `mu`.
    fn step_digest(chain: &MarkovChain, mut mu: Vec<f64>) -> u64 {
        let mut next = vec![0.0; mu.len()];
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for _ in 0..64 {
            chain.step_into(&mu, &mut next).unwrap();
            std::mem::swap(&mut mu, &mut next);
            for x in &mu {
                digest = (digest ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
            }
        }
        digest
    }

    #[test]
    fn step_bits_are_pinned() {
        // Stored diffusion and walk runs carry these bits, so a change to
        // the order of a chain step's sums shows up here first. The start
        // vectors hold zeros (the skipped inputs) and non-dyadic values.
        let torus = generators::grid2d(8, 8, true).unwrap();
        let diffusion = diffusion_chain(&torus, 0.1).unwrap();
        let potential = (0..64)
            .map(|i| if i % 7 == 0 { 0.0 } else { 1.0 })
            .collect();
        assert_eq!(step_digest(&diffusion, potential), 0x8dc6_7623_3866_e9a8);
        let walk = lazy_walk_chain(&generators::cycle(9).unwrap()).unwrap();
        let mu = (0..9).map(|i| i as f64 / 36.0).collect();
        assert_eq!(step_digest(&walk, mu), 0x5aba_29d1_3d31_4de8);
    }

    #[test]
    fn normalized_operator_is_symmetric_with_sqrt_deg_principal() {
        let g = generators::star(9).unwrap();
        let n_op = normalized_lazy_csr(&g);
        assert_eq!(n_op.transpose(), n_op);
        // N · √deg = √deg (eigenvalue 1).
        let sqrt_deg: Vec<f64> = (0..g.n()).map(|v| (g.degree(v) as f64).sqrt()).collect();
        let mut out = vec![0.0; g.n()];
        n_op.mul_vec_into(&sqrt_deg, &mut out).unwrap();
        for (a, b) in out.iter().zip(&sqrt_deg) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
