//! Conductance of Markov chains.
//!
//! Section 2 of the paper uses two related notions:
//!
//! * the **Sinclair–Jerrum chain conductance** `φ(P)` over a state space with
//!   stationary distribution `π`, and
//! * its simplification for symmetric transition matrices with uniform
//!   stationary distribution:
//!   `φ(P) = min_{S ⊂ V} (Σ_{i∈S, j∉S} p_ij) / min(|S|, |S̄|)`.
//!
//! The analysis of the revocable protocol (proof of Theorem 3) connects this
//! to the graph's isoperimetric number via `i(G) = φ · 2k^{1+ε}` when the
//! diffusion shares fraction `1/(2k^{1+ε})` per link. The brute-force
//! computation here is exponential in `n` and guarded accordingly; it exists
//! as an exact oracle for tests and for the small instances used in the
//! lemma-level experiments.

use crate::error::MarkovError;
use crate::matrix::CsrMatrix;

/// Maximum state count accepted by the exact (exponential) computations.
pub const BRUTE_FORCE_LIMIT: usize = 22;

/// Exact chain conductance for a **symmetric** transition matrix with
/// uniform stationary distribution (the paper's simplified definition).
///
/// # Errors
///
/// * [`MarkovError::NotSquare`] for non-square input.
/// * [`MarkovError::DimensionMismatch`] when `n > BRUTE_FORCE_LIMIT`
///   (the brute force would not terminate in reasonable time; the `expected`
///   field carries the limit).
/// * [`MarkovError::Empty`] when `n < 2` (no non-trivial cut exists).
///
/// # Examples
///
/// ```
/// use ale_markov::{MarkovChain, conductance};
/// let adj = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
/// let c = MarkovChain::lazy_random_walk(&adj)?;
/// let phi = conductance::chain_conductance_exact(c.transition())?;
/// // Lazy triangle: best cut isolates one node, crossing mass 2·(1/4) = 1/2.
/// assert!((phi - 0.5).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn chain_conductance_exact(p: &CsrMatrix) -> Result<f64, MarkovError> {
    if !p.is_square() {
        return Err(MarkovError::NotSquare {
            rows: p.rows(),
            cols: p.cols(),
        });
    }
    let n = p.rows();
    if n < 2 {
        return Err(MarkovError::Empty);
    }
    if n > BRUTE_FORCE_LIMIT {
        return Err(MarkovError::DimensionMismatch {
            expected: BRUTE_FORCE_LIMIT,
            found: n,
        });
    }
    let mut best = f64::INFINITY;
    // Fix node 0 outside S (complement symmetry) and enumerate subsets of
    // the remaining n-1 nodes; covers every cut exactly once.
    let mask_count: u64 = 1u64 << (n - 1);
    for mask in 1..mask_count {
        let mut members = Vec::with_capacity(n);
        for b in 0..(n - 1) {
            if mask >> b & 1 == 1 {
                members.push(b + 1);
            }
        }
        let size = members.len();
        let min_side = size.min(n - size) as f64;
        let mut crossing = 0.0;
        let in_s = {
            let mut v = vec![false; n];
            for &m in &members {
                v[m] = true;
            }
            v
        };
        for &i in &members {
            let (cols, vals) = p.row(i);
            for (&j, &w) in cols.iter().zip(vals) {
                if !in_s[j] {
                    crossing += w;
                }
            }
        }
        let ratio = crossing / min_side;
        if ratio < best {
            best = ratio;
        }
    }
    Ok(best)
}

/// General Sinclair–Jerrum conductance for a chain with stationary
/// distribution `pi`:
///
/// `φ(P) = min_S max( Q(S, S̄)/π(S), Q(S̄, S)/π(S̄) )`
/// with `Q(A, B) = Σ_{i∈A, j∈B} π_i p_ij`.
///
/// # Errors
///
/// Same conditions as [`chain_conductance_exact`], plus
/// [`MarkovError::DimensionMismatch`] if `pi.len() != n`.
pub fn chain_conductance_general(p: &CsrMatrix, pi: &[f64]) -> Result<f64, MarkovError> {
    if !p.is_square() {
        return Err(MarkovError::NotSquare {
            rows: p.rows(),
            cols: p.cols(),
        });
    }
    let n = p.rows();
    if pi.len() != n {
        return Err(MarkovError::DimensionMismatch {
            expected: n,
            found: pi.len(),
        });
    }
    if n < 2 {
        return Err(MarkovError::Empty);
    }
    if n > BRUTE_FORCE_LIMIT {
        return Err(MarkovError::DimensionMismatch {
            expected: BRUTE_FORCE_LIMIT,
            found: n,
        });
    }
    let mut best = f64::INFINITY;
    let mask_count: u64 = 1u64 << (n - 1);
    for mask in 1..mask_count {
        let mut in_s = vec![false; n];
        for b in 0..(n - 1) {
            if mask >> b & 1 == 1 {
                in_s[b + 1] = true;
            }
        }
        let mut q_out = 0.0; // Q(S, S̄)
        let mut q_in = 0.0; // Q(S̄, S)
        let mut pi_s = 0.0;
        for i in 0..n {
            if in_s[i] {
                pi_s += pi[i];
            }
            let (cols, vals) = p.row(i);
            for (&j, &w) in cols.iter().zip(vals) {
                if in_s[i] && !in_s[j] {
                    q_out += pi[i] * w;
                } else if !in_s[i] && in_s[j] {
                    q_in += pi[i] * w;
                }
            }
        }
        let pi_sbar = 1.0 - pi_s;
        if pi_s <= 0.0 || pi_sbar <= 0.0 {
            continue;
        }
        let val = (q_out / pi_s).max(q_in / pi_sbar);
        if val < best {
            best = val;
        }
    }
    Ok(best)
}

/// Verifies the Cheeger-type inequalities `φ²/2 ≤ 1 − λ₂ ≤ 2φ`
/// (Sinclair–Jerrum Lemma 3.3, used in the proof of Lemma 4).
///
/// Returns `(lower_ok, upper_ok)`.
pub fn cheeger_band(phi: f64, lambda2: f64) -> (bool, bool) {
    let gap = 1.0 - lambda2;
    let eps = 1e-9;
    (gap + eps >= phi * phi / 2.0, gap <= 2.0 * phi + eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::MarkovChain;
    use crate::matrix::test_csr;
    use crate::spectral::jacobi_eigen;

    fn lazy(adj: &[Vec<usize>]) -> MarkovChain {
        MarkovChain::lazy_random_walk(adj).unwrap()
    }

    fn cycle_adj(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect()
    }

    fn identity(n: usize) -> CsrMatrix {
        CsrMatrix::from_row_entries(n, (0..n).map(|i| vec![(i, 1.0)]).collect()).unwrap()
    }

    #[test]
    fn triangle_conductance() {
        let c = lazy(&[vec![1, 2], vec![0, 2], vec![0, 1]]);
        let phi = chain_conductance_exact(c.transition()).unwrap();
        assert!((phi - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cycle_conductance_halves_with_size() {
        // Lazy cycle: best cut is an arc of n/2 nodes, crossing mass
        // 2 edges × 1/4 = 1/2, divided by n/2 → 1/n.
        let c8 = lazy(&cycle_adj(8));
        let phi8 = chain_conductance_exact(c8.transition()).unwrap();
        assert!((phi8 - 1.0 / 8.0).abs() < 1e-12, "phi8 = {phi8}");
        let c12 = lazy(&cycle_adj(12));
        let phi12 = chain_conductance_exact(c12.transition()).unwrap();
        assert!((phi12 - 1.0 / 12.0).abs() < 1e-12, "phi12 = {phi12}");
    }

    #[test]
    fn general_matches_simplified_on_symmetric() {
        let c = lazy(&cycle_adj(6));
        let n = 6;
        let pi = vec![1.0 / n as f64; n];
        let general = chain_conductance_general(c.transition(), &pi).unwrap();
        let simple = chain_conductance_exact(c.transition()).unwrap();
        // For uniform π: Q(S,S̄)/π(S) = (1/n · crossing)/(|S|/n) = crossing/|S|;
        // the max over both sides equals crossing/min(|S|,|S̄|).
        assert!((general - simple).abs() < 1e-12);
    }

    #[test]
    fn rejects_oversized_input() {
        assert!(chain_conductance_exact(&identity(BRUTE_FORCE_LIMIT + 1)).is_err());
    }

    #[test]
    fn rejects_trivial_input() {
        assert!(chain_conductance_exact(&identity(1)).is_err());
        let rect = CsrMatrix::from_row_entries(3, vec![vec![], vec![]]).unwrap();
        assert!(chain_conductance_exact(&rect).is_err());
    }

    #[test]
    fn disconnected_chain_has_zero_conductance() {
        let p = test_csr(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.5, 0.5],
            vec![0.0, 0.0, 0.5, 0.5],
        ]);
        assert_eq!(chain_conductance_exact(&p).unwrap(), 0.0);
    }

    #[test]
    fn cheeger_band_holds_on_small_graphs() {
        for adj in [
            cycle_adj(6),
            cycle_adj(10),
            vec![vec![1, 2], vec![0, 2], vec![0, 1]],
            vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]],
        ] {
            let c = lazy(&adj);
            let phi = chain_conductance_exact(c.transition()).unwrap();
            let l2 = jacobi_eigen(&c.transition().to_dense(), 200)
                .unwrap()
                .values[1];
            let (lo, hi) = cheeger_band(phi, l2);
            assert!(lo, "Cheeger lower bound violated: phi={phi}, l2={l2}");
            assert!(hi, "Cheeger upper bound violated: phi={phi}, l2={l2}");
        }
    }

    #[test]
    fn general_dimension_check() {
        assert!(chain_conductance_general(&identity(3), &[0.5, 0.5]).is_err());
    }
}
