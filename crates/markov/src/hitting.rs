//! Linear systems and expected hitting times.
//!
//! Lemma 2 of the paper reasons about random walks *hitting* broadcast
//! territories. The exact finite-chain counterpart is the expected hitting
//! time `h_i = E[steps from i until the walk first enters the target set]`,
//! which solves the linear system
//!
//! `h_i = 0` for targets, `h_i = 1 + Σ_j p_ij·h_j` otherwise.
//!
//! Two solution paths are provided, dispatched automatically by
//! [`expected_hitting_times`]:
//!
//! * a **direct** dense Gaussian-elimination solver ([`solve`], partial
//!   pivoting over a single flat buffer) for small non-target blocks —
//!   exact, `O(k³)`; and
//! * **Gauss–Seidel sweeps** ([`expected_hitting_times_iterative`]) over
//!   the chain's CSR rows, `O(nnz)` per sweep — the path that scales to
//!   the large sparse chains. The iteration matrix is substochastic on
//!   every row that can reach a target, so the sweeps converge
//!   monotonically from below.

use crate::chain::MarkovChain;
use crate::error::MarkovError;
use crate::matrix::Matrix;

/// Non-target block size up to which [`expected_hitting_times`] uses the
/// direct dense solver; larger systems go through Gauss–Seidel.
pub const DIRECT_SOLVE_LIMIT: usize = 2048;

/// Default tolerance for the Gauss–Seidel path of
/// [`expected_hitting_times`].
pub const GS_TOL: f64 = 1e-12;

/// Default sweep budget for the Gauss–Seidel path of
/// [`expected_hitting_times`].
pub const GS_MAX_SWEEPS: usize = 1_000_000;

/// Solves `A·x = b` by Gaussian elimination with partial pivoting.
///
/// The augmented system lives in one flat `n × (n + 1)` buffer (no
/// per-row allocations); rows are swapped by index indirection.
///
/// # Errors
///
/// * [`MarkovError::NotSquare`] / [`MarkovError::DimensionMismatch`] on
///   malformed input.
/// * [`MarkovError::NotConverged`] when a pivot is numerically zero or
///   non-finite (the system is singular, or NaN/∞ crept into the input);
///   `residual` carries the failing pivot magnitude. No input panics.
///
/// # Examples
///
/// ```
/// use ale_markov::{hitting, Matrix};
/// let mut a = Matrix::identity(2);
/// a[(0, 0)] = 2.0;
/// a[(0, 1)] = 1.0;
/// a[(1, 0)] = 1.0;
/// a[(1, 1)] = 3.0;
/// let x = hitting::solve(&a, &[5.0, 10.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, MarkovError> {
    if !a.is_square() {
        return Err(MarkovError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if b.len() != n {
        return Err(MarkovError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    // Augmented working copy: one flat buffer, width n + 1.
    let w = n + 1;
    let mut m = vec![0.0f64; n * w];
    for i in 0..n {
        m[i * w..i * w + n].copy_from_slice(a.row(i));
        m[i * w + n] = b[i];
    }
    // Row permutation: swap indices, not buffer rows.
    let mut perm: Vec<usize> = (0..n).collect();
    // Scratch copy of the pivot row's active segment, so elimination can
    // borrow the destination row mutably without aliasing the source.
    let mut pivot_seg = vec![0.0f64; w];

    for col in 0..n {
        // Partial pivot. NaN pivots lose every comparison, so a NaN-ridden
        // column falls through to the singularity check below instead of
        // panicking.
        let mut pivot_row = col;
        let mut pivot_mag = m[perm[col] * w + col].abs();
        for (r, &pr) in perm.iter().enumerate().skip(col + 1) {
            let mag = m[pr * w + col].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        // The NaN check covers poisoned input — singular and NaN-ridden
        // systems surface as an error, never a panic or a NaN result.
        if pivot_mag.is_nan() || pivot_mag < 1e-12 {
            return Err(MarkovError::NotConverged {
                iterations: col,
                residual: pivot_mag,
            });
        }
        perm.swap(col, pivot_row);
        let prow = perm[col];
        let pivot = m[prow * w + col];
        pivot_seg[col..w].copy_from_slice(&m[prow * w + col..prow * w + w]);
        for &rrow in &perm[col + 1..] {
            let factor = m[rrow * w + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            let dst = &mut m[rrow * w + col..rrow * w + w];
            for (d, s) in dst.iter_mut().zip(&pivot_seg[col..w]) {
                *d -= factor * s;
            }
        }
    }

    // Back substitution through the permutation.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let pr = perm[row];
        let mut acc = m[pr * w + n];
        for k in (row + 1)..n {
            acc -= m[pr * w + k] * x[k];
        }
        x[row] = acc / m[pr * w + row];
    }
    Ok(x)
}

/// Expected hitting times into `targets` for every start state.
///
/// Returns `h` with `h[i] = 0` for targets and the expected step count
/// otherwise. Dispatches on problem size: non-target blocks up to
/// [`DIRECT_SOLVE_LIMIT`] states use the exact direct solver, built from
/// the chain's stored entries; larger blocks use Gauss–Seidel sweeps at
/// [`GS_TOL`].
///
/// # Errors
///
/// * [`MarkovError::Empty`] when `targets` is empty or out of range.
/// * Solver errors when the non-target block is singular (the chain cannot
///   reach the targets from somewhere — e.g. a reducible chain), or when
///   the iterative path does not converge.
///
/// # Examples
///
/// ```
/// use ale_markov::{hitting, MarkovChain};
/// // Lazy walk on a path of 3 nodes; hit node 2 from node 0.
/// let adj = vec![vec![1], vec![0, 2], vec![1]];
/// let chain = MarkovChain::lazy_random_walk(&adj)?;
/// let h = hitting::expected_hitting_times(&chain, &[2])?;
/// assert_eq!(h[2], 0.0);
/// assert!(h[0] > h[1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn expected_hitting_times(
    chain: &MarkovChain,
    targets: &[usize],
) -> Result<Vec<f64>, MarkovError> {
    let n = chain.len();
    if targets.is_empty() || targets.iter().any(|&t| t >= n) {
        return Err(MarkovError::Empty);
    }
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[t] = true;
    }
    let others: Vec<usize> = (0..n).filter(|&i| !is_target[i]).collect();
    if others.is_empty() {
        return Ok(vec![0.0; n]);
    }
    if others.len() > DIRECT_SOLVE_LIMIT {
        return expected_hitting_times_iterative(chain, targets, GS_TOL, GS_MAX_SWEEPS);
    }
    // (I - Q)·h = 1 over the non-target block.
    let p = chain.transition();
    let k = others.len();
    let mut index_of = vec![usize::MAX; n];
    for (ri, &i) in others.iter().enumerate() {
        index_of[i] = ri;
    }
    let mut a = Matrix::zeros(k, k);
    for (ri, &i) in others.iter().enumerate() {
        a[(ri, ri)] = 1.0;
        let (cols, vals) = p.row(i);
        for (&j, &q) in cols.iter().zip(vals) {
            let ci = index_of[j];
            if ci != usize::MAX {
                a[(ri, ci)] -= q;
            }
        }
    }
    let h_others = solve(&a, &vec![1.0; k])?;
    let mut h = vec![0.0; n];
    for (ri, &i) in others.iter().enumerate() {
        h[i] = h_others[ri];
    }
    Ok(h)
}

/// Expected hitting times by Gauss–Seidel sweeps: repeatedly applies
/// `h_i ← 1 + Σ_j p_ij·h_j` over non-target states (targets pinned at 0)
/// until the largest per-state update falls below `tol`.
///
/// Each sweep costs `O(nnz)` — on a chain over an `m`-edge graph that is
/// `O(m)`, which is what makes
/// hitting-time computation feasible at the tens-of-thousands-of-nodes
/// scale. Starting from `h = 0`, iterates increase monotonically towards
/// the true solution.
///
/// # Errors
///
/// * [`MarkovError::Empty`] for empty/out-of-range targets.
/// * [`MarkovError::NotConverged`] when `max_sweeps` sweeps do not reach
///   `tol` (slowly mixing chains; raise the budget) — also the outcome for
///   chains that cannot reach the targets at all, where the true hitting
///   times are infinite.
pub fn expected_hitting_times_iterative(
    chain: &MarkovChain,
    targets: &[usize],
    tol: f64,
    max_sweeps: usize,
) -> Result<Vec<f64>, MarkovError> {
    let n = chain.len();
    if targets.is_empty() || targets.iter().any(|&t| t >= n) {
        return Err(MarkovError::Empty);
    }
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[t] = true;
    }
    let p = chain.transition();
    let mut h = vec![0.0f64; n];
    let mut delta = f64::INFINITY;
    for _ in 0..max_sweeps {
        delta = 0.0;
        for i in 0..n {
            if is_target[i] {
                continue;
            }
            let (cols, vals) = p.row(i);
            let mut acc = 1.0;
            for (&j, &q) in cols.iter().zip(vals) {
                acc += q * h[j];
            }
            let d = (acc - h[i]).abs();
            if d > delta {
                delta = d;
            }
            h[i] = acc;
        }
        if delta < tol {
            return Ok(h);
        }
    }
    Err(MarkovError::NotConverged {
        iterations: max_sweeps,
        residual: delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{test_csr, test_dense};

    #[test]
    fn solve_known_system() {
        let a = test_dense(&[
            vec![3.0, 2.0, -1.0],
            vec![2.0, -2.0, 4.0],
            vec![-1.0, 0.5, -1.0],
        ]);
        let x = solve(&a, &[1.0, -2.0, 0.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] + 2.0).abs() < 1e-10);
        assert!((x[2] + 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_requires_square_and_matching_rhs() {
        assert!(solve(&Matrix::zeros(2, 3), &[1.0, 2.0]).is_err());
        assert!(solve(&Matrix::identity(2), &[1.0]).is_err());
    }

    #[test]
    fn singular_system_is_detected() {
        let a = test_dense(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(MarkovError::NotConverged { .. })
        ));
    }

    #[test]
    fn nan_input_errors_instead_of_panicking() {
        let a = test_dense(&[vec![f64::NAN, 1.0], vec![1.0, 1.0]]);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(MarkovError::NotConverged { .. })
        ));
        let all_nan = test_dense(&[vec![f64::NAN, f64::NAN], vec![f64::NAN, f64::NAN]]);
        assert!(solve(&all_nan, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = test_dense(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gambler_ruin_hitting_times() {
        // Simple (non-lazy) symmetric walk on a path 0..=4 hitting {4}:
        // classic h[i] = (4-i)(4+i) for reflecting 0? Use the lazy walk and
        // check monotonicity + exactness via the recurrence instead.
        let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2, 4], vec![3]];
        let chain = MarkovChain::lazy_random_walk(&adj).unwrap();
        let h = expected_hitting_times(&chain, &[4]).unwrap();
        assert_eq!(h[4], 0.0);
        for i in 0..4 {
            assert!(h[i] > h[i + 1], "hitting times decrease towards target");
            // Verify the defining recurrence h_i = 1 + Σ p_ij h_j.
            let p = chain.transition();
            let rhs: f64 = 1.0 + (0..5).map(|j| p.get(i, j) * h[j]).sum::<f64>();
            assert!((h[i] - rhs).abs() < 1e-9, "recurrence at {i}");
        }
    }

    #[test]
    fn iterative_matches_direct() {
        let adj: Vec<Vec<usize>> = (0..10).map(|i| vec![(i + 9) % 10, (i + 1) % 10]).collect();
        let chain = MarkovChain::lazy_random_walk(&adj).unwrap();
        let direct = expected_hitting_times(&chain, &[0]).unwrap();
        let gs = expected_hitting_times_iterative(&chain, &[0], 1e-13, 1_000_000).unwrap();
        for (a, b) in direct.iter().zip(&gs) {
            assert!((a - b).abs() < 1e-9, "direct {a} vs GS {b}");
        }
    }

    #[test]
    fn iterative_reports_non_convergence_for_unreachable_targets() {
        let p = test_csr(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.5, 0.5],
            vec![0.0, 0.5, 0.5],
        ]);
        let chain = MarkovChain::from_csr(p).unwrap();
        // State 0 never reaches {1}: hitting time infinite; GS cannot settle.
        assert!(matches!(
            expected_hitting_times_iterative(&chain, &[1], 1e-10, 5_000),
            Err(MarkovError::NotConverged { .. })
        ));
    }

    #[test]
    fn bigger_target_sets_hit_faster() {
        let adj: Vec<Vec<usize>> = (0..8).map(|i| vec![(i + 7) % 8, (i + 1) % 8]).collect();
        let chain = MarkovChain::lazy_random_walk(&adj).unwrap();
        let small = expected_hitting_times(&chain, &[0]).unwrap();
        let big = expected_hitting_times(&chain, &[0, 1, 2, 3]).unwrap();
        for i in 4..8 {
            assert!(
                big[i] <= small[i] + 1e-9,
                "larger territories must be hit no later (Lemma 2's engine)"
            );
        }
    }

    #[test]
    fn all_targets_trivial() {
        let adj = vec![vec![1], vec![0]];
        let chain = MarkovChain::lazy_random_walk(&adj).unwrap();
        let h = expected_hitting_times(&chain, &[0, 1]).unwrap();
        assert_eq!(h, vec![0.0, 0.0]);
    }

    #[test]
    fn rejects_bad_targets() {
        let adj = vec![vec![1], vec![0]];
        let chain = MarkovChain::lazy_random_walk(&adj).unwrap();
        assert!(expected_hitting_times(&chain, &[]).is_err());
        assert!(expected_hitting_times(&chain, &[5]).is_err());
        assert!(expected_hitting_times_iterative(&chain, &[], 1e-9, 10).is_err());
        assert!(expected_hitting_times_iterative(&chain, &[5], 1e-9, 10).is_err());
    }

    #[test]
    fn empty_system() {
        let x = solve(&Matrix::zeros(0, 0), &[]).unwrap_or_default();
        assert!(x.is_empty());
    }
}
