//! Jacobi eigendecomposition of symmetric matrices.
//!
//! The second-largest eigenvalue `λ₂` of a lazy-walk or diffusion matrix
//! controls mixing (Lemma 4 of the paper uses
//! `r ≥ log(n/γ)/log(1/λ₁)` with `log 1/λ ≥ 1 − λ` and the Cheeger-type
//! bound `1 − λ ≥ φ²/2` from Sinclair–Jerrum). [`jacobi_eigen`] computes
//! every eigenvalue exactly on the dense form of a small chain
//! (`chain.transition().to_dense()`). It is the oracle that the harness's
//! sparse `λ₂` power iteration, `ale_graph::spectral_sparse::lambda2_lazy`,
//! is tested against.

use crate::error::MarkovError;
use crate::matrix::Matrix;

/// Result of a full symmetric eigendecomposition.
///
/// Eigenvalues are sorted in descending order; `vectors.row(i)` is the
/// normalized eigenvector for `values[i]`.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Row-major eigenvectors aligned with `values`.
    pub vectors: Matrix,
}

/// Computes the full eigendecomposition of a symmetric matrix with the
/// cyclic Jacobi rotation method.
///
/// Intended for the moderate sizes used in property computation (n up to a
/// couple of thousand; cost is `O(n³)` per sweep with a handful of sweeps).
///
/// # Errors
///
/// * [`MarkovError::NotSquare`] if `m` is not square.
/// * [`MarkovError::NotConverged`] if off-diagonal mass does not vanish
///   within the sweep budget (does not happen for symmetric input).
///
/// # Examples
///
/// ```
/// use ale_markov::{Matrix, spectral};
/// let mut m = Matrix::identity(2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 2.0;
/// m[(0, 1)] = 1.0;
/// m[(1, 0)] = 1.0;
/// let eig = spectral::jacobi_eigen(&m, 100)?;
/// assert!((eig.values[0] - 3.0).abs() < 1e-10);
/// assert!((eig.values[1] - 1.0).abs() < 1e-10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn jacobi_eigen(m: &Matrix, max_sweeps: usize) -> Result<Eigen, MarkovError> {
    if !m.is_square() {
        return Err(MarkovError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    let n = m.rows();
    if n == 0 {
        return Err(MarkovError::Empty);
    }
    let mut a = m.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-12 * n as f64;

    for _sweep in 0..max_sweeps {
        let off: f64 = off_diagonal_norm(&a);
        if off < tol {
            return Ok(sorted_eigen(a, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() < 1e-15 {
                    continue;
                }
                // Classic Jacobi rotation zeroing a[(p, q)].
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                apply_rotation(&mut a, p, q, c, s);
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(MarkovError::NotConverged {
        iterations: max_sweeps,
        residual: off_diagonal_norm(&a),
    })
}

fn off_diagonal_norm(a: &Matrix) -> f64 {
    let n = a.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += a[(i, j)] * a[(i, j)];
        }
    }
    s.sqrt()
}

fn apply_rotation(a: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = a.rows();
    for k in 0..n {
        let akp = a[(k, p)];
        let akq = a[(k, q)];
        a[(k, p)] = c * akp - s * akq;
        a[(k, q)] = s * akp + c * akq;
    }
    for k in 0..n {
        let apk = a[(p, k)];
        let aqk = a[(q, k)];
        a[(p, k)] = c * apk - s * aqk;
        a[(q, k)] = s * apk + c * aqk;
    }
}

fn sorted_eigen(a: Matrix, v: Matrix) -> Eigen {
    let n = a.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
    idx.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap());
    let values: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (r, &i) in idx.iter().enumerate() {
        for k in 0..n {
            vectors[(r, k)] = v[(k, i)];
        }
    }
    Eigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::MarkovChain;
    use crate::matrix::test_dense;

    #[test]
    fn jacobi_diagonalizes_2x2() {
        let m = test_dense(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let eig = jacobi_eigen(&m, 100).unwrap();
        assert!((eig.values[0] - 3.0).abs() < 1e-10);
        assert!((eig.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_identity_eigenvalues_all_one() {
        let eig = jacobi_eigen(&Matrix::identity(5), 10).unwrap();
        for v in eig.values {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi_rejects_rectangular() {
        assert!(jacobi_eigen(&Matrix::zeros(2, 3), 10).is_err());
    }

    #[test]
    fn jacobi_eigenvectors_satisfy_definition() {
        let m = test_dense(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let eig = jacobi_eigen(&m, 200).unwrap();
        for r in 0..3 {
            let v = eig.vectors.row(r);
            for k in 0..3 {
                let mv: f64 = m.row(k).iter().zip(v).map(|(a, b)| a * b).sum();
                assert!(
                    (mv - eig.values[r] * v[k]).abs() < 1e-8,
                    "eigenpair {r} violated"
                );
            }
        }
    }

    #[test]
    fn lambda2_of_lazy_walks() {
        let cycle6: Vec<Vec<usize>> = (0..6).map(|i| vec![(i + 5) % 6, (i + 1) % 6]).collect();
        for (adj, l2) in [
            // Lazy triangle: eigenvalues 1, 1/4, 1/4.
            (vec![vec![1, 2], vec![0, 2], vec![0, 1]], 0.25),
            // Lazy C6: λ₂ = 1/2 + cos(2π/6)/2.
            (cycle6, 0.75),
            // Lazy K4: non-principal eigenvalues 1/2 − 1/6 = 1/3.
            (
                vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]],
                1.0 / 3.0,
            ),
            // Lazy K_{2,2}: eigenvalues 1, 1/2, 1/2, 0.
            (vec![vec![2, 3], vec![2, 3], vec![0, 1], vec![0, 1]], 0.5),
        ] {
            let c = MarkovChain::lazy_random_walk(&adj).unwrap();
            let eig = jacobi_eigen(&c.transition().to_dense(), 200).unwrap();
            assert!((eig.values[0] - 1.0).abs() < 1e-9);
            assert!((eig.values[1] - l2).abs() < 1e-9, "{adj:?}: {eig:?}");
        }
    }
}
