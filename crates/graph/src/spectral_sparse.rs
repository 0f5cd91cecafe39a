//! Sparse spectral computations that scale to large graphs.
//!
//! `ale-markov`'s dense Jacobi oracle costs `O(n²)` memory and `O(n³)` per
//! sweep; for the networks in the experiment sweeps we instead run power
//! iteration against the **normalized lazy walk operator** in `O(m)` per
//! step:
//!
//! `N = ½I + ½ D^{-1/2} A D^{-1/2}`
//!
//! `N` is symmetric and similar to the lazy walk `P = ½I + ½D⁻¹A`
//! (via `N = D^{1/2} P D^{-1/2}`), so they share eigenvalues; the principal
//! eigenvector of `N` is `D^{1/2}𝟙` (∝ `√deg`), which we deflate against to
//! extract `λ₂`.
//!
//! The operator itself is a [`ale_markov::CsrMatrix`] built by
//! [`crate::transition::normalized_lazy_csr`] — the same sparse kernel the
//! chain-level code uses — applied through `mul_vec_into` so the iteration
//! allocates nothing per step.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::transition::normalized_lazy_csr;

/// Convergence tolerance of the harness's `λ₂` power iteration: every
/// spectral estimate the lab stores ([`crate::GraphProps`] and the
/// diffusion family's `i(G)` fallback) runs under this one budget.
pub const POWER_TOL: f64 = 1e-11;
/// Iteration cap of the harness's `λ₂` power iteration (see
/// [`POWER_TOL`]).
pub const POWER_ITERS: usize = 5_000_000;

/// Second-largest eigenvalue `λ₂` of the lazy random walk on `g`, computed
/// by sparse deflated power iteration.
///
/// Each step costs one CSR mat-vec and three vector passes: the product
/// `N·x` that gives step `k`'s Rayleigh quotient is step `k + 1`'s power
/// product, so only the start vector is multiplied on its own. Every sum
/// is a single left-to-right accumulator, the order `Iterator::sum` uses,
/// so the result is bit-for-bit the plain two-product iteration's (stored
/// runs and benchmark digests pin those bits).
///
/// # Errors
///
/// [`GraphError::Numeric`] if the iteration fails to converge within
/// `max_iters` (tiny spectral gaps; callers should increase the budget or
/// fall back to dense methods for small graphs).
///
/// # Examples
///
/// ```
/// use ale_graph::{generators, spectral_sparse};
/// let g = generators::complete(16)?;
/// let l2 = spectral_sparse::lambda2_lazy(&g, 1e-10, 100_000)?;
/// // Lazy K_n: λ₂ = 1/2 − 1/(2(n−1)).
/// assert!((l2 - (0.5 - 0.5 / 15.0)).abs() < 1e-6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lambda2_lazy(g: &Graph, tol: f64, max_iters: usize) -> Result<f64, GraphError> {
    let n = g.n();
    if n == 1 {
        return Ok(0.0);
    }
    let sqrt_deg: Vec<f64> = (0..n).map(|v| (g.degree(v) as f64).sqrt()).collect();
    let principal_norm: f64 = sqrt_deg.iter().map(|x| x * x).sum::<f64>().sqrt();
    let principal: Vec<f64> = sqrt_deg.iter().map(|x| x / principal_norm).collect();

    let n_op = normalized_lazy_csr(g);
    let apply = |x: &[f64], out: &mut [f64]| {
        n_op.mul_vec_into(x, out)
            .expect("operator and iterate dimensions agree by construction");
    };

    // Deterministic start vector, deflated against the principal direction.
    let mut x: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    let mut proj = dot(&x, &principal);
    let norm = deflate_norm_sq(&mut x, proj, &principal).sqrt();
    if norm == 0.0 {
        return Err(GraphError::Numeric {
            reason: "degenerate start vector".into(),
        });
    }
    scale_down(&mut x, norm);

    // `nx` holds N·x for the current iterate x, and `proj` its component
    // along the principal direction.
    let mut nx = vec![0.0; n];
    apply(&x, &mut nx);
    proj = dot(&nx, &principal);
    let mut lambda = 0.0f64;
    for it in 0..max_iters {
        let norm = deflate_norm_sq(&mut nx, proj, &principal).sqrt();
        if norm < 1e-300 {
            return Ok(0.0);
        }
        scale_down(&mut nx, norm);
        // The deflated, normalized product is the next iterate; its own
        // product is both this step's Rayleigh product and the next
        // step's power product.
        std::mem::swap(&mut x, &mut nx);
        apply(&x, &mut nx);
        let (new_lambda, next_proj) = dot_pair(&x, &nx, &principal);
        proj = next_proj;
        let diff = (new_lambda - lambda).abs();
        lambda = new_lambda;
        if it > 2 && diff < tol {
            return Ok(lambda);
        }
    }
    Err(GraphError::Numeric {
        reason: format!("lambda2 power iteration did not converge in {max_iters} iterations"),
    })
}

/// Spectral gap `1 − λ₂` of the lazy walk.
///
/// # Errors
///
/// Propagates [`lambda2_lazy`] failures.
pub fn lazy_spectral_gap(g: &Graph, tol: f64, max_iters: usize) -> Result<f64, GraphError> {
    Ok(1.0 - lambda2_lazy(g, tol, max_iters)?)
}

/// Upper bound on the paper's mixing time from the lazy spectral gap
/// `gap = 1 − λ₂` (see [`lazy_spectral_gap`]):
/// `t_mix ≤ ⌈(ln(2n) + ½·ln(d_max/d_min)) / gap⌉`.
///
/// Derived from the reversible bound
/// `|Pᵗ(i,j) − π_j| ≤ λ₂ᵗ √(π_j/π_i) ≤ λ₂ᵗ √(d_max/d_min)` and the paper's
/// `1/(2n)` max-norm threshold with `π_j ≥ d_min/(2m) ≥ 1/n²`-style slack
/// absorbed into the degree ratio.
///
/// # Errors
///
/// [`GraphError::Numeric`] if `gap` is not positive (on a graph with more
/// than one node).
pub fn mixing_time_upper(g: &Graph, gap: f64) -> Result<u64, GraphError> {
    let n = g.n();
    if n == 1 {
        return Ok(0);
    }
    if gap <= 0.0 {
        return Err(GraphError::Numeric {
            reason: "non-positive spectral gap".into(),
        });
    }
    let d_max = g.max_degree() as f64;
    let d_min = (0..n).map(|v| g.degree(v)).min().unwrap_or(1) as f64;
    let t = ((2.0 * n as f64).ln() + 0.5 * (d_max / d_min).ln()) / gap;
    Ok(t.ceil().max(1.0) as u64)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `v ← v − proj·unit`, returning `‖v‖²` of the result from the same pass.
fn deflate_norm_sq(v: &mut [f64], proj: f64, unit: &[f64]) -> f64 {
    v.iter_mut()
        .zip(unit)
        .map(|(x, u)| {
            *x -= proj * u;
            *x * *x
        })
        .sum()
}

/// `(⟨a, b⟩, ⟨b, c⟩)` in one pass. Each sum starts from `-0.0`, the
/// neutral element `Iterator::sum` uses for `f64`, and adds left to
/// right, so both equal what two [`dot`] calls return.
fn dot_pair(a: &[f64], b: &[f64], c: &[f64]) -> (f64, f64) {
    a.iter()
        .zip(b)
        .zip(c)
        .fold((-0.0, -0.0), |(ab, bc), ((a, b), c)| {
            (ab + a * b, bc + b * c)
        })
}

fn scale_down(v: &mut [f64], norm: f64) {
    for x in v.iter_mut() {
        *x /= norm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use ale_markov::{spectral, MarkovChain};

    fn dense_lambda2(g: &Graph) -> f64 {
        // Dense oracle via the symmetric normalized operator is only easy
        // for regular graphs (P itself symmetric); use those in tests.
        let chain = MarkovChain::lazy_random_walk(&g.adjacency()).unwrap();
        spectral::jacobi_eigen(&chain.transition().to_dense(), 300)
            .unwrap()
            .values[1]
    }

    #[test]
    fn matches_dense_on_regular_graphs() {
        for g in [
            generators::cycle(12).unwrap(),
            generators::complete(10).unwrap(),
            generators::hypercube(4).unwrap(),
            generators::grid2d(4, 4, true).unwrap(),
        ] {
            let sparse = lambda2_lazy(&g, 1e-12, 2_000_000).unwrap();
            let dense = dense_lambda2(&g);
            assert!(
                (sparse - dense).abs() < 1e-6,
                "sparse {sparse} vs dense {dense} on n={}",
                g.n()
            );
        }
    }

    #[test]
    fn nonregular_graph_converges() {
        let g = generators::star(16).unwrap();
        let l2 = lambda2_lazy(&g, 1e-11, 1_000_000).unwrap();
        // Lazy star: nonlazy eigenvalues {1, 0, −1}; lazy: {1, 1/2, 0}.
        assert!((l2 - 0.5).abs() < 1e-6, "star λ₂ = {l2}");
    }

    #[test]
    fn gap_positive_on_connected_graphs() {
        for g in [
            generators::binary_tree(31).unwrap(),
            generators::barbell(6).unwrap(),
            generators::lollipop(5, 8).unwrap(),
        ] {
            let gap = lazy_spectral_gap(&g, 1e-11, 2_000_000).unwrap();
            assert!(gap > 0.0, "gap must be positive, got {gap}");
            assert!(gap < 1.0);
        }
    }

    #[test]
    fn mixing_upper_dominates_exact_small() {
        use ale_markov::mixing::mixing_time_exact;
        for g in [
            generators::cycle(10).unwrap(),
            generators::complete(8).unwrap(),
            generators::hypercube(3).unwrap(),
        ] {
            let chain = MarkovChain::lazy_random_walk(&g.adjacency()).unwrap();
            let exact = mixing_time_exact(&chain, 1 << 24).unwrap();
            let gap = lazy_spectral_gap(&g, 1e-12, 2_000_000).unwrap();
            let upper = mixing_time_upper(&g, gap).unwrap();
            assert!(upper >= exact, "upper {upper} < exact {exact} on {}", g.n());
        }
    }

    /// Cheeger-style band from the lazy spectral gap: `gap ≤ Φ(G) ≤
    /// √(8·gap)` (constants folded per the Sinclair–Jerrum inequalities
    /// with the ½ laziness factor).
    #[test]
    fn cheeger_band_brackets_exact_conductance() {
        use crate::cuts::conductance_exact;
        for g in [
            generators::cycle(12).unwrap(),
            generators::complete(8).unwrap(),
            generators::hypercube(4).unwrap(),
        ] {
            let gap = lazy_spectral_gap(&g, 1e-12, 2_000_000).unwrap();
            let (lo, hi) = (gap, (8.0 * gap).sqrt());
            let phi = conductance_exact(&g).unwrap();
            assert!(
                lo <= phi + 1e-9 && phi <= hi + 1e-9,
                "band [{lo}, {hi}] misses Φ = {phi}"
            );
        }
    }

    #[test]
    fn lambda2_bits_are_pinned() {
        // Stored runs and benchmark digests carry these exact bits, so a
        // change to the iteration's arithmetic order shows up here first.
        use crate::generators::Topology;
        let torus = Topology::Grid2d {
            rows: 16,
            cols: 16,
            torus: true,
        };
        for (topology, graph_seed, bits) in [
            (
                Topology::RandomRegular { n: 256, d: 4 },
                3,
                0x3fedc0a2879ae757,
            ),
            (torus, 0, 0x3fef641af3ab1c24),
            (
                Topology::RingOfCliques { cliques: 32, k: 8 },
                0,
                0x3feffdd3ea2367b2,
            ),
            (Topology::Cycle { n: 300 }, 0, 0x3fefff19ff83b4b5),
            (Topology::Complete { n: 16 }, 0, 0x3fdddddddddddddc),
        ] {
            let g = topology.build(graph_seed).unwrap();
            let l2 = lambda2_lazy(&g, POWER_TOL, POWER_ITERS).unwrap();
            assert_eq!(l2.to_bits(), bits, "{topology}: λ₂ = {l2}");
        }
    }

    #[test]
    fn fused_passes_match_separate_sums() {
        let a = [0.25, -1.5, 3.0, 1e-17, -0.0];
        let b = [1.0, 2.0, -0.5, 1e17, 7.0];
        let c = [-3.0, 0.125, 4.0, 2.0, -0.0];
        let (ab, bc) = dot_pair(&a, &b, &c);
        assert_eq!(ab.to_bits(), dot(&a, &b).to_bits());
        assert_eq!(bc.to_bits(), dot(&b, &c).to_bits());
        let (zero_ab, _) = dot_pair(&[-0.0], &[1.0], &[1.0]);
        assert_eq!(zero_ab.to_bits(), dot(&[-0.0], &[1.0]).to_bits());

        let mut fused = b;
        let norm_sq = deflate_norm_sq(&mut fused, 0.75, &c);
        let mut plain = b;
        for (x, u) in plain.iter_mut().zip(&c) {
            *x -= 0.75 * u;
        }
        assert_eq!(fused, plain);
        assert_eq!(norm_sq.to_bits(), dot(&plain, &plain).to_bits());
    }

    #[test]
    fn singleton_trivial() {
        // Cannot build a 1-node graph through validated constructors, so
        // exercise the n == 1 guards directly through a tiny K2.
        let g = generators::complete(2).unwrap();
        let l2 = lambda2_lazy(&g, 1e-12, 10_000).unwrap();
        // Lazy K2: eigenvalues 1 and 0.
        assert!(l2.abs() < 1e-9);
    }
}
