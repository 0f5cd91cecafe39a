//! Mixing-time computation.
//!
//! The paper (Section 2) defines the mixing time of an `n`-node graph `G` as
//! the minimum `t` such that for every starting distribution `π₀`,
//! `‖π₀Pᵗ − π*‖_∞ ≤ 1/(2n)`, where `P` is the transition matrix of the
//! (lazy) random walk. Because the maximum over starting distributions is
//! attained at point masses, the condition is equivalent to every **row** of
//! `Pᵗ` being within `1/(2n)` of the stationary distribution in max-norm.
//!
//! Two methods are provided:
//!
//! * [`mixing_time_exact`] — doubling + binary search on matrix powers,
//!   exact per the definition, cost `O(n³ log t_mix)`. Matrix powering is
//!   inherently dense, so the CSR chain is densified, up to 2048 states;
//!   and
//! * [`mixing_time_from_state`] — iterative: evolves a single point mass
//!   with [`MarkovChain::step_into`] until it is within `1/(2n)` of the
//!   stationary distribution. Runs in `O(t·nnz)` — the large-n path; on
//!   vertex-transitive chains (torus, ring, hypercube) the result equals
//!   the exact mixing time.
//!
//! The spectral upper bound on `t_mix` that the harness uses past the
//! exact limit is `ale_graph::spectral_sparse::mixing_time_upper`.

use crate::chain::MarkovChain;
use crate::error::MarkovError;
use crate::matrix::{vecops, Matrix};

/// Largest state count [`mixing_time_exact`] densifies (a `2048²` dense
/// matrix is 32 MiB; the next power of two is 128 MiB).
const DENSIFY_LIMIT: usize = 2048;

/// Maximum over rows of the max-norm distance between `Pᵗ` rows and the
/// stationary distribution `pi`.
fn max_row_distance(pt: &Matrix, pi: &[f64]) -> f64 {
    let n = pt.rows();
    let mut worst: f64 = 0.0;
    for i in 0..n {
        let row = pt.row(i);
        for (a, b) in row.iter().zip(pi) {
            worst = worst.max((a - b).abs());
        }
    }
    worst
}

/// Computes the exact mixing time per the paper's definition.
///
/// Uses doubling to find a power `2^k` that mixes, then binary-searches the
/// minimal `t` in `(2^{k−1}, 2^k]`. The stationary distribution is taken as
/// uniform when `p` is doubly stochastic and computed by power iteration
/// otherwise.
///
/// # Errors
///
/// * [`MarkovError::Reducible`] if the chain cannot mix at all.
/// * [`MarkovError::NotConverged`] if `cap` is exceeded before mixing; the
///   `iterations` field carries the cap.
/// * [`MarkovError::DimensionMismatch`] when the chain has more than 2048
///   states (matrix powering would allocate `O(n²)`; the `expected` field
///   carries the limit); use [`mixing_time_from_state`] or the spectral
///   bound at that scale.
///
/// # Examples
///
/// ```
/// use ale_markov::{MarkovChain, mixing};
/// let adj = vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]];
/// let chain = MarkovChain::lazy_random_walk(&adj)?;
/// let t = mixing::mixing_time_exact(&chain, 1 << 20)?;
/// assert!(t <= 8, "lazy K4 mixes very fast, got {t}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn mixing_time_exact(chain: &MarkovChain, cap: u64) -> Result<u64, MarkovError> {
    let n = chain.len();
    if n == 0 {
        return Err(MarkovError::Empty);
    }
    if n == 1 {
        return Ok(0);
    }
    if !chain.is_irreducible() {
        return Err(MarkovError::Reducible);
    }
    if n > DENSIFY_LIMIT {
        return Err(MarkovError::DimensionMismatch {
            expected: DENSIFY_LIMIT,
            found: n,
        });
    }
    let pi = if chain.transition().is_doubly_stochastic() {
        vec![1.0 / n as f64; n]
    } else {
        chain.stationary_distribution(1e-13, 1_000_000)?
    };
    let target = 1.0 / (2.0 * n as f64);

    // Doubling phase: find k with P^(2^k) mixed.
    let mut power_matrices: Vec<Matrix> = vec![chain.transition().to_dense()]; // P^(2^0)
    let mut t: u64 = 1;
    if max_row_distance(&power_matrices[0], &pi) <= target {
        return Ok(1);
    }
    loop {
        let last = power_matrices.last().expect("non-empty by construction");
        let next = last.multiply(last)?;
        t *= 2;
        if t > cap {
            return Err(MarkovError::NotConverged {
                iterations: cap as usize,
                residual: max_row_distance(&next, &pi),
            });
        }
        let mixed = max_row_distance(&next, &pi) <= target;
        power_matrices.push(next);
        if mixed {
            break;
        }
    }

    // Binary search in (t/2, t] using the stored binary powers.
    let mut lo = t / 2; // known unmixed
    let mut hi = t; // known mixed
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let pm = power_from_binary(&power_matrices, mid)?;
        if max_row_distance(&pm, &pi) <= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// Reconstructs `P^e` from stored binary powers `P^(2^i)`.
fn power_from_binary(powers: &[Matrix], e: u64) -> Result<Matrix, MarkovError> {
    let n = powers[0].rows();
    let mut result = Matrix::identity(n);
    let mut bit = 0usize;
    let mut e = e;
    while e > 0 {
        if e & 1 == 1 {
            result = result.multiply(&powers[bit])?;
        }
        e >>= 1;
        bit += 1;
    }
    Ok(result)
}

/// First round `t` at which the point mass on `start` is mixed:
/// `‖e_start·Pᵗ − π‖_∞ ≤ 1/(2n)`.
///
/// This is the iterative form of the mixing-time computation: it runs in
/// `O(t·nnz)` via [`MarkovChain::step_into`], so a chain on an `m`-edge
/// graph pays `O(m)` per round — the method of choice at the
/// tens-of-thousands-of-nodes scale where matrix powering is out of reach.
/// On vertex-transitive chains (torus, ring, hypercube, complete graph)
/// every start state is equivalent, so the result equals
/// the exact mixing time of [`mixing_time_exact`]; in general it is the
/// exact first mixed round for this start state, a lower bound on the
/// worst-case mixing time.
///
/// The stationary distribution is taken as uniform when the chain is
/// doubly stochastic and computed by power iteration otherwise.
///
/// # Errors
///
/// * [`MarkovError::Empty`] for an empty chain,
///   [`MarkovError::DimensionMismatch`] for `start` out of range.
/// * [`MarkovError::Reducible`] if the chain cannot mix at all.
/// * [`MarkovError::NotConverged`] if `cap` rounds do not reach the
///   threshold; `residual` carries the final distance.
///
/// # Examples
///
/// ```
/// use ale_markov::{MarkovChain, mixing};
/// let adj: Vec<Vec<usize>> = (0..8).map(|i| vec![(i + 7) % 8, (i + 1) % 8]).collect();
/// let chain = MarkovChain::lazy_random_walk(&adj)?;
/// let t = mixing::mixing_time_from_state(&chain, 0, 1 << 20)?;
/// // The cycle is vertex-transitive: equals the exact mixing time.
/// assert_eq!(t, mixing::mixing_time_exact(&chain, 1 << 20)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn mixing_time_from_state(
    chain: &MarkovChain,
    start: usize,
    cap: u64,
) -> Result<u64, MarkovError> {
    let n = chain.len();
    if n == 0 {
        return Err(MarkovError::Empty);
    }
    if start >= n {
        return Err(MarkovError::DimensionMismatch {
            expected: n,
            found: start,
        });
    }
    if n == 1 {
        return Ok(0);
    }
    if !chain.is_irreducible() {
        return Err(MarkovError::Reducible);
    }
    let pi = if chain.transition().is_doubly_stochastic() {
        vec![1.0 / n as f64; n]
    } else {
        chain.stationary_distribution(1e-13, 1_000_000)?
    };
    let target = 1.0 / (2.0 * n as f64);
    let mut mu = vec![0.0; n];
    mu[start] = 1.0;
    let mut next = vec![0.0; n];
    let mut dist = f64::INFINITY;
    for t in 1..=cap {
        chain.step_into(&mu, &mut next)?;
        std::mem::swap(&mut mu, &mut next);
        dist = vecops::max_abs_diff(&mu, &pi);
        if dist <= target {
            return Ok(t);
        }
    }
    Err(MarkovError::NotConverged {
        iterations: cap as usize,
        residual: dist,
    })
}

/// Deterministic start-state sample for multi-start mixing estimation:
/// `count` distinct states drawn from a SplitMix64 stream seeded with
/// `seed` (all states when `count >= n`). Pure — the same `(n, count,
/// seed)` always yields the same starts, so estimator results stay
/// byte-reproducible across runs and worker counts.
///
/// # Examples
///
/// ```
/// use ale_markov::mixing;
/// let a = mixing::sample_starts(1000, 3, 7);
/// assert_eq!(a, mixing::sample_starts(1000, 3, 7));
/// assert_eq!(a.len(), 3);
/// assert_eq!(mixing::sample_starts(4, 10, 1), vec![0, 1, 2, 3]);
/// ```
pub fn sample_starts(n: usize, count: usize, seed: u64) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    if count >= n {
        return (0..n).collect();
    }
    let mut starts = Vec::with_capacity(count);
    let mut state = seed;
    while starts.len() < count {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let s = (z % n as u64) as usize;
        if !starts.contains(&s) {
            starts.push(s);
        }
    }
    starts
}

/// Multi-start sampling estimator for the mixing time: the **maximum**
/// of [`mixing_time_from_state`] over the given start states.
///
/// Each start's first-mixed round is exact for that start and a lower
/// bound on the worst-case `t_mix`; the max over a sample tightens that
/// bound on families that are *not* vertex-transitive (stars, barbells,
/// random regular graphs), where a single arbitrary start can be far
/// from the slowest one. Cost is `O(t·nnz)` per start — the cheap
/// estimator of choice at the tens-of-thousands-of-nodes scale where
/// [`mixing_time_exact`]'s matrix powering is out of reach.
/// Pair with [`sample_starts`] for a deterministic sample.
///
/// # Errors
///
/// * [`MarkovError::Empty`] when `starts` is empty.
/// * Propagates every per-start failure of [`mixing_time_from_state`]
///   ([`MarkovError::Reducible`], [`MarkovError::NotConverged`], an
///   out-of-range start).
///
/// # Examples
///
/// ```
/// use ale_markov::{mixing, MarkovChain};
/// // A barbell-ish path is not vertex-transitive: the endpoint mixes
/// // slower than the middle, and the multi-start max sees that.
/// let adj: Vec<Vec<usize>> = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
/// let chain = MarkovChain::lazy_random_walk(&adj)?;
/// let mid = mixing::mixing_time_from_state(&chain, 1, 1 << 20)?;
/// let multi = mixing::mixing_time_multi_start(&chain, &[0, 1, 3], 1 << 20)?;
/// assert!(multi >= mid);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn mixing_time_multi_start(
    chain: &MarkovChain,
    starts: &[usize],
    cap: u64,
) -> Result<u64, MarkovError> {
    if starts.is_empty() {
        return Err(MarkovError::Empty);
    }
    let mut worst = 0u64;
    for &start in starts {
        worst = worst.max(mixing_time_from_state(chain, start, cap)?);
    }
    Ok(worst)
}

/// Checks the Montenegro–Tetali band `1/Φ ≤ t_mix ≤ c/Φ²` the paper cites
/// (\[24\]); returns the pair of violated-side flags `(below, above)` so tests
/// can assert both directions with an explicit slack constant.
///
/// The lower inequality is asymptotic; `slack_lo`/`slack_hi` absorb the
/// constants (the paper's statement hides them too).
pub fn mixing_band_check(tmix: f64, phi: f64, slack_lo: f64, slack_hi: f64) -> (bool, bool) {
    let below_ok = tmix * slack_lo >= 1.0 / phi;
    let above_ok = tmix <= slack_hi / (phi * phi);
    (below_ok, above_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::test_csr;

    fn lazy(adj: &[Vec<usize>]) -> MarkovChain {
        MarkovChain::lazy_random_walk(adj).unwrap()
    }

    fn cycle_adj(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect()
    }

    fn complete_adj(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| (0..n).filter(|&j| j != i).collect())
            .collect()
    }

    fn identity_chain(n: usize) -> MarkovChain {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        MarkovChain::from_csr(test_csr(&rows)).unwrap()
    }

    #[test]
    fn singleton_mixes_instantly() {
        assert_eq!(mixing_time_exact(&identity_chain(1), 100).unwrap(), 0);
    }

    #[test]
    fn complete_graph_mixes_in_constant_time() {
        let c = lazy(&complete_adj(16));
        let t = mixing_time_exact(&c, 1 << 20).unwrap();
        assert!(t <= 16, "lazy K16 should mix fast, got {t}");
    }

    #[test]
    fn cycle_mixing_grows_quadratically() {
        let t8 = mixing_time_exact(&lazy(&cycle_adj(8)), 1 << 24).unwrap();
        let t16 = mixing_time_exact(&lazy(&cycle_adj(16)), 1 << 24).unwrap();
        let t32 = mixing_time_exact(&lazy(&cycle_adj(32)), 1 << 24).unwrap();
        // Ratios approach 4 for a quadratic; allow a generous band at small n.
        let r1 = t16 as f64 / t8 as f64;
        let r2 = t32 as f64 / t16 as f64;
        assert!(r1 > 2.5 && r1 < 6.0, "t16/t8 = {r1}");
        assert!(r2 > 2.5 && r2 < 6.0, "t32/t16 = {r2}");
    }

    #[test]
    fn mixing_monotone_in_definition() {
        // After t_mix rounds the distance stays below the threshold for lazy
        // (positive semidefinite-like) chains; check at t_mix and t_mix + 3.
        let c = lazy(&cycle_adj(10));
        let t = mixing_time_exact(&c, 1 << 22).unwrap();
        let n = 10;
        let pi = vec![1.0 / n as f64; n];
        let p = c.transition().to_dense();
        let power = |e: u64| (0..e).fold(Matrix::identity(n), |acc, _| acc.multiply(&p).unwrap());
        let pt = power(t);
        assert!(max_row_distance(&pt, &pi) <= 1.0 / (2.0 * n as f64) + 1e-12);
        let pt1 = power(t + 3);
        assert!(max_row_distance(&pt1, &pi) <= 1.0 / (2.0 * n as f64) + 1e-12);
        if t > 1 {
            let pt_less = power(t - 1);
            assert!(
                max_row_distance(&pt_less, &pi) > 1.0 / (2.0 * n as f64),
                "t_mix must be minimal"
            );
        }
    }

    #[test]
    fn cap_is_honored() {
        let c = lazy(&cycle_adj(64));
        assert!(matches!(
            mixing_time_exact(&c, 4),
            Err(MarkovError::NotConverged { .. })
        ));
    }

    #[test]
    fn reducible_chain_rejected() {
        assert!(matches!(
            mixing_time_exact(&identity_chain(3), 100),
            Err(MarkovError::Reducible)
        ));
    }

    #[test]
    fn exact_refuses_chains_past_the_densify_limit() {
        let c = lazy(&cycle_adj(DENSIFY_LIMIT + 1));
        assert!(matches!(
            mixing_time_exact(&c, 1 << 40),
            Err(MarkovError::DimensionMismatch {
                expected: DENSIFY_LIMIT,
                ..
            })
        ));
    }

    #[test]
    fn from_state_equals_exact_on_vertex_transitive() {
        for n in [8usize, 12, 16] {
            let c = lazy(&cycle_adj(n));
            let exact = mixing_time_exact(&c, 1 << 24).unwrap();
            let iter = mixing_time_from_state(&c, 0, 1 << 24).unwrap();
            assert_eq!(iter, exact, "C{n}");
        }
    }

    #[test]
    fn from_state_rejects_bad_inputs() {
        let c = lazy(&cycle_adj(8));
        assert!(matches!(
            mixing_time_from_state(&c, 9, 100),
            Err(MarkovError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            mixing_time_from_state(&c, 0, 2),
            Err(MarkovError::NotConverged { .. })
        ));
        assert!(matches!(
            mixing_time_from_state(&identity_chain(3), 0, 100),
            Err(MarkovError::Reducible)
        ));
        assert_eq!(mixing_time_from_state(&identity_chain(1), 0, 1).unwrap(), 0);
    }

    #[test]
    fn multi_start_dominates_each_start_and_stays_deterministic() {
        // A star is not vertex-transitive: leaf starts mix slower than
        // the hub. The multi-start max must dominate every sampled start.
        let n = 9;
        let adj: Vec<Vec<usize>> = std::iter::once((1..n).collect::<Vec<_>>())
            .chain((1..n).map(|_| vec![0usize]))
            .collect();
        let c = lazy(&adj);
        let starts = sample_starts(n, 4, 42);
        assert_eq!(starts, sample_starts(n, 4, 42));
        let multi = mixing_time_multi_start(&c, &starts, 1 << 22).unwrap();
        for &s in &starts {
            assert!(multi >= mixing_time_from_state(&c, s, 1 << 22).unwrap());
        }
        // On a vertex-transitive family it equals the exact mixing time.
        let cyc = lazy(&cycle_adj(12));
        assert_eq!(
            mixing_time_multi_start(&cyc, &sample_starts(12, 3, 1), 1 << 24).unwrap(),
            mixing_time_exact(&cyc, 1 << 24).unwrap()
        );
        // Errors: empty starts, bad start index.
        assert!(matches!(
            mixing_time_multi_start(&cyc, &[], 100),
            Err(MarkovError::Empty)
        ));
        assert!(matches!(
            mixing_time_multi_start(&cyc, &[99], 100),
            Err(MarkovError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn band_check_flags() {
        // t = 1/phi exactly: lower side tight, upper holds.
        let (lo, hi) = mixing_band_check(10.0, 0.1, 1.0, 1.0);
        assert!(lo && hi);
        // Implausibly fast mixing violates the lower bound.
        let (lo, _) = mixing_band_check(1.0, 0.01, 1.0, 1.0);
        assert!(!lo);
        // Implausibly slow mixing violates the upper bound.
        let (_, hi) = mixing_band_check(1e6, 0.1, 1.0, 1.0);
        assert!(!hi);
    }
}
