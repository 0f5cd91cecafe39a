//! Monte-Carlo simulation of finite chains.
//!
//! The exact machinery ([`crate::hitting`], [`crate::mixing`]) covers small
//! state spaces; this module samples trajectories directly — the
//! cross-check used by tests (MC ≈ exact) and a complement to the exact
//! methods at scale. Sampling walks the chain's stored CSR row entries, so
//! one step costs `O(deg)` instead of `O(n)` — simulating a walk on a
//! 20 000-node bounded-degree graph touches a handful of entries per step.

use crate::chain::MarkovChain;
use crate::error::MarkovError;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Samples one step of the chain from state `i`.
///
/// # Errors
///
/// [`MarkovError::DimensionMismatch`] when `i` is out of range.
pub fn step_state(chain: &MarkovChain, i: usize, rng: &mut StdRng) -> Result<usize, MarkovError> {
    let n = chain.len();
    if i >= n {
        return Err(MarkovError::DimensionMismatch {
            expected: n,
            found: i,
        });
    }
    let (cols, vals) = chain.transition().row(i);
    let mut u: f64 = rng.gen();
    let mut last_support = None;
    for (&j, &w) in cols.iter().zip(vals) {
        u -= w;
        if u <= 0.0 {
            return Ok(j);
        }
        last_support = Some(j);
    }
    // Rounding slack: the row sums to 1 within EPS; land on the row's
    // last stored state.
    last_support.ok_or(MarkovError::Empty)
}

/// Walks `steps` steps from `start`, returning the trajectory (including
/// the start state; length `steps + 1`).
///
/// # Errors
///
/// Propagates [`step_state`] failures.
pub fn trajectory(
    chain: &MarkovChain,
    start: usize,
    steps: usize,
    seed: u64,
) -> Result<Vec<usize>, MarkovError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut path = Vec::with_capacity(steps + 1);
    let mut cur = start;
    path.push(cur);
    for _ in 0..steps {
        cur = step_state(chain, cur, &mut rng)?;
        path.push(cur);
    }
    Ok(path)
}

/// Monte-Carlo estimate of the expected hitting time from `start` into
/// `targets`: mean over `trials` trajectories, each capped at `cap` steps
/// (capped trajectories contribute `cap`, biasing the estimate low — pick
/// `cap` well above the expected value).
///
/// # Errors
///
/// [`MarkovError::Empty`] for empty/out-of-range targets; propagates
/// sampling failures.
pub fn estimate_hitting_time(
    chain: &MarkovChain,
    start: usize,
    targets: &[usize],
    trials: usize,
    cap: usize,
    seed: u64,
) -> Result<f64, MarkovError> {
    let n = chain.len();
    if targets.is_empty() || targets.iter().any(|&t| t >= n) {
        return Err(MarkovError::Empty);
    }
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[t] = true;
    }
    if is_target[start] {
        return Ok(0.0);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0usize;
    for _ in 0..trials.max(1) {
        let mut cur = start;
        let mut steps = 0usize;
        while !is_target[cur] && steps < cap {
            cur = step_state(chain, cur, &mut rng)?;
            steps += 1;
        }
        total += steps;
    }
    Ok(total as f64 / trials.max(1) as f64)
}

/// Fraction of `trials` trajectories from `start` that enter `targets`
/// within `budget` steps — the Monte-Carlo form of Lemma 2's hitting
/// event for a single walk.
///
/// # Errors
///
/// Same conditions as [`estimate_hitting_time`].
pub fn hit_probability(
    chain: &MarkovChain,
    start: usize,
    targets: &[usize],
    budget: usize,
    trials: usize,
    seed: u64,
) -> Result<f64, MarkovError> {
    let n = chain.len();
    if targets.is_empty() || targets.iter().any(|&t| t >= n) {
        return Err(MarkovError::Empty);
    }
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[t] = true;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for _ in 0..trials.max(1) {
        let mut cur = start;
        let mut hit = is_target[cur];
        for _ in 0..budget {
            if hit {
                break;
            }
            cur = step_state(chain, cur, &mut rng)?;
            hit = is_target[cur];
        }
        if hit {
            hits += 1;
        }
    }
    Ok(hits as f64 / trials.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hitting::expected_hitting_times;

    fn cycle_chain(n: usize) -> MarkovChain {
        let adj: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect();
        MarkovChain::lazy_random_walk(&adj).unwrap()
    }

    #[test]
    fn trajectories_have_right_shape_and_support() {
        let chain = cycle_chain(6);
        let path = trajectory(&chain, 2, 50, 7).unwrap();
        assert_eq!(path.len(), 51);
        assert_eq!(path[0], 2);
        // Lazy cycle: consecutive states differ by at most 1 (mod n).
        for w in path.windows(2) {
            let d = w[0].abs_diff(w[1]);
            assert!(d == 0 || d == 1 || d == 5, "illegal transition {w:?}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let chain = cycle_chain(8);
        assert_eq!(
            trajectory(&chain, 0, 30, 5).unwrap(),
            trajectory(&chain, 0, 30, 5).unwrap()
        );
        assert_ne!(
            trajectory(&chain, 0, 30, 5).unwrap(),
            trajectory(&chain, 0, 30, 6).unwrap()
        );
    }

    #[test]
    fn mc_hitting_matches_exact() {
        let chain = cycle_chain(8);
        let exact = expected_hitting_times(&chain, &[4]).unwrap();
        let mc = estimate_hitting_time(&chain, 0, &[4], 4000, 100_000, 11).unwrap();
        let rel = (mc - exact[0]).abs() / exact[0];
        assert!(
            rel < 0.1,
            "MC {mc:.1} vs exact {:.1} (rel err {rel:.3})",
            exact[0]
        );
    }

    #[test]
    fn hit_probability_monotone_in_budget() {
        let chain = cycle_chain(10);
        let p_small = hit_probability(&chain, 0, &[5], 5, 2000, 3).unwrap();
        let p_big = hit_probability(&chain, 0, &[5], 200, 2000, 3).unwrap();
        assert!(p_big >= p_small);
        assert!(p_big > 0.8, "long budget should almost surely hit: {p_big}");
    }

    #[test]
    fn start_inside_targets_is_instant() {
        let chain = cycle_chain(5);
        assert_eq!(
            estimate_hitting_time(&chain, 3, &[3], 10, 10, 0).unwrap(),
            0.0
        );
        assert_eq!(hit_probability(&chain, 3, &[3], 0, 10, 0).unwrap(), 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let chain = cycle_chain(5);
        assert!(estimate_hitting_time(&chain, 0, &[], 10, 10, 0).is_err());
        assert!(hit_probability(&chain, 0, &[9], 10, 10, 0).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(step_state(&chain, 99, &mut rng).is_err());
    }
}
