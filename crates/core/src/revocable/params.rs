//! Parameter functions of the revocable protocol (Theorem 3 / Corollary 1).
//!
//! The paper fixes, for estimate `k` and constants `0 < ε ≤ 1`, `0 < ξ < 1`:
//!
//! * `p(k) = ln 2 / k^{1+ε}` — white-node probability;
//! * `τ(k) = 1 − 1/(k^{1+ε} − 1)` — potential threshold;
//! * `f(k) = (4√2/(√2−1)²)·ln(k^{1+ε}/ξ)` — certification iterations;
//! * `r(k) = (8k^{2(1+ε)}/i(G)²)·log(k^{2(1+ε)}) + k^{1+ε}·log(2k)` —
//!   diffusion rounds when the isoperimetric number `i(G)` is known
//!   (Theorem 3); the blind variant (Corollary 1) substitutes the universal
//!   lower bound `i(G) ≥ 2/k`, giving
//!   `r(k) = 2k^{2(2+ε)}·log(k^{2(1+ε)}) + k^{1+ε}·log(2k)`;
//! * dissemination length `k^{1+ε}`;
//! * ID range `[1, k^{4(1+ε)}·log⁴(4k)]`.
//!
//! Paper-exact parameters are astronomically expensive (`Õ(n^{8+4ε})`
//! rounds for the blind variant), so [`RevocableParams`] also exposes
//! **documented scale knobs** (`r_scale`, `f_scale`, `diss_scale`) that
//! shrink the constants while preserving every functional form in `k` —
//! the mode the shape experiments use.

use crate::error::CoreError;

/// The paper's constant `4√2/(√2−1)²` in `f(k)`.
pub fn f_constant() -> f64 {
    4.0 * std::f64::consts::SQRT_2 / (std::f64::consts::SQRT_2 - 1.0).powi(2)
}

/// Parameters of Blind Leader Election with Certificates via Diffusion with
/// Thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocableParams {
    /// The paper's `ε ∈ (0, 1]`.
    pub eps: f64,
    /// The paper's failure-budget `ξ ∈ (0, 1)`.
    pub xi: f64,
    /// Known isoperimetric number `i(G)` (Theorem 3 variant); `None` runs
    /// the blind Corollary 1 variant with `i(G) → 2/k`.
    pub ig: Option<f64>,
    /// Multiplier on `r(k)` (1.0 = paper-exact).
    pub r_scale: f64,
    /// Multiplier on `f(k)` (1.0 = paper-exact).
    pub f_scale: f64,
    /// Multiplier on the dissemination length (1.0 = paper-exact).
    pub diss_scale: f64,
}

impl RevocableParams {
    /// Paper-exact blind parameters (Corollary 1). Tractable only for tiny
    /// networks; see the module docs.
    pub fn paper_blind(eps: f64, xi: f64) -> Self {
        RevocableParams {
            eps,
            xi,
            ig: None,
            r_scale: 1.0,
            f_scale: 1.0,
            diss_scale: 1.0,
        }
    }

    /// Paper-exact parameters with known isoperimetric number (Theorem 3).
    pub fn paper_with_ig(eps: f64, xi: f64, ig: f64) -> Self {
        RevocableParams {
            ig: Some(ig),
            ..Self::paper_blind(eps, xi)
        }
    }

    /// Applies scale knobs (shape-experiment mode). Scales must be in
    /// `(0, 1]`; functional forms in `k` are unchanged.
    pub fn with_scales(mut self, r_scale: f64, f_scale: f64, diss_scale: f64) -> Self {
        self.r_scale = r_scale;
        self.f_scale = f_scale;
        self.diss_scale = diss_scale;
        self
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.eps > 0.0 && self.eps <= 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("eps must be in (0, 1], got {}", self.eps),
            });
        }
        if !(self.xi > 0.0 && self.xi < 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("xi must be in (0, 1), got {}", self.xi),
            });
        }
        if let Some(ig) = self.ig {
            if ig <= 0.0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!("isoperimetric number must be positive, got {ig}"),
                });
            }
        }
        for (name, v) in [
            ("r_scale", self.r_scale),
            ("f_scale", self.f_scale),
            ("diss_scale", self.diss_scale),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("{name} must be in (0, 1], got {v}"),
                });
            }
        }
        Ok(())
    }

    /// `k^{1+ε}` as a float.
    pub fn k_pow(&self, k: u64) -> f64 {
        (k as f64).powf(1.0 + self.eps)
    }

    /// White-node probability `p(k) = ln 2 / k^{1+ε}`.
    pub fn p(&self, k: u64) -> f64 {
        (std::f64::consts::LN_2 / self.k_pow(k)).min(1.0)
    }

    /// Potential threshold `τ(k) = 1 − 1/(k^{1+ε} − 1)`.
    ///
    /// # Panics
    ///
    /// Panics for `k < 2` (the estimate loop starts at `k = 2`, where
    /// `k^{1+ε} > 2 > 1`).
    pub fn tau(&self, k: u64) -> f64 {
        assert!(k >= 2, "estimates start at k = 2");
        1.0 - 1.0 / (self.k_pow(k) - 1.0)
    }

    /// Certification iterations `f(k)` (scaled, at least 1).
    pub fn f(&self, k: u64) -> u64 {
        let raw = f_constant() * (self.k_pow(k) / self.xi).ln();
        ((self.f_scale * raw).ceil() as u64).max(1)
    }

    /// Diffusion rounds `r(k)` (scaled, at least 1).
    ///
    /// Uses the known `i(G)` when provided (Theorem 3), else the blind
    /// `i(G) → 2/k` substitution (Corollary 1).
    pub fn r(&self, k: u64) -> u64 {
        let kp = self.k_pow(k);
        let ig = self.ig.unwrap_or(2.0 / k as f64);
        let spectral_term = 8.0 * kp * kp / (ig * ig) * (kp * kp).log2().max(1.0);
        let reach_term = kp * (2.0 * k as f64).log2();
        ((self.r_scale * (spectral_term + reach_term)).ceil() as u64).max(1)
    }

    /// Dissemination rounds (scaled `k^{1+ε}`, at least 1).
    pub fn dissemination(&self, k: u64) -> u64 {
        ((self.diss_scale * self.k_pow(k)).ceil() as u64).max(1)
    }

    /// ID range upper bound `k^{4(1+ε)}·log₂⁴(4k)`.
    pub fn id_range(&self, k: u64) -> u128 {
        let kp = self.k_pow(k);
        let log4 = (4.0 * k as f64).log2().powi(4);
        let raw = kp.powi(4) * log4;
        if raw >= u128::MAX as f64 {
            u128::MAX
        } else {
            (raw.ceil() as u128).max(2)
        }
    }

    /// Checks a simulation horizon `max_k`, the largest estimate a run
    /// executes: it must reach the first estimate `k = 2`, and every
    /// diffusion send index up to it must fit the `u32` that a
    /// [`RevMsg::Diffuse`](super::RevMsg::Diffuse) carries.
    ///
    /// The largest index a process meters is that of the first diffusion
    /// send after an iteration boundary, `r(k) + dissemination(k) + 1`
    /// (the process builds that message before it resets its phase
    /// counter). Both terms grow with `k`, so the bound is taken at
    /// `max_k`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for `max_k < 2`, or for a horizon
    /// whose largest send index exceeds `u32::MAX`.
    pub fn check_horizon(&self, max_k: u64) -> Result<(), CoreError> {
        if max_k < 2 {
            return Err(CoreError::InvalidConfig {
                reason: "max_k must be at least 2".into(),
            });
        }
        let index = self
            .r(max_k)
            .saturating_add(self.dissemination(max_k))
            .saturating_add(1);
        if index > u64::from(u32::MAX) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "horizon max_k = {max_k} reaches diffusion send index {index}, \
                     past the u32::MAX a metered Diffuse message carries"
                ),
            });
        }
        Ok(())
    }

    /// Rounds of one full iteration (diffusion + dissemination) at
    /// estimate `k`.
    pub fn iteration_rounds(&self, k: u64) -> u64 {
        self.r(k) + self.dissemination(k)
    }

    /// Total simulator rounds to finish every estimate up to and including
    /// `max_k` — the natural run budget for a simulation horizon.
    pub fn rounds_through(&self, max_k: u64) -> u64 {
        let mut total = 0u64;
        let mut k = 2u64;
        while k <= max_k {
            total = total.saturating_add(self.f(k).saturating_mul(self.iteration_rounds(k)));
            k *= 2;
        }
        total.saturating_add(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blind() -> RevocableParams {
        RevocableParams::paper_blind(0.5, 0.1)
    }

    #[test]
    fn f_constant_value() {
        assert!((f_constant() - 32.97).abs() < 0.01);
    }

    #[test]
    fn parameter_formulas_match_paper() {
        let p = blind();
        // p(k): ln2 / k^{1.5}
        assert!((p.p(4) - std::f64::consts::LN_2 / 8.0).abs() < 1e-12);
        // tau(k): 1 - 1/(k^{1.5} - 1)
        assert!((p.tau(4) - (1.0 - 1.0 / 7.0)).abs() < 1e-12);
        // f(k) grows logarithmically.
        assert!(p.f(4) > p.f(2));
        assert!(p.f(1024) < 4 * p.f(2), "f grows only logarithmically");
    }

    #[test]
    fn blind_r_matches_corollary_form() {
        let p = blind();
        // Blind: r(k) ≈ 2·k^{2(2+ε)}·log2(k^{2(1+ε)}) + k^{1+ε}log2(2k).
        let k = 4u64;
        let kp = p.k_pow(k); // 8
        let expected = 2.0 * (k as f64).powf(2.0 * (2.0 + p.eps)) * (kp * kp).log2()
            + kp * (2.0 * k as f64).log2();
        let got = p.r(k) as f64;
        assert!(
            (got - expected).abs() / expected < 1e-9,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn known_ig_shrinks_r() {
        let blind = blind();
        let informed = RevocableParams::paper_with_ig(0.5, 0.1, 8.0);
        assert!(informed.r(16) < blind.r(16));
    }

    #[test]
    fn scales_shrink_but_preserve_monotonicity() {
        let p = blind().with_scales(0.01, 0.05, 0.5);
        assert!(p.validate().is_ok());
        assert!(p.r(8) < blind().r(8));
        assert!(p.f(8) < blind().f(8));
        assert!(p.r(16) > p.r(8), "monotone in k");
        assert!(p.dissemination(16) > p.dissemination(8));
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(RevocableParams::paper_blind(0.0, 0.1).validate().is_err());
        assert!(RevocableParams::paper_blind(1.5, 0.1).validate().is_err());
        assert!(RevocableParams::paper_blind(0.5, 0.0).validate().is_err());
        assert!(RevocableParams::paper_blind(0.5, 1.0).validate().is_err());
        assert!(RevocableParams::paper_with_ig(0.5, 0.1, -1.0)
            .validate()
            .is_err());
        assert!(blind().with_scales(0.0, 1.0, 1.0).validate().is_err());
        assert!(blind().with_scales(1.0, 2.0, 1.0).validate().is_err());
        assert!(blind().validate().is_ok());
    }

    #[test]
    fn id_range_grows_fast_enough_for_uniqueness() {
        let p = blind();
        // Once k^{1+ε}·log(4k) ≥ n, the range is ≥ n⁴ (Theorem 3's proof).
        let k = 16u64;
        let kp = p.k_pow(k);
        let n_equiv = kp * (4.0 * k as f64).log2();
        assert!(p.id_range(k) as f64 >= n_equiv.powi(4) * 0.99);
    }

    #[test]
    fn rounds_budget_is_dominated_by_last_estimate() {
        let p = blind().with_scales(0.001, 0.1, 1.0);
        let through8 = p.rounds_through(8);
        let through16 = p.rounds_through(16);
        assert!(through16 > through8);
        let last = p.f(16) * p.iteration_rounds(16);
        assert!(through16 - through8 >= last);
    }

    #[test]
    fn horizon_check_bounds_the_send_index() {
        // Paper-exact blind at ε = 1: r(16) + diss(16) + 1 ≈ 5.4·10⁸ fits a
        // u32, r(32) ≈ 4.3·10¹⁰ does not.
        let exact = RevocableParams::paper_blind(1.0, 0.2);
        assert!(exact.check_horizon(16).is_ok());
        assert!(exact.r(32) > u64::from(u32::MAX));
        assert!(matches!(
            exact.check_horizon(32),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(exact.check_horizon(1).is_err());
        // The large-n ladder's scaled schedule and horizon.
        let ladder = RevocableParams::paper_blind(1.0, 0.2).with_scales(0.002, 0.05, 1.0);
        assert!(ladder.check_horizon(4).is_ok());
        // A horizon past every u64 schedule saturates instead of wrapping.
        assert!(exact.check_horizon(u64::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "estimates start at k = 2")]
    fn tau_rejects_k1() {
        blind().tau(1);
    }
}
