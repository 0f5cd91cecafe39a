//! Witness geometry of the pumping-wheel construction (paper Section 5.1,
//! Figures 1 and 2).
//!
//! Theorem 2's proof places disjoint **witnesses** — paths of length
//! `2T(n) + 2n` — around a large cycle `C_N`, separated by at least `2T(n)`
//! nodes so their executions stay independent for `T(n)` rounds. The middle
//! `2n` nodes of a witness form its **core**, flanked by `T(n)`-node
//! buffers that information from outside cannot cross within `T(n)`
//! rounds.
//!
//! This module reproduces the layout of Figures 1–2 as *checkable data*,
//! with unit tests asserting the geometry the proof uses.

/// Layout of witnesses on the cycle `C_N` for a pumping-wheel argument
/// against algorithms that stop by time `T` believing the network has `n₀`
/// nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PumpingLayout {
    /// The "believed" network size `n₀` (segment length).
    pub n0: usize,
    /// The stop-time bound `T(n₀)`.
    pub t: usize,
    /// The actual cycle size `N`.
    pub big_n: usize,
}

/// One witness: a path of `2T + 2n₀` consecutive cycle nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Witness {
    /// Index of the witness (0-based).
    pub index: usize,
    /// First node of the witness (inclusive), as a cycle position.
    pub start: usize,
    /// Length of the witness (`2T + 2n₀`).
    pub len: usize,
    /// The believed size `n₀`.
    n0: usize,
    /// The stop bound `T`.
    t: usize,
}

impl PumpingLayout {
    /// Creates a layout. `big_n` must be a multiple of the block size
    /// `4T + 2n₀` (a witness plus its `2T` separation gap), as in the
    /// proof.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string when the parameters are
    /// inconsistent (kept as `String` — this is experiment plumbing, not a
    /// public API surface).
    pub fn new(n0: usize, t: usize, big_n: usize) -> Result<Self, String> {
        if n0 == 0 || t == 0 {
            return Err("n0 and T must be positive".into());
        }
        let block = 4 * t + 2 * n0;
        if big_n == 0 || !big_n.is_multiple_of(block) {
            return Err(format!(
                "N = {big_n} must be a positive multiple of 4T + 2n0 = {block}"
            ));
        }
        Ok(PumpingLayout { n0, t, big_n })
    }

    /// The block size `4T + 2n₀` (witness + separation).
    pub fn block(&self) -> usize {
        4 * self.t + 2 * self.n0
    }

    /// Witness length `2T + 2n₀`.
    pub fn witness_len(&self) -> usize {
        2 * self.t + 2 * self.n0
    }

    /// Number of witnesses `N / (4T + 2n₀)`.
    pub fn witness_count(&self) -> usize {
        self.big_n / self.block()
    }

    /// The minimal `N` (as a multiple of the block size) for which the
    /// proof's union bound gives failure probability `> 1 − c`, i.e.
    /// `x > ln(1/c)/c² · 2^{2n₀T}` blocks. Saturates at `u128::MAX` — the
    /// point of exposing it is to show how astronomically the *proof*
    /// over-provisions compared with the empirically observed failures.
    pub fn proof_block_count(n0: u32, t: u32, c: f64) -> u128 {
        let ln_term = (1.0 / c).ln() / (c * c);
        let exponent = 2u32.saturating_mul(n0).saturating_mul(t);
        if exponent >= 120 {
            return u128::MAX;
        }
        let blocks = ln_term * (1u128 << exponent) as f64;
        if blocks >= u128::MAX as f64 {
            u128::MAX
        } else {
            (blocks.ceil() as u128).max(1)
        }
    }

    /// The `i`-th witness.
    ///
    /// # Panics
    ///
    /// Panics if `i >= witness_count()`.
    pub fn witness(&self, i: usize) -> Witness {
        assert!(i < self.witness_count(), "witness index out of range");
        Witness {
            index: i,
            start: i * self.block(),
            len: self.witness_len(),
            n0: self.n0,
            t: self.t,
        }
    }
}

impl Witness {
    /// The core: the middle `2n₀` nodes, as cycle positions (wrapping).
    pub fn core(&self, big_n: usize) -> Vec<usize> {
        (0..2 * self.n0)
            .map(|o| (self.start + self.t + o) % big_n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> PumpingLayout {
        // n0 = 4, T = 3: block = 20, witness = 14. N = 3 blocks.
        PumpingLayout::new(4, 3, 60).unwrap()
    }

    /// Nodes of the witness as cycle positions (wrapping).
    fn nodes(w: &Witness, big_n: usize) -> Vec<usize> {
        (0..w.len).map(|o| (w.start + o) % big_n).collect()
    }

    #[test]
    fn construction_validates() {
        assert!(PumpingLayout::new(0, 3, 60).is_err());
        assert!(PumpingLayout::new(4, 0, 60).is_err());
        assert!(PumpingLayout::new(4, 3, 61).is_err());
        assert!(PumpingLayout::new(4, 3, 0).is_err());
        let l = layout();
        assert_eq!(l.block(), 20);
        assert_eq!(l.witness_len(), 14);
        assert_eq!(l.witness_count(), 3);
    }

    #[test]
    fn witnesses_are_disjoint_and_separated() {
        let l = layout();
        let all: Vec<Vec<usize>> = (0..l.witness_count())
            .map(|i| nodes(&l.witness(i), l.big_n))
            .collect();
        // Pairwise disjoint.
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                for v in &all[i] {
                    assert!(!all[j].contains(v), "witnesses {i} and {j} overlap at {v}");
                }
            }
        }
        // Gap between consecutive witnesses is 2T = 6 nodes.
        let w0_end = (l.witness(0).start + l.witness_len()) % l.big_n;
        let w1_start = l.witness(1).start;
        assert_eq!(w1_start - w0_end, 2 * l.t);
    }

    #[test]
    fn core_is_centered() {
        let l = layout();
        let w = l.witness(1);
        let core = w.core(l.big_n);
        assert_eq!(core.len(), 2 * l.n0);
        // T nodes on each side within the witness, contiguous.
        assert_eq!(core[0], w.start + l.t);
        assert!(core.windows(2).all(|p| p[1] == p[0] + 1));
    }

    #[test]
    fn wrapping_layout_works() {
        // A single block exactly fills the cycle; the witness wraps.
        let l = PumpingLayout::new(3, 2, 14).unwrap();
        assert_eq!(l.witness_count(), 1);
        let nodes = nodes(&l.witness(0), l.big_n);
        assert_eq!(nodes.len(), 10);
        assert!(nodes.iter().all(|&v| v < 14));
    }

    #[test]
    fn proof_block_count_is_astronomical() {
        // Even toy parameters demand >2^24 blocks — the reason the
        // *empirical* experiment uses much smaller N and still observes
        // the phenomenon (failures only get more likely with N).
        let blocks = PumpingLayout::proof_block_count(4, 3, 0.5);
        assert!(blocks > 1 << 24);
        assert_eq!(PumpingLayout::proof_block_count(64, 64, 0.5), u128::MAX);
    }
}
