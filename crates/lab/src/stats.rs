//! Scalar sample statistics shared by the fleet aggregator and the
//! algorithm drivers ([`crate::runners`]).

/// Median (averaging the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in experiment data"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Streaming mean/variance/min/max (Welford) — the bounded-memory core of
/// the fleet aggregator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    /// Samples seen.
    pub count: u64,
    /// Running mean.
    pub mean: f64,
    m2: f64,
    /// Smallest sample (`+inf` when empty).
    pub min: f64,
    /// Largest sample (`-inf` when empty).
    pub max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorbs one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval on
    /// the mean (0 for fewer than 2 samples).
    pub fn ci95(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.std_dev() / (self.count as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        // Two-pass batch mean and sample standard deviation (n−1).
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert_eq!(w.count, 8);
        assert!((w.mean - mean).abs() < 1e-12);
        assert!((w.std_dev() - var.sqrt()).abs() < 1e-12);
        assert_eq!(w.min, 2.0);
        assert_eq!(w.max, 9.0);
        assert!(w.ci95() > 0.0);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.count, 0);
        assert_eq!(w.std_dev(), 0.0);
        w.push(3.5);
        assert_eq!(w.mean, 3.5);
        assert_eq!(w.ci95(), 0.0);
    }
}
