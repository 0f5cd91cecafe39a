//! Order statistics shared by every metric the benchmark reports.

/// Sorts a sample in place (total order; NaN never occurs in timings).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a sorted, non-empty
/// sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted, non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile(&v, 0.5)
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the definition the benchmark's spread rule uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => panic!("quartiles of an empty sample"),
        1 => (v[0], v[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The tail of a timing sample: the highest percentile that still has at
/// least ten samples beyond it, i.e. the value with exactly ten larger
/// samples, returned with its percentile. Below 21 samples that
/// percentile would not even reach the median, so the maximum is
/// returned as the 100th.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "tail of an empty sample");
    if n < 21 {
        return (v[n - 1], 100.0);
    }
    let idx = n - 11;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// FNV-1a over bytes: the digest the benchmark pins output files with.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: the benchmark's deterministic stream generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
