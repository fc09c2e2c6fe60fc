//! Order statistics and the seeded Zipf sampler the workloads draw from.

use credence_rng::Rng;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `q` percent of the samples at or below it. `q` is clamped
/// to `0..=100`; an empty slice yields `NaN`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 100.0);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending (total order; `NaN` sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median: the mean of the two middle samples for an even count. An empty
/// slice yields `NaN`.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Zipf-distributed ranks over `0..n` (rank 0 most likely), drawn by binary
/// search over the cumulative weights `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "a Zipf sampler needs at least one rank");
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Draw one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cdf.last().expect("non-empty cdf");
        let x = rng.gen_f64() * total;
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }
}
