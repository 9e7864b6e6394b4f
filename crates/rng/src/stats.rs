//! Streaming and batch descriptive statistics.
//!
//! Every experiment in the workspace reduces simulation output through
//! these helpers: Welford's online mean/variance (numerically stable for
//! the long 200-iteration KSR1 runs), and batch percentiles for the
//! arrival-time distributions.

/// Numerically stable streaming mean/variance/extrema (Welford).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Minimum observation; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Mean of a slice; 0 for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Unbiased sample standard deviation of a slice; 0 for < 2 elements.
pub fn std_dev(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    let ss: f64 = data.iter().map(|&x| (x - m) * (x - m)).sum();
    (ss / (data.len() - 1) as f64).sqrt()
}

/// Percentile via linear interpolation on the sorted copy
/// (`q ∈ [0, 1]`); NaN for an empty slice.
pub fn percentile(data: &[f64], q: f64) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Nearest-rank percentile of an already *sorted* slice
/// (`q ∈ [0, 1]`): the sample at rank `round(q·(n − 1))`, never a
/// value between two samples — what latency tables report, and usable
/// for any sample type. `None` for an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (q.clamp(0.0, 1.0) * last as f64).round() as usize;
    Some(sorted[rank])
}

/// Spearman rank correlation between two equal-length slices.
///
/// Used by the Figure 5 reproduction to quantify how strongly processor
/// arrival *order* persists across barrier iterations. Ties get average
/// ranks. Returns NaN for slices shorter than 2 or mismatched lengths.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.len() < 2 {
        return f64::NAN;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    pearson(&ra, &rb)
}

/// Pearson correlation coefficient.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.len() < 2 {
        return f64::NAN;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return f64::NAN;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Lag-`k` sample autocorrelation of a series.
///
/// Used by the Figure 5 analysis to characterize how quickly the
/// fuzzy-barrier iteration dynamics forget an imbalance shock. Returns
/// NaN when the series is shorter than `k + 2` or has zero variance.
pub fn autocorrelation(series: &[f64], k: usize) -> f64 {
    let n = series.len();
    if n < k + 2 {
        return f64::NAN;
    }
    let m = mean(series);
    let mut num = 0.0;
    let mut den = 0.0;
    for &x in series {
        den += (x - m) * (x - m);
    }
    if den == 0.0 {
        return f64::NAN;
    }
    for i in 0..n - k {
        num += (series[i] - m) * (series[i + k] - m);
    }
    num / den
}

/// Two-sided Student-t confidence half-width for the mean of the
/// observations in `stats`, at the given confidence level (e.g. 0.95).
///
/// The t quantile is computed from the normal quantile with the
/// Cornish–Fisher-style correction `t ≈ z + (z³ + z)/(4ν)`, accurate to
/// well under 2 % for ν ≥ 8 — every experiment in this workspace uses
/// far more replications than that. Returns 0 for fewer than two
/// observations.
pub fn confidence_half_width(stats: &OnlineStats, level: f64) -> f64 {
    if stats.count() < 2 {
        return 0.0;
    }
    assert!((0.0..1.0).contains(&level), "confidence level in (0,1)");
    let nu = (stats.count() - 1) as f64;
    let z = crate::special::normal_quantile(0.5 + level / 2.0);
    let t = z + (z * z * z + z) / (4.0 * nu);
    t * stats.std_err()
}

/// Average ranks (1-based) with ties sharing their mean rank.
fn ranks(data: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.sort_by(|&i, &j| data[i].total_cmp(&data[j]));
    let mut out = vec![0.0; data.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && data[idx[j + 1]] == data[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_batch() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.mean() - mean(&data)).abs() < 1e-12);
        assert!((s.std_dev() - std_dev(&data)).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        s.push(3.0);
        let before = s.clone();
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 1.0), 4.0);
        assert!((percentile(&data, 0.5) - 2.5).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn nearest_rank_returns_a_sample() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&data, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&data, 0.5), Some(3.0));
        assert_eq!(nearest_rank(&data, 0.99), Some(4.0));
        assert_eq!(nearest_rank(&data, 7.0), Some(4.0));
        assert_eq!(nearest_rank(&[9u64], 0.5), Some(9));
        assert_eq!(nearest_rank::<f64>(&[], 0.5), None);
    }

    #[test]
    fn spearman_detects_monotone_relations() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().map(|&x| x * x).collect(); // monotone
        let c: Vec<f64> = a.iter().map(|&x| -x).collect(); // reversed
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 3.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_is_nan() {
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_nan());
        assert!(pearson(&[1.0], &[2.0]).is_nan());
        assert!(pearson(&[1.0, 2.0], &[2.0]).is_nan());
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative() {
        let series: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&series, 1) < -0.9);
        assert!(autocorrelation(&series, 2) > 0.9);
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let series: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
        assert!((autocorrelation(&series, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_degenerate_is_nan() {
        assert!(autocorrelation(&[1.0, 2.0], 1).is_nan()); // too short
        assert!(autocorrelation(&[3.0; 20], 1).is_nan()); // zero variance
    }

    #[test]
    fn confidence_half_width_behaves() {
        let mut s = OnlineStats::new();
        for i in 0..100 {
            s.push(10.0 + (i % 7) as f64);
        }
        let hw95 = confidence_half_width(&s, 0.95);
        let hw99 = confidence_half_width(&s, 0.99);
        assert!(hw95 > 0.0);
        assert!(hw99 > hw95, "wider confidence, wider interval");
        // sanity: for n = 100, hw95 ≈ 1.984·std_err
        assert!((hw95 / s.std_err() - 1.984).abs() < 0.05);
        // degenerate
        assert_eq!(confidence_half_width(&OnlineStats::new(), 0.95), 0.0);
    }
}
