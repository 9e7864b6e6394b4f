//! Block medians, quartiles and latency percentiles — the only
//! statistics the benchmark reports.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
/// Latency samples are reported this way: the value is one that was
/// actually measured, never an interpolation.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the nearest-rank percentile.
pub fn percentile_of(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so a spread computed here is the
/// spread the driver computes. One value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale; like Python, the
        // neighbours are clamped to the data but the weight is not, so
        // tiny samples extrapolate.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median: the spread the
/// driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// What a run reports for one metric: the median over its blocks, with
/// the block quartiles beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub blocks: usize,
}

impl Summary {
    pub fn of_blocks(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            median,
            q1,
            q3,
            blocks: values.len(),
        }
    }

    /// A value measured once per run (a count, a checksum, a peak).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            blocks: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        let mut odd = [9, 1, 5];
        assert_eq!(percentile_of(&mut odd, 50.0), 5);
    }

    /// Reference values from `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((q1, q2, q3), (2.75, 5.5, 8.25));
        let (q1, q2, q3) = quartiles(&[10.0, 1.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.0, 4.0, 10.0));
        let (q1, q2, q3) = quartiles(&[2.0, 8.0]);
        assert_eq!((q1, q2, q3), (0.5, 5.0, 9.5));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn block_summary_is_the_median_with_quartiles_beside_it() {
        let blocks: Vec<f64> = (1..=15).map(f64::from).collect();
        let s = Summary::of_blocks(&blocks);
        assert_eq!((s.q1, s.median, s.q3, s.blocks), (4.0, 8.0, 12.0, 15));
        // One wild block moves neither the median nor the quartiles.
        let mut wild = blocks.clone();
        wild[14] = 1e9;
        assert_eq!(Summary::of_blocks(&wild), s);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v = [
            98.0, 99.0, 100.0, 101.0, 102.0, 100.0, 100.0, 99.5, 100.5, 100.0,
        ];
        let (q1, med, q3) = quartiles(&v);
        assert_eq!(spread(&v), (q3 - q1) / med);
        assert!(spread(&v) < 0.02);
    }
}
