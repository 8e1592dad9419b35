//! Order statistics for timing samples: nearest-rank percentiles, the
//! median, and the interquartile range.
//!
//! Percentiles are given in basis points (`p99` = 9900, `p99.9` = 9990)
//! so every rank is computed in exact integer arithmetic. A percentile is
//! only *resolved* when at least [`MIN_BEYOND`] samples lie beyond it;
//! otherwise it renders as `n/a`, because the value would be one of the
//! few largest samples rather than a stable estimate of the tail.

use std::fmt;

/// Samples that must lie strictly beyond a percentile's rank for it to
/// be reported.
pub const MIN_BEYOND: usize = 10;

/// A summary of one sample set. Holds the sorted samples, so every
/// statistic is exact.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

/// One percentile of a [`Summary`], with the context a reader needs to
/// judge it: the sample count and whether enough samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The nearest-rank value.
    pub value: f64,
    /// Total samples.
    pub n: usize,
    /// Samples ranked strictly above this percentile.
    pub beyond: usize,
}

impl Quantile {
    /// At least [`MIN_BEYOND`] samples lie beyond the percentile.
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

impl fmt::Display for Quantile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.resolved() {
            write!(f, "{:.4} (n={})", self.value, self.n)
        } else {
            write!(f, "n/a (n={}, {} beyond)", self.n, self.beyond)
        }
    }
}

/// The 1-based nearest rank of percentile `bp` (basis points) among `n`
/// samples: the smallest rank `r` with `r / n >= bp / 10000`, at least 1.
pub fn nearest_rank(bp: u32, n: usize) -> usize {
    assert!(bp <= 10_000, "percentile {bp} bp is above 100%");
    let r = (bp as usize * n).div_ceil(10_000);
    r.clamp(1, n.max(1))
}

impl Summary {
    /// Summarizes `samples`. NaN samples are a caller bug.
    pub fn new(mut samples: Vec<f64>) -> Summary {
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN in timing samples");
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `bp` in basis points, nearest rank. An empty summary
    /// yields 0 with nothing beyond it (unresolved).
    pub fn quantile(&self, bp: u32) -> Quantile {
        let n = self.n();
        if n == 0 {
            return Quantile {
                value: 0.0,
                n,
                beyond: 0,
            };
        }
        let rank = nearest_rank(bp, n);
        Quantile {
            value: self.sorted[rank - 1],
            n,
            beyond: n - rank,
        }
    }

    /// Nearest-rank median.
    pub fn median(&self) -> f64 {
        self.quantile(5_000).value
    }

    /// Nearest-rank `p75 - p25`.
    pub fn iqr(&self) -> f64 {
        self.quantile(7_500).value - self.quantile(2_500).value
    }

    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Summary {
        Summary::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_is_the_ceiling() {
        assert_eq!(nearest_rank(5_000, 4), 2);
        assert_eq!(nearest_rank(5_000, 5), 3);
        assert_eq!(nearest_rank(0, 7), 1);
        assert_eq!(nearest_rank(10_000, 7), 7);
        assert_eq!(nearest_rank(9_900, 1), 1);
        assert_eq!(nearest_rank(5_000, 0), 1);
    }

    #[test]
    fn median_and_iqr() {
        let s = Summary::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.iqr(), 4.0 - 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        let even = ramp(8);
        assert_eq!(even.median(), 4.0);
        assert_eq!(even.iqr(), 6.0 - 2.0);
    }

    #[test]
    fn p99_of_100_is_unresolved_but_p90_is_resolved() {
        let s = ramp(100);
        let p99 = s.quantile(9_900);
        assert_eq!(p99.value, 99.0);
        assert_eq!(p99.beyond, 1);
        assert!(!p99.resolved());
        assert_eq!(p99.to_string(), "n/a (n=100, 1 beyond)");
        let p90 = s.quantile(9_000);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert!(p90.resolved());
        assert_eq!(p90.to_string(), "90.0000 (n=100)");
    }

    #[test]
    fn p99_resolves_at_exactly_1000_samples() {
        let s = ramp(1000);
        let p99 = s.quantile(9_900);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.resolved());
        let short = ramp(999).quantile(9_900);
        assert_eq!(short.value, 990.0);
        assert_eq!(short.beyond, 9);
        assert!(!short.resolved());
        let p999 = s.quantile(9_990);
        assert_eq!(p999.value, 999.0);
        assert!(!p999.resolved());
    }

    #[test]
    fn p99_at_1009_samples_rounds_the_rank_up() {
        // 0.99 * 1009 = 998.91, so the nearest rank is 999, leaving 10.
        let s = ramp(1009);
        let p99 = s.quantile(9_900);
        assert_eq!(p99.value, 999.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.resolved());
        let p50 = s.quantile(5_000);
        assert_eq!(p50.value, 505.0);
    }

    #[test]
    fn empty_summary_is_unresolved_zero() {
        let s = Summary::new(Vec::new());
        let q = s.quantile(5_000);
        assert_eq!(q.value, 0.0);
        assert!(!q.resolved());
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.iqr(), 0.0);
    }
}
