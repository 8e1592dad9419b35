//! Log₂-bucketed histograms.
//!
//! Replaces single-mean reporting (`GcStats::mean_pause_nanos`) with a
//! distribution: 65 buckets, where bucket 0 holds the value 0 and bucket
//! `k ≥ 1` holds values in `[2^(k-1), 2^k)`. Quantiles are resolved to a
//! bucket's upper bound, so p99 of nanosecond pauses is accurate to a
//! factor of two — enough to distinguish a 10µs pause regime from a 1ms
//! one, which is what the perf trajectory needs.

/// A fixed-size log₂ histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; 65],
    total: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 65],
            total: 0,
            max: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples in O(1) (bulk loads, large-count
    /// boundary tests).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.total += n;
        self.max = self.max.max(v);
        self.sum += u128::from(v) * u128::from(n);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded samples. Together with [`Histogram::count`]
    /// this lets callers derive rates (e.g. total pause time,
    /// mutator utilization) without a parallel accumulator.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The non-zero buckets as `(upper_bound, count)` pairs. Bucket 0's
    /// upper bound is 0; bucket `k`'s is `2^k - 1`.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(k, c)| (upper_bound(k), *c))
            .collect()
    }

    /// The value below which a fraction `q` of samples fall, resolved to
    /// the containing bucket's upper bound (exact for the max). Returns 0
    /// for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        let rank = ceil_rank(q, self.total).max(1);
        let mut seen = 0u64;
        for (k, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket's bound can exceed the true max; clamp.
                return upper_bound(k).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::quantile`] for resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds every sample of `other` into `self` (multi-run aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

/// `⌈q · total⌉` computed exactly in integers. `f64` multiplication
/// rounds — at `total = 10^9`, `0.99 * total` can land on the wrong side
/// of an integer and shift the rank (and thus the reported percentile)
/// by one sample. Instead the quantile is decomposed exactly as the
/// dyadic rational `m · 2^e` every finite `f64` is, and the product is
/// ceiling-shifted in `u128`.
fn ceil_rank(q: f64, total: u64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if q == 0.0 {
        return 0;
    }
    let bits = q.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let frac = bits & ((1u64 << 52) - 1);
    // m · 2^e == q, exactly. Normal numbers carry the implicit leading
    // bit; subnormals (absurd quantiles, but total correctness is cheap)
    // do not.
    let (m, e) = if exp == 0 {
        (frac, -1074i64)
    } else {
        (frac | (1u64 << 52), exp - 1075)
    };
    let prod = u128::from(m) * u128::from(total);
    if e >= 0 {
        // q ≥ 1 with an exact product (q == 1.0 → m = 2^52, e = -52
        // never lands here; defensive all the same).
        (prod << e) as u64
    } else if e <= -128 {
        u64::from(prod > 0)
    } else {
        let shift = (-e) as u32;
        let floor = prod >> shift;
        let rem = prod & ((1u128 << shift) - 1);
        (floor + u128::from(rem != 0)) as u64
    }
}

fn upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn buckets_split_at_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        // 0 | 1 | 2,3 | 4..7 | 8 | 1024 — six distinct buckets.
        assert_eq!(h.buckets().len(), 6);
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.max());
        assert_eq!(h.quantile(1.0), 999);
    }

    #[test]
    fn single_sample_quantiles_hit_its_bucket() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.p50(), 1_000_000); // clamped to max
        assert_eq!(h.max(), 1_000_000);
    }

    /// Regression: quantile at the domain boundaries. `q = 0.0` must
    /// resolve to the first non-empty bucket (rank is clamped to 1, not
    /// 0), `q = 1.0` to the max, and the empty histogram to 0 for every
    /// `q` — without panicking on the degenerate rank arithmetic.
    #[test]
    fn quantile_bucket_boundaries() {
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile(1.0), 0);
        assert_eq!(empty.sum(), 0);

        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 4, 8, 1 << 20] {
            h.record(v);
        }
        // q=0.0: rank clamps to the first sample's bucket (value 0 here).
        assert_eq!(h.quantile(0.0), 0);
        // q=1.0: exactly the max, not the top bucket's upper bound.
        assert_eq!(h.quantile(1.0), 1 << 20);
        assert_eq!(h.sum(), (1 + 2 + 4 + 8 + (1 << 20)) as u128);

        // Samples exactly on a power-of-two boundary land in the bucket
        // whose upper bound is the next power minus one.
        let mut b = Histogram::new();
        b.record(8);
        assert_eq!(b.quantile(0.0), 8); // clamped to max within bucket
        assert_eq!(b.quantile(1.0), 8);
    }

    /// Regression for the float-rank bug: `⌈q · total⌉` must be exact at
    /// rank-rounding edges. With 100 samples, p99 is the 99th sample;
    /// with 101 it is the 100th (⌈99.99⌉); the f64 path was one sample
    /// off whenever the product rounded across an integer.
    #[test]
    fn quantile_rank_edges_small() {
        // 99 samples of 1, one sample of 1000: rank 99 is still a 1.
        let mut h = Histogram::new();
        h.record_n(1, 99);
        h.record(1000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p99(), 1, "p99 of 100 = rank 99, inside the 1s");
        assert_eq!(h.quantile(1.0), 1000);

        // 100 samples of 1, one of 1000: ⌈0.99 · 101⌉ = 100 — still a 1.
        let mut h = Histogram::new();
        h.record_n(1, 100);
        h.record(1000);
        assert_eq!(h.p99(), 1, "p99 of 101 = rank 100, inside the 1s");

        // 98 of 1, three of 1000: ⌈0.99 · 101⌉ = 100 — second 1000.
        let mut h = Histogram::new();
        h.record_n(1, 98);
        h.record_n(1000, 3);
        assert_eq!(h.p99(), 1000, "rank 100 of 101 reaches the top bucket");
    }

    /// The same edge at 10⁹ samples, where `0.99 * total as f64` rounds.
    /// Exactly ⌈0.99 · 10⁹⌉ = 990_000_000 samples sit at value 1: rank
    /// 990_000_000 must land on the *last* 1, not the first 1000.
    #[test]
    fn quantile_rank_edges_billion() {
        const TOTAL: u64 = 1_000_000_000;
        const LOW: u64 = 990_000_000; // == ceil(0.99 * TOTAL)
        let mut h = Histogram::new();
        h.record_n(1, LOW);
        h.record_n(1000, TOTAL - LOW);
        assert_eq!(h.count(), TOTAL);
        assert_eq!(h.p99(), 1, "rank exactly at the 1/1000 boundary");

        // One fewer low sample: rank 990_000_000 crosses into the 1000s.
        let mut h = Histogram::new();
        h.record_n(1, LOW - 1);
        h.record_n(1000, TOTAL - LOW + 1);
        assert_eq!(h.p99(), 1000, "one sample short flips the bucket");
    }

    /// The rank helper agrees with exact rational arithmetic across
    /// awkward (q, total) pairs.
    #[test]
    fn ceil_rank_matches_exact_arithmetic() {
        for &total in &[1u64, 2, 3, 99, 100, 101, 1_000_000_007, u64::MAX] {
            assert_eq!(ceil_rank(0.0, total), 0);
            assert_eq!(ceil_rank(1.0, total), total);
            assert_eq!(ceil_rank(0.5, total), total / 2 + total % 2);
        }
        // 0.99 is not dyadic: its f64 is 0.9899999999999999911182…, so
        // the exact ceiling at total=100 is 99 (not the 100 a naive
        // reading of 0.99·100 suggests is borderline).
        assert_eq!(ceil_rank(0.99, 100), 99);
        assert_eq!(ceil_rank(0.99, 1_000_000_000), 990_000_000);
        // Subnormal q: any positive fraction of a non-empty set is rank 1.
        assert_eq!(ceil_rank(f64::MIN_POSITIVE / 2.0, u64::MAX), 1);
    }

    #[test]
    fn sum_survives_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(32);
        a.merge(&b);
        assert_eq!(a.sum(), 42);
        assert_eq!(a.mean(), 21.0);
    }

    #[test]
    fn merge_is_sum() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1, 2, 3] {
            a.record(v);
        }
        for v in [100, 200] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 200);
        let bucket_sum: u64 = a.buckets().iter().map(|(_, c)| c).sum();
        assert_eq!(bucket_sum, 5);
    }

    /// Property: for any sample set, bucket counts sum to the number of
    /// recorded events, and every sample lands in a bucket whose bound
    /// is >= the sample. Driven by a tiny deterministic LCG (external
    /// property-test crates are unavailable offline).
    #[test]
    fn prop_bucket_counts_sum_to_events() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _case in 0..200 {
            let n = (next() % 64) as usize;
            let mut h = Histogram::new();
            let mut samples = Vec::new();
            for _ in 0..n {
                // Mix magnitudes: shift by a random amount.
                let v = next() >> (next() % 64);
                h.record(v);
                samples.push(v);
            }
            assert_eq!(h.count(), n as u64);
            let bucket_sum: u64 = h.buckets().iter().map(|(_, c)| c).sum();
            assert_eq!(bucket_sum, n as u64, "bucket counts must sum to events");
            assert_eq!(h.max(), samples.iter().copied().max().unwrap_or(0));
            if n > 0 {
                assert!(h.quantile(1.0) <= h.max());
            }
        }
    }
}
