//! Log-linear latency histograms with a fixed, merge-invariant bucket
//! layout (HDR-histogram style).
//!
//! Values (nanoseconds) below [`LatencyHistogram::SUB`] land in linear
//! unit buckets; above that, each power of two is split into `SUB`
//! linear sub-buckets, bounding the relative quantization error at
//! `1/SUB` (~3%) across the full `u64` range. The layout is a pure
//! function of the value — no rescaling, no dynamic ranges — so
//! merging two histograms is element-wise addition: associative,
//! commutative, and invariant under how samples were sharded across
//! worker threads. That is what lets per-worker recording feed
//! process-wide percentiles without any cross-thread ordering.
//!
//! Quantiles report the *lower bound* of the bucket containing the
//! requested rank, which keeps reported figures stable under merges.

/// A fixed-layout log-linear histogram of nanosecond values.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
}

/// log2 of the linear sub-bucket count per power of two.
const SUB_BITS: u32 = 5;

impl LatencyHistogram {
    /// Linear sub-buckets per power of two (and the linear-range bound).
    pub const SUB: u64 = 1 << SUB_BITS;
    /// Total bucket count of the fixed layout.
    pub const BUCKETS: usize = (Self::SUB as usize) * (64 - SUB_BITS as usize + 1);

    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; Self::BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < Self::SUB {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros();
            let mantissa = ((v >> (exp - SUB_BITS)) - Self::SUB) as usize;
            Self::SUB as usize + ((exp - SUB_BITS) as usize) * Self::SUB as usize + mantissa
        }
    }

    /// Lower value bound of bucket `i` (the figure quantiles report).
    fn floor_of(i: usize) -> u64 {
        if i < Self::SUB as usize {
            i as u64
        } else {
            let rel = i - Self::SUB as usize;
            let exp = SUB_BITS + (rel / Self::SUB as usize) as u32;
            let mantissa = (rel % Self::SUB as usize) as u64;
            (Self::SUB + mantissa) << (exp - SUB_BITS)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
    }

    /// Element-wise merge (associative, commutative).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Recorded sample count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded values, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128).min(u64::MAX as u128) as u64
        }
    }

    /// The quantile `q` (in percent, `0.0..=100.0`): the lower bound of
    /// the bucket holding the sample of rank `ceil(q/100 × count)`.
    /// Returns 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((q / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::floor_of(i);
            }
        }
        Self::floor_of(Self::BUCKETS - 1)
    }

    /// Lower bound of the highest non-empty bucket (0 when empty).
    pub fn max_observed(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(Self::floor_of)
            .unwrap_or(0)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LatencyHistogram(count {}, p50 {}, p99 {}, max {})",
            self.count,
            self.percentile(50.0),
            self.percentile(99.0),
            self.max_observed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `[lo, hi)` value range of the bucket `v` falls into.
    fn bucket_of(v: u64) -> (u64, u64) {
        let i = LatencyHistogram::index(v);
        let hi = if i + 1 < LatencyHistogram::BUCKETS {
            LatencyHistogram::floor_of(i + 1)
        } else {
            u64::MAX
        };
        (LatencyHistogram::floor_of(i), hi)
    }

    #[test]
    fn linear_range_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..LatencyHistogram::SUB {
            h.record(v);
            let (lo, hi) = bucket_of(v);
            assert_eq!((lo, hi), (v, v + 1));
        }
        assert_eq!(h.count(), LatencyHistogram::SUB);
        assert_eq!(h.percentile(100.0), LatencyHistogram::SUB - 1);
    }

    #[test]
    fn buckets_bound_relative_error() {
        for shift in 0..58 {
            for v in [37u64 << shift, (1u64 << (shift + 6)) - 1] {
                let (lo, hi) = bucket_of(v);
                assert!(lo <= v && v < hi, "{v}: [{lo},{hi})");
                // Width ≤ lo / SUB in the logarithmic range.
                if lo >= LatencyHistogram::SUB {
                    assert!(
                        hi - lo <= lo / LatencyHistogram::SUB + 1,
                        "{v}: [{lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn index_is_monotonic_across_decades() {
        let mut last = bucket_of(0).0;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let (lo, _) = bucket_of(v);
            assert!(lo >= last, "floor regressed at {v}");
            last = lo;
            v = v.saturating_mul(3) / 2 + 1;
        }
    }

    #[test]
    fn extremes_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert!(h.max_observed() > u64::MAX / 2);
        // u64::MAX lands in the last bucket, whose floor is within the
        // relative error of it.
        assert_eq!(
            LatencyHistogram::index(u64::MAX),
            LatencyHistogram::BUCKETS - 1
        );
        let (lo, hi) = bucket_of(u64::MAX);
        assert!(u64::MAX - lo < lo / LatencyHistogram::SUB, "floor {lo}");
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn percentiles_walk_the_rank() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= 500_000 && p50 >= 450_000, "p50 {p50}");
        assert!(p95 <= 950_000 && p95 >= 900_000, "p95 {p95}");
        assert!(p99 <= 990_000 && p99 >= 930_000, "p99 {p99}");
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(h.percentile(0.0), h.percentile(0.1));
    }

    #[test]
    fn merge_matches_single_recording() {
        let mut all = LatencyHistogram::new();
        let mut parts = vec![LatencyHistogram::new(); 3];
        for (i, v) in [5u64, 40, 41, 900, 7_000, 123_456, 5, 40]
            .iter()
            .enumerate()
        {
            all.record(*v);
            parts[i % 3].record(*v);
        }
        let mut merged = LatencyHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, all);
        assert_eq!(merged.sum(), all.sum());
        assert_eq!(merged.mean(), all.mean());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max_observed(), 0);
    }
}
