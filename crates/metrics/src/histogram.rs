//! Fixed-bin histograms.
//!
//! Used for the regime-occupancy counts of Figure 2 and for load/latency
//! distributions in the policy evaluations. Bins are uniform over `[lo, hi)`
//! with explicit underflow/overflow counters so no observation is silently
//! dropped.

/// A histogram with `bins` uniform buckets over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram; panics when `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range inverted: [{lo}, {hi})");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = crate::convert::saturating_usize(
                (x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64,
            );
            // Guard against floating-point edge where x is a hair below hi.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All in-range counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The inclusive-exclusive edges `[lo_i, hi_i)` of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Approximate quantile `q in [0,1]` from in-range observations, by
    /// linear interpolation within the containing bin. Returns `None` when
    /// the histogram holds no in-range observations.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return None;
        }
        let target = q * in_range as f64;
        let mut acc = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = acc + c as f64;
            if next >= target && c > 0 {
                let (lo, hi) = self.bin_edges(i);
                let frac = if c == 0 {
                    0.0
                } else {
                    (target - acc) / c as f64
                };
                return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
            }
            acc = next;
        }
        Some(self.hi)
    }

    /// Merges another histogram with identical geometry; panics on mismatch.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lo mismatch");
        assert_eq!(self.hi, other.hi, "histogram hi mismatch");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram bin-count mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.record(0.05);
        h.record(0.15);
        h.record(0.95);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn out_of_range_goes_to_flows() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0); // hi is exclusive
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn boundary_lands_in_lower_edge_of_next_bin() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(0.5);
        assert_eq!(h.count(0), 0);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn bin_edges_partition_range() {
        let h = Histogram::new(0.0, 1.0, 5);
        let mut prev_hi = 0.0;
        for i in 0..5 {
            let (lo, hi) = h.bin_edges(i);
            assert!((lo - prev_hi).abs() < 1e-12);
            prev_hi = hi;
        }
        assert!((prev_hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_uniform_fill() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() <= 1.0, "median {med}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 90.0).abs() <= 1.0, "p90 {p90}");
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let mut b = Histogram::new(0.0, 1.0, 4);
        a.record(0.1);
        b.record(0.1);
        b.record(0.9);
        b.record(-1.0);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(3), 1);
        assert_eq!(a.underflow(), 1);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn merge_rejects_geometry_mismatch() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 1.0, 8);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rejects_inverted_range() {
        Histogram::new(1.0, 0.0, 4);
    }
}
