//! Online quantile estimation — the P² algorithm.
//!
//! Jain & Chlamtac's P² algorithm estimates a single quantile in O(1)
//! memory with five markers, without storing observations. The farm
//! evaluator uses it for tail response times (p95/p99), which a mean
//! hides: SLAs are violated in the tail first.
//!
//! Reference: R. Jain, I. Chlamtac, "The P² algorithm for dynamic
//! calculation of quantiles and histograms without storing observations",
//! CACM 28(10), 1985.

/// Streaming estimator of one quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based counts).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments.
    increments: [f64; 5],
    count: usize,
    /// First five observations, sorted lazily at initialisation.
    warmup: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q ∈ (0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            warmup: Vec::with_capacity(5),
        }
    }

    /// Observations seen.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            self.warmup.push(x);
            if self.count == 5 {
                self.warmup.sort_by(|a, b| a.total_cmp(b));
                for (h, &w) in self.heights.iter_mut().zip(&self.warmup) {
                    *h = w;
                }
            }
            return;
        }

        // Find the cell containing x and bump marker positions.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // heights[k] <= x < heights[k+1]
            (0..4).find(|&i| x < self.heights[i + 1]).unwrap_or(3)
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Adjust interior markers with parabolic (or linear) moves.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let can_right = self.positions[i + 1] - self.positions[i] > 1.0;
            let can_left = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && can_right) || (d <= -1.0 && can_left) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                    self.heights[i] = candidate;
                } else {
                    self.heights[i] = self.linear(i, s);
                }
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let n = &self.positions;
        let h = &self.heights;
        h[i] + s / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + s) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - s) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate; `None` with no observations. With fewer than five
    /// observations the estimate is the exact sample quantile.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count < 5 {
            let mut xs = self.warmup.clone();
            xs.sort_by(|a, b| a.total_cmp(b));
            let idx = crate::convert::saturating_usize(((xs.len() as f64 - 1.0) * self.q).round());
            return Some(xs[idx.min(xs.len() - 1)]);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_simcore_rng_shim::Rng;

    // The metrics crate deliberately has no simcore dependency; a tiny
    // local xorshift is enough to generate test data.
    mod ecolb_simcore_rng_shim {
        pub struct Rng(u64);
        impl Rng {
            pub fn new(seed: u64) -> Self {
                Rng(seed.max(1))
            }
            pub fn next_f64(&mut self) -> f64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                (self.0 >> 11) as f64 / (1u64 << 53) as f64
            }
        }
    }

    fn exact_quantile(xs: &mut [f64], q: f64) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[crate::convert::saturating_usize(((xs.len() as f64 - 1.0) * q).round())]
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut est = P2Quantile::new(0.5);
        let mut rng = Rng::new(1);
        let mut xs = Vec::new();
        for _ in 0..50_000 {
            let x = rng.next_f64();
            est.push(x);
            xs.push(x);
        }
        let exact = exact_quantile(&mut xs, 0.5);
        let approx = est.estimate().unwrap();
        assert!(
            (approx - exact).abs() < 0.01,
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn p99_of_skewed_stream() {
        let mut est = P2Quantile::new(0.99);
        let mut rng = Rng::new(2);
        let mut xs = Vec::new();
        for _ in 0..50_000 {
            // Heavy-ish tail: x = u^4 concentrates mass near 0.
            let u = rng.next_f64();
            let x = u * u * u * u;
            est.push(x);
            xs.push(x);
        }
        let exact = exact_quantile(&mut xs, 0.99);
        let approx = est.estimate().unwrap();
        assert!(
            (approx - exact).abs() / exact < 0.15,
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn small_samples_are_exact() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), None);
        est.push(3.0);
        assert_eq!(est.estimate(), Some(3.0));
        est.push(1.0);
        est.push(2.0);
        assert_eq!(est.estimate(), Some(2.0), "median of {{1,2,3}}");
    }

    #[test]
    fn monotone_stream_tracks() {
        let mut est = P2Quantile::new(0.9);
        for i in 0..10_000 {
            est.push(i as f64);
        }
        let e = est.estimate().unwrap();
        assert!(
            (e - 9_000.0).abs() < 200.0,
            "p90 of 0..10000 ≈ 9000, got {e}"
        );
    }

    #[test]
    fn constant_stream_is_exact() {
        let mut est = P2Quantile::new(0.75);
        for _ in 0..1000 {
            est.push(42.0);
        }
        assert_eq!(est.estimate(), Some(42.0));
    }

    #[test]
    fn count_is_tracked() {
        let mut est = P2Quantile::new(0.5);
        for i in 0..7 {
            est.push(i as f64);
        }
        assert_eq!(est.count(), 7);
        assert_eq!(est.q, 0.5);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn rejects_out_of_range_q() {
        P2Quantile::new(1.0);
    }
}
