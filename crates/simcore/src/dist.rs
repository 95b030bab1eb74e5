//! Probability distributions on top of [`Rng`].
//!
//! Each distribution is a small value type with a `sample(&mut Rng)` method,
//! plus the [`Distribution`] trait for generic call sites (workload
//! generators take `impl Distribution` so experiments can swap load shapes
//! without touching the cluster code).

use crate::rng::Rng;

/// Something that can draw `f64` samples from an [`Rng`].
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The distribution mean, when it exists, for analytic cross-checks.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// Normal distribution via the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mu: f64,
    /// Standard deviation (non-negative).
    pub sigma: f64,
}

impl Normal {
    /// Creates the distribution; panics on negative or non-finite `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be >= 0, got {sigma}"
        );
        Normal { mu, sigma }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Marsaglia polar method; we deliberately discard the second variate
        // to keep the sampler stateless (determinism is easier to reason
        // about when each draw consumes a bounded, state-free number of RNG
        // outputs).
        loop {
            let u = rng.uniform(-1.0, 1.0);
            let v = rng.uniform(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mu + self.sigma * u * factor;
            }
        }
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mu)
    }
}

/// Pareto (type I) distribution: heavy-tailed, used for spiky workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Scale: the minimum value, strictly positive.
    pub scale: f64,
    /// Shape `alpha`; strictly positive. The mean is finite only for
    /// `alpha > 1`.
    pub shape: f64,
}

impl Pareto {
    /// Creates the distribution; panics on non-positive parameters.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0, "scale must be > 0, got {scale}");
        assert!(shape > 0.0, "shape must be > 0, got {shape}");
        Pareto { scale, shape }
    }
}

impl Distribution for Pareto {
    #[inline]
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.scale / (1.0 - rng.next_f64()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> Option<f64> {
        (self.shape > 1.0).then(|| self.shape * self.scale / (self.shape - 1.0))
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Sampled by inversion against the precomputed CDF; `O(log n)` per draw.
/// Used for popularity-skewed application placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n`; panics when `n == 0` or
    /// `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be >= 0, got {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `1..=n`.
    pub fn sample_rank(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Knuth's multiplication method for small means, normal approximation with
/// continuity correction beyond `lambda = 30` (adequate for arrival counts;
/// error is well below the stochastic noise of the experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Mean; non-negative.
    pub lambda: f64,
}

impl Poisson {
    /// Creates the distribution; panics on negative or non-finite `lambda`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "lambda must be >= 0, got {lambda}"
        );
        Poisson { lambda }
    }

    /// Draws a count.
    pub fn sample_count(&self, rng: &mut Rng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let n = Normal::new(self.lambda, self.lambda.sqrt()).sample(rng) + 0.5;
            if n < 0.0 {
                0
            } else {
                n as u64
            }
        }
    }
}

impl Distribution for Poisson {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_count(rng) as f64
    }

    fn mean(&self) -> Option<f64> {
        Some(self.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean<D: Distribution>(d: &D, seed: u64, n: usize) -> f64 {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn normal_mean_and_sd_match() {
        let d = Normal::new(5.0, 2.0);
        let mut rng = Rng::new(2);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let d = Pareto::new(2.0, 2.5);
        let mut rng = Rng::new(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 2.0);
        }
        let m = sample_mean(&d, 6, 400_000);
        let expect = d.mean().unwrap();
        assert!(
            (m - expect).abs() / expect < 0.05,
            "mean {m} expect {expect}"
        );
    }

    #[test]
    fn pareto_mean_undefined_for_heavy_tail() {
        assert_eq!(Pareto::new(1.0, 0.9).mean(), None);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(100, 1.2);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u32; 101];
        for _ in 0..50_000 {
            counts[d.sample_rank(&mut rng)] += 1;
        }
        assert!(
            counts[1] > counts[2],
            "rank 1 {} rank 2 {}",
            counts[1],
            counts[2]
        );
        assert!(counts[2] > counts[10]);
        assert_eq!(counts[0], 0, "rank 0 must never occur");
    }

    #[test]
    fn zipf_uniform_when_exponent_zero() {
        let d = Zipf::new(4, 0.0);
        let mut rng = Rng::new(8);
        let mut counts = [0u32; 5];
        let n = 80_000;
        for _ in 0..n {
            counts[d.sample_rank(&mut rng)] += 1;
        }
        for &c in &counts[1..] {
            assert!((c as f64 - n as f64 / 4.0).abs() < 800.0, "count {c}");
        }
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let d = Poisson::new(3.5);
        let m = sample_mean(&d, 9, 100_000);
        assert!((m - 3.5).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let d = Poisson::new(250.0);
        let m = sample_mean(&d, 10, 50_000);
        assert!((m - 250.0).abs() < 1.0, "mean {m}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = Rng::new(11);
        assert_eq!(Poisson::new(0.0).sample_count(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn normal_rejects_negative_sigma() {
        Normal::new(0.0, -1.0);
    }
}
