//! Stochastic request arrivals.
//!
//! The baseline-policy farm consumes a *rate trace* (deterministic shape,
//! [`crate::traces`]) modulated by Poisson arrival noise — the measured
//! request count per step is `Poisson(rate·Δt)`. This is what makes the
//! "predictable vs unpredictable" distinction of §3 real: a predictive
//! policy sees the noisy counts, not the underlying rate.

use crate::traces::TraceGenerator;
use ecolb_simcore::dist::Poisson;
use ecolb_simcore::rng::Rng;

/// Combines a rate trace with Poisson sampling to produce per-step request
/// counts.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    trace: TraceGenerator,
    rng: Rng,
    step_seconds: f64,
}

impl ArrivalProcess {
    /// Creates an arrival process; `step_seconds` is the measurement
    /// window length.
    pub fn new(trace: TraceGenerator, seed: u64, step_seconds: f64) -> Self {
        assert!(step_seconds > 0.0, "step length must be positive");
        ArrivalProcess {
            trace,
            rng: Rng::new(seed),
            step_seconds,
        }
    }

    /// Draws the next step: returns `(true_rate, observed_count)`.
    pub fn next_step(&mut self) -> (f64, u64) {
        let rate = self.trace.next_rate();
        let count = Poisson::new(rate * self.step_seconds).sample_count(&mut self.rng);
        (rate, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::TraceShape;

    #[test]
    fn observed_counts_track_true_rate() {
        let trace = TraceGenerator::new(TraceShape::Flat { rate: 50.0 }, 1);
        let mut ap = ArrivalProcess::new(trace, 2, 1.0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| ap.next_step().1 as f64).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn observed_counts_are_noisy() {
        let trace = TraceGenerator::new(TraceShape::Flat { rate: 50.0 }, 1);
        let mut ap = ArrivalProcess::new(trace, 3, 1.0);
        let xs: Vec<u64> = (0..1000).map(|_| ap.next_step().1).collect();
        let distinct: std::collections::BTreeSet<u64> = xs.iter().copied().collect();
        assert!(
            distinct.len() > 10,
            "Poisson noise produces spread, got {}",
            distinct.len()
        );
    }

    #[test]
    fn step_length_scales_counts() {
        let mk = |dt: f64| {
            let trace = TraceGenerator::new(TraceShape::Flat { rate: 10.0 }, 1);
            let mut ap = ArrivalProcess::new(trace, 4, dt);
            (0..5000).map(|_| ap.next_step().1 as f64).sum::<f64>() / 5000.0
        };
        let one = mk(1.0);
        let ten = mk(10.0);
        assert!((ten / one - 10.0).abs() < 0.5, "ratio {}", ten / one);
    }

    #[test]
    fn deterministic_for_fixed_seeds() {
        let mk = || {
            let trace = TraceGenerator::new(TraceShape::Flat { rate: 20.0 }, 9);
            ArrivalProcess::new(trace, 10, 1.0)
        };
        let a: Vec<u64> = {
            let mut p = mk();
            (0..100).map(|_| p.next_step().1).collect()
        };
        let b: Vec<u64> = {
            let mut p = mk();
            (0..100).map(|_| p.next_step().1).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rate_yields_zero_arrivals() {
        let trace = TraceGenerator::new(TraceShape::Flat { rate: 0.0 }, 1);
        let mut ap = ArrivalProcess::new(trace, 6, 1.0);
        for _ in 0..100 {
            assert_eq!(ap.next_step().1, 0);
        }
    }
}
