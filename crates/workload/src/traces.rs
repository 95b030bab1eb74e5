//! Synthetic request-rate traces.
//!
//! §3 of the paper classifies loads as *"slow- or fast-varying, have spikes
//! or be smooth, can be predicted or is totally unpredictable"* and argues
//! different capacity policies suit different classes. These traces are the
//! inputs for the baseline-policy evaluation (`ecolb-policies`): each trace
//! maps a time step to a demand level in requests/second.

use ecolb_simcore::dist::{Distribution, Pareto};
use ecolb_simcore::rng::Rng;
use std::f64::consts::TAU;

/// A deterministic-shape + stochastic-noise request-rate trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceShape {
    /// Constant rate — the trivially predictable load.
    Flat {
        /// Rate in requests/second.
        rate: f64,
    },
    /// Diurnal sinusoid: `base + amplitude·sin(2π·t/period)` — the classic
    /// slowly-varying, predictable data-center load.
    Diurnal {
        /// Mean rate.
        base: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Period in steps (e.g. 86 400 for one simulated day at 1 s
        /// steps).
        period: f64,
    },
    /// A single step up at `at`: from `before` to `after` — the steep,
    /// unpredictable change that stresses reactive policies.
    Step {
        /// Rate before the step.
        before: f64,
        /// Rate after the step.
        after: f64,
        /// Step index at which the rate changes.
        at: u64,
    },
    /// Pareto-distributed spikes of the given mean inter-arrival, riding on
    /// a base rate — the "spiky, unpredictable" class for which the paper
    /// recommends conservative policies like AutoScale.
    Spiky {
        /// Baseline rate.
        base: f64,
        /// Average number of steps between spikes.
        mean_gap: f64,
        /// Spike magnitude multiplier over the base rate.
        magnitude: f64,
        /// Spike duration in steps.
        duration: u64,
    },
    /// Bounded random walk between `lo` and `hi` with per-step drift at
    /// most `max_step` — slow-varying but unpredictable.
    RandomWalk {
        /// Lower reflecting bound.
        lo: f64,
        /// Upper reflecting bound.
        hi: f64,
        /// Maximum per-step change.
        max_step: f64,
        /// Starting rate.
        start: f64,
    },
}

/// A stateful trace generator producing one rate per step.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    shape: TraceShape,
    rng: Rng,
    step: u64,
    /// Random-walk current level / spike end-step, depending on shape.
    walk_level: f64,
    spike_until: u64,
    next_spike: u64,
}

impl TraceGenerator {
    /// Creates a generator for `shape` with its own RNG stream.
    pub fn new(shape: TraceShape, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let walk_level = match &shape {
            TraceShape::RandomWalk { start, .. } => *start,
            _ => 0.0,
        };
        let next_spike = match &shape {
            TraceShape::Spiky { mean_gap, .. } => {
                Pareto::new(mean_gap * 0.5, 2.0).sample(&mut rng) as u64
            }
            _ => 0,
        };
        TraceGenerator {
            shape,
            rng,
            step: 0,
            walk_level,
            spike_until: 0,
            next_spike,
        }
    }

    /// Produces the request rate for the next step. Rates are always
    /// non-negative.
    pub fn next_rate(&mut self) -> f64 {
        let t = self.step;
        self.step += 1;
        let rate = match &self.shape {
            TraceShape::Flat { rate } => *rate,
            TraceShape::Diurnal {
                base,
                amplitude,
                period,
            } => base + amplitude * (TAU * t as f64 / period).sin(),
            TraceShape::Step { before, after, at } => {
                if t < *at {
                    *before
                } else {
                    *after
                }
            }
            TraceShape::Spiky {
                base,
                mean_gap,
                magnitude,
                duration,
            } => {
                if t >= self.next_spike && t > self.spike_until {
                    self.spike_until = t + duration;
                    let gap = Pareto::new(mean_gap * 0.5, 2.0).sample(&mut self.rng);
                    self.next_spike = self.spike_until + gap.max(1.0) as u64;
                }
                if t <= self.spike_until && self.spike_until > 0 {
                    base * magnitude
                } else {
                    *base
                }
            }
            TraceShape::RandomWalk {
                lo, hi, max_step, ..
            } => {
                let delta = self.rng.uniform(-*max_step, *max_step);
                self.walk_level = (self.walk_level + delta).clamp(*lo, *hi);
                self.walk_level
            }
        };
        rate.max(0.0)
    }

    /// Collects the next `n` rates into a vector.
    pub fn take(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_rate()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_constant() {
        let mut g = TraceGenerator::new(TraceShape::Flat { rate: 7.5 }, 1);
        assert!(g.take(100).iter().all(|&r| r == 7.5));
        assert_eq!(g.step, 100);
    }

    #[test]
    fn diurnal_oscillates_around_base() {
        let mut g = TraceGenerator::new(
            TraceShape::Diurnal {
                base: 100.0,
                amplitude: 50.0,
                period: 100.0,
            },
            1,
        );
        let xs = g.take(100);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
        let max = xs.iter().copied().fold(f64::MIN, f64::max);
        let min = xs.iter().copied().fold(f64::MAX, f64::min);
        assert!(max > 149.0 && max <= 150.0);
        assert!((50.0..51.0).contains(&min));
    }

    #[test]
    fn diurnal_is_periodic() {
        let mut g = TraceGenerator::new(
            TraceShape::Diurnal {
                base: 10.0,
                amplitude: 5.0,
                period: 24.0,
            },
            1,
        );
        let xs = g.take(48);
        for i in 0..24 {
            assert!((xs[i] - xs[i + 24]).abs() < 1e-9);
        }
    }

    #[test]
    fn step_changes_exactly_once() {
        let mut g = TraceGenerator::new(
            TraceShape::Step {
                before: 10.0,
                after: 90.0,
                at: 5,
            },
            1,
        );
        let xs = g.take(10);
        assert_eq!(&xs[..5], &[10.0; 5]);
        assert_eq!(&xs[5..], &[90.0; 5]);
    }

    #[test]
    fn spiky_produces_spikes_and_baseline() {
        let mut g = TraceGenerator::new(
            TraceShape::Spiky {
                base: 10.0,
                mean_gap: 20.0,
                magnitude: 5.0,
                duration: 3,
            },
            42,
        );
        let xs = g.take(500);
        let n_base = xs.iter().filter(|&&r| r == 10.0).count();
        let n_spike = xs.iter().filter(|&&r| r == 50.0).count();
        assert_eq!(n_base + n_spike, 500, "only two levels exist");
        assert!(n_spike > 10, "spikes occurred: {n_spike}");
        assert!(
            n_base > n_spike,
            "baseline dominates: {n_base} vs {n_spike}"
        );
    }

    #[test]
    fn random_walk_stays_in_bounds_and_moves() {
        let mut g = TraceGenerator::new(
            TraceShape::RandomWalk {
                lo: 5.0,
                hi: 15.0,
                max_step: 1.0,
                start: 10.0,
            },
            7,
        );
        let xs = g.take(10_000);
        assert!(xs.iter().all(|&r| (5.0..=15.0).contains(&r)));
        let distinct: std::collections::BTreeSet<u64> =
            xs.iter().map(|r| (r * 1000.0) as u64).collect();
        assert!(
            distinct.len() > 100,
            "walk explored {} levels",
            distinct.len()
        );
        // Steps are bounded.
        for w in xs.windows(2) {
            assert!((w[1] - w[0]).abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn traces_are_seed_deterministic() {
        let shape = TraceShape::Spiky {
            base: 1.0,
            mean_gap: 10.0,
            magnitude: 3.0,
            duration: 2,
        };
        let a = TraceGenerator::new(shape.clone(), 5).take(200);
        let b = TraceGenerator::new(shape, 5).take(200);
        assert_eq!(a, b);
    }

    #[test]
    fn rates_never_negative() {
        let mut g = TraceGenerator::new(
            TraceShape::Diurnal {
                base: 10.0,
                amplitude: 50.0,
                period: 20.0,
            },
            1,
        );
        assert!(g.take(100).iter().all(|&r| r >= 0.0));
    }
}
