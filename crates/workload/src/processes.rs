//! Time-varying arrival processes for scenario workloads.
//!
//! The plain open-loop sources of [`requests`](crate::requests) are
//! homogeneous Poisson: a flat rate `λ` per source. Scenario tournaments
//! need richer shapes — *flash crowds* (a keyed subset of sources ramps
//! to a multiple of its base rate and decays back) and *correlated
//! diurnal waves* (every source swings sinusoidally, with phases drawn
//! per source and pulled together by a correlation knob). Both are
//! non-homogeneous Poisson processes `λ·m(t)` realised by inversion:
//! draw a unit-mean exponential `E` from the source's existing arrival
//! stream, then solve `λ·∫ m(t) dt = E` over `[now, now + Δ]` for the
//! gap `Δ`. The modulation multiplier `m` has a closed-form integral for
//! every shape, so the solve is a deterministic bisection with no extra
//! randomness — the arrival stream consumes exactly one draw per
//! arrival, the same as the flat process.
//!
//! Determinism contract (the `fault_stream` idiom): per-source profile
//! randomness (flash-crowd participation, diurnal phase) comes from
//! `request_stream(seed, Modulation, source)` and nowhere else, and a
//! modulation with zero intensity or amplitude is a *structural no-op* —
//! [`RateModulation::profile_for`] returns [`SourceProfile::Flat`]
//! without constructing a single RNG stream, so lowering a knob to zero
//! cannot perturb any other stream in the run.

use crate::requests::{request_stream, OpenLoopSource, RequestStreamDomain};

/// Fixed bisection depth for gap inversion. 60 halvings shrink any
/// practical bracket below one ULP, and a fixed count keeps the solve
/// branch-free and byte-identical across platforms and thread counts.
const BISECTION_STEPS: u32 = 60;

/// A flash crowd: a keyed fraction of sources ramps linearly from its
/// base rate to `peak_multiplier×` over `ramp_s`, then decays
/// exponentially back with time constant `decay_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowdSpec {
    /// Scenario intensity knob in `[0, 1]`; scales the excess rate.
    /// `0` disables the flash crowd structurally (no streams built).
    pub intensity: f64,
    /// Seconds into the run when the ramp starts.
    pub onset_s: f64,
    /// Ramp duration, seconds (clamped to a tiny positive floor, so
    /// `0` means an effectively instantaneous jump).
    pub ramp_s: f64,
    /// Exponential decay time constant after the peak, seconds.
    pub decay_s: f64,
    /// Rate multiplier at the peak for a fully swept-up source at
    /// intensity 1 (e.g. `6.0` = six times the base rate).
    pub peak_multiplier: f64,
    /// Fraction of sources swept up in the crowd (keyed per source).
    pub participation: f64,
}

impl FlashCrowdSpec {
    /// A moderate reference crowd: 60 % of sources ramp to 6× over
    /// 30 s starting at t = 60 s, decaying with a 90 s time constant.
    pub fn moderate() -> Self {
        FlashCrowdSpec {
            intensity: 1.0,
            onset_s: 60.0,
            ramp_s: 30.0,
            decay_s: 90.0,
            peak_multiplier: 6.0,
            participation: 0.6,
        }
    }
}

/// A correlated diurnal wave: every source's rate swings sinusoidally
/// around its base with per-source phases. `correlation = 1` puts all
/// sources in phase (fleet-wide wave); `correlation = 0` spreads phases
/// uniformly over the period (waves largely cancel in aggregate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalSpec {
    /// Wave period, seconds.
    pub period_s: f64,
    /// Relative swing in `[0, 1)`: the rate varies between
    /// `λ(1 − amplitude)` and `λ(1 + amplitude)`. `0` disables the
    /// wave structurally (no streams built).
    pub amplitude: f64,
    /// Phase correlation across sources in `[0, 1]`.
    pub correlation: f64,
}

/// How a scenario modulates the arrival rates of its sources over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateModulation {
    /// Homogeneous Poisson — exactly the plain open-loop process.
    Flat,
    /// A flash crowd sweeping up a keyed fraction of sources.
    FlashCrowd(FlashCrowdSpec),
    /// A correlated diurnal wave across all sources.
    Diurnal(DiurnalSpec),
}

impl RateModulation {
    /// Resolves the modulation profile of one source. Per-source
    /// randomness (participation, phase) is keyed on
    /// `(seed, Modulation, source)`; `Flat`, a zero-intensity flash
    /// crowd and a zero-amplitude wave construct **zero** RNG streams.
    pub fn profile_for(&self, seed: u64, source: u64) -> SourceProfile {
        match *self {
            RateModulation::Flat => SourceProfile::Flat,
            RateModulation::FlashCrowd(spec) => {
                if spec.intensity <= 0.0 {
                    return SourceProfile::Flat;
                }
                let burst = spec.intensity.min(1.0) * (spec.peak_multiplier - 1.0).max(0.0);
                if burst <= 0.0 {
                    return SourceProfile::Flat;
                }
                let mut rng = request_stream(seed, RequestStreamDomain::Modulation, source);
                if rng.chance(spec.participation.clamp(0.0, 1.0)) {
                    SourceProfile::Flash {
                        burst,
                        onset_s: spec.onset_s.max(0.0),
                        ramp_s: spec.ramp_s.max(1e-9),
                        decay_s: spec.decay_s.max(1e-9),
                    }
                } else {
                    SourceProfile::Flat
                }
            }
            RateModulation::Diurnal(spec) => {
                if spec.amplitude <= 0.0 {
                    return SourceProfile::Flat;
                }
                let period_s = spec.period_s.max(1e-6);
                let mut rng = request_stream(seed, RequestStreamDomain::Modulation, source);
                let u = rng.next_f64();
                let phase_s = (1.0 - spec.correlation.clamp(0.0, 1.0)) * u * period_s;
                SourceProfile::Diurnal {
                    period_s,
                    amplitude: spec.amplitude.clamp(0.0, 0.95),
                    phase_s,
                }
            }
        }
    }
}

/// The resolved, per-source modulation shape: a pure function of time
/// with a closed-form integral, holding no RNG state of its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceProfile {
    /// No modulation: `m(t) = 1` everywhere.
    Flat,
    /// Flash-crowd excursion: `m(t) = 1 + burst·f(t)` where `f` ramps
    /// linearly from 0 to 1 over `[onset, onset + ramp]` and decays as
    /// `exp(−(t − peak)/decay)` afterwards.
    Flash {
        /// Excess multiplier at the peak (`m_peak = 1 + burst`).
        burst: f64,
        /// Ramp start, seconds.
        onset_s: f64,
        /// Ramp duration, seconds (> 0).
        ramp_s: f64,
        /// Decay time constant, seconds (> 0).
        decay_s: f64,
    },
    /// Sinusoidal wave: `m(t) = 1 + A·sin(2π(t + φ)/P)`.
    Diurnal {
        /// Period `P`, seconds (> 0).
        period_s: f64,
        /// Amplitude `A` in `[0, 0.95]`, so `m ≥ 0.05` everywhere.
        amplitude: f64,
        /// Per-source phase offset `φ`, seconds.
        phase_s: f64,
    },
}

impl SourceProfile {
    /// True for the unmodulated profile (the structural no-op case).
    pub fn is_flat(&self) -> bool {
        matches!(self, SourceProfile::Flat)
    }

    /// Closed-form `∫ m(t) dt` over `[from_s, to_s]` (`from_s ≤ to_s`).
    pub fn integral(&self, from_s: f64, to_s: f64) -> f64 {
        let span = (to_s - from_s).max(0.0);
        match *self {
            SourceProfile::Flat => span,
            SourceProfile::Flash { burst, .. } => {
                span + burst * (self.flash_shape_area(to_s) - self.flash_shape_area(from_s))
            }
            SourceProfile::Diurnal {
                period_s,
                amplitude,
                phase_s,
            } => {
                let omega = std::f64::consts::TAU / period_s;
                span + amplitude / omega
                    * ((omega * (from_s + phase_s)).cos() - (omega * (to_s + phase_s)).cos())
            }
        }
    }

    /// A hard lower bound on `m(t)`, used to bracket gap inversion.
    fn min_multiplier(&self) -> f64 {
        match *self {
            SourceProfile::Flat | SourceProfile::Flash { .. } => 1.0,
            SourceProfile::Diurnal { amplitude, .. } => 1.0 - amplitude,
        }
    }

    /// Cumulative area of the flash shape `f` from 0 to `t_s`
    /// (dimensionless shape, before the `burst` scale).
    fn flash_shape_area(&self, t_s: f64) -> f64 {
        let SourceProfile::Flash {
            onset_s,
            ramp_s,
            decay_s,
            ..
        } = *self
        else {
            return 0.0;
        };
        let peak_s = onset_s + ramp_s;
        if t_s <= onset_s {
            0.0
        } else if t_s < peak_s {
            let x = t_s - onset_s;
            x * x / (2.0 * ramp_s)
        } else {
            ramp_s / 2.0 + decay_s * (1.0 - (-(t_s - peak_s) / decay_s).exp())
        }
    }

    /// Draws the next inter-arrival gap of `source` under this profile,
    /// starting from absolute time `now_s`: one unit exponential `E`
    /// from the source's arrival stream, inverted through the
    /// cumulative modulated rate so that `λ·∫ m = E` over the gap.
    /// Flat profiles reduce to exactly the plain `next_gap_s` draw,
    /// bit for bit. `None` when the source is silent.
    pub fn next_gap_s(&self, source: &mut OpenLoopSource, now_s: f64) -> Option<f64> {
        let e = source.next_unit_exp()?;
        if self.is_flat() {
            return Some(e / source.rate_per_s);
        }
        // Target area of m to accumulate: λ·∫m = E  ⇔  ∫m = E/λ.
        let target = e / source.rate_per_s;
        // m ≥ min_multiplier > 0 brackets the root at target/m_min;
        // a doubling guard absorbs rounding at the bracket edge.
        let mut hi = target / self.min_multiplier();
        let mut guard = 0;
        while self.integral(now_s, now_s + hi) < target && guard < 8 {
            hi *= 2.0;
            guard += 1;
        }
        let mut lo = 0.0f64;
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            if self.integral(now_s, now_s + mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::AppId;
    use crate::requests::SlaClass;

    impl DiurnalSpec {
        /// A strong in-phase wave: ±70 % swing on a 240 s period, fully
        /// correlated across sources.
        fn correlated() -> Self {
            DiurnalSpec {
                period_s: 240.0,
                amplitude: 0.7,
                correlation: 1.0,
            }
        }
    }

    impl SourceProfile {
        /// The rate multiplier `m(t)` at absolute time `t_s`: the oracle
        /// the closed-form [`SourceProfile::integral`] is checked against.
        fn multiplier_at(&self, t_s: f64) -> f64 {
            match *self {
                SourceProfile::Flat => 1.0,
                SourceProfile::Flash {
                    burst,
                    onset_s,
                    ramp_s,
                    decay_s,
                } => {
                    let peak_s = onset_s + ramp_s;
                    let shape = if t_s <= onset_s {
                        0.0
                    } else if t_s < peak_s {
                        (t_s - onset_s) / ramp_s
                    } else {
                        (-(t_s - peak_s) / decay_s).exp()
                    };
                    1.0 + burst * shape
                }
                SourceProfile::Diurnal {
                    period_s,
                    amplitude,
                    phase_s,
                } => 1.0 + amplitude * (std::f64::consts::TAU * (t_s + phase_s) / period_s).sin(),
            }
        }
    }

    fn source(seed: u64, idx: u64, rate: f64) -> OpenLoopSource {
        OpenLoopSource::new(seed, idx, AppId(idx), rate, SlaClass::Bronze)
    }

    #[test]
    fn flat_profile_gaps_are_bitwise_the_plain_draw() {
        let mut plain = source(11, 3, 1.7);
        let mut modded = source(11, 3, 1.7);
        let profile = RateModulation::Flat.profile_for(11, 3);
        let mut now = 0.0;
        for _ in 0..256 {
            let a = plain.next_gap_s().unwrap();
            let b = profile.next_gap_s(&mut modded, now).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
            now += a;
        }
    }

    #[test]
    fn zero_intensity_flash_crowd_is_a_structural_noop() {
        let spec = FlashCrowdSpec {
            intensity: 0.0,
            ..FlashCrowdSpec::moderate()
        };
        for src in 0..64 {
            assert!(RateModulation::FlashCrowd(spec)
                .profile_for(5, src)
                .is_flat());
        }
        // Unit peak multiplier is equally inert even at full intensity.
        let unit = FlashCrowdSpec {
            peak_multiplier: 1.0,
            ..FlashCrowdSpec::moderate()
        };
        assert!(RateModulation::FlashCrowd(unit).profile_for(5, 0).is_flat());
        // Zero-amplitude waves too.
        let still = DiurnalSpec {
            amplitude: 0.0,
            ..DiurnalSpec::correlated()
        };
        assert!(RateModulation::Diurnal(still).profile_for(5, 0).is_flat());
    }

    #[test]
    fn flash_multiplier_has_the_ramp_peak_decay_shape() {
        let profile = RateModulation::FlashCrowd(FlashCrowdSpec {
            participation: 1.0,
            ..FlashCrowdSpec::moderate()
        })
        .profile_for(7, 0);
        assert!(!profile.is_flat());
        assert_eq!(profile.multiplier_at(0.0), 1.0);
        assert_eq!(profile.multiplier_at(60.0), 1.0);
        let mid = profile.multiplier_at(75.0);
        let peak = profile.multiplier_at(90.0);
        assert!((peak - 6.0).abs() < 1e-9, "peak {peak}");
        assert!((mid - 3.5).abs() < 1e-9, "mid-ramp {mid}");
        let later = profile.multiplier_at(90.0 + 90.0);
        assert!((later - (1.0 + 5.0 / std::f64::consts::E)).abs() < 1e-9);
        assert!(profile.multiplier_at(10_000.0) < 1.0 + 1e-6);
    }

    #[test]
    fn participation_is_keyed_and_partial() {
        let modulation = RateModulation::FlashCrowd(FlashCrowdSpec::moderate());
        let swept = (0..2000)
            .filter(|&i| !modulation.profile_for(13, i).is_flat())
            .count();
        assert!((1050..1350).contains(&swept), "swept {swept}");
        assert_eq!(modulation.profile_for(13, 4), modulation.profile_for(13, 4));
    }

    #[test]
    fn diurnal_correlation_pulls_phases_together() {
        let in_phase = RateModulation::Diurnal(DiurnalSpec::correlated());
        let p0 = in_phase.profile_for(3, 0);
        let p1 = in_phase.profile_for(3, 1);
        assert_eq!(p0, p1, "full correlation ⇒ identical profiles");

        let spread = RateModulation::Diurnal(DiurnalSpec {
            correlation: 0.0,
            ..DiurnalSpec::correlated()
        });
        let q0 = spread.profile_for(3, 0);
        let q1 = spread.profile_for(3, 1);
        assert_ne!(q0, q1, "zero correlation ⇒ distinct phases");
    }

    #[test]
    fn closed_form_integral_matches_quadrature() {
        let profiles = [
            RateModulation::FlashCrowd(FlashCrowdSpec {
                participation: 1.0,
                ..FlashCrowdSpec::moderate()
            })
            .profile_for(9, 0),
            RateModulation::Diurnal(DiurnalSpec {
                correlation: 0.3,
                ..DiurnalSpec::correlated()
            })
            .profile_for(9, 1),
        ];
        for profile in profiles {
            for (a, b) in [(0.0, 50.0), (40.0, 130.0), (85.0, 400.0)] {
                let n = 200_000;
                let h = (b - a) / n as f64;
                let riemann: f64 = (0..n)
                    .map(|i| profile.multiplier_at(a + (i as f64 + 0.5) * h) * h)
                    .sum();
                let exact = profile.integral(a, b);
                assert!(
                    (exact - riemann).abs() < 1e-3 * riemann.abs().max(1.0),
                    "integral [{a},{b}]: exact {exact} vs quadrature {riemann}"
                );
            }
        }
    }

    #[test]
    fn modulated_gap_inverts_the_cumulative_rate() {
        // The defining identity: λ·∫m over the returned gap equals the
        // exponential that produced it. Check indirectly: advancing a
        // clock by modulated gaps and summing λ·∫m over each gap must
        // reproduce the plain-source unit-exponential stream.
        let profile = RateModulation::FlashCrowd(FlashCrowdSpec {
            participation: 1.0,
            ..FlashCrowdSpec::moderate()
        })
        .profile_for(21, 0);
        let mut modded = source(21, 0, 2.0);
        let mut reference = source(21, 0, 2.0);
        let mut now = 0.0;
        for _ in 0..512 {
            let gap = profile.next_gap_s(&mut modded, now).unwrap();
            let area = 2.0 * profile.integral(now, now + gap);
            let e = reference.next_unit_exp().unwrap();
            assert!((area - e).abs() < 1e-6 * e.max(1.0), "area {area} vs E {e}");
            now += gap;
        }
    }

    #[test]
    fn silent_source_is_silent_under_any_profile() {
        let profile = RateModulation::Diurnal(DiurnalSpec::correlated()).profile_for(2, 0);
        let mut silent = source(2, 0, 0.0);
        assert_eq!(profile.next_gap_s(&mut silent, 0.0), None);
    }
}
