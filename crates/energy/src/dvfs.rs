//! Dynamic voltage and frequency scaling (DVFS).
//!
//! The paper cites Le Sueur & Heiser, *"Dynamic voltage and frequency
//! scaling: the laws of diminishing returns"* \[14\], as one of the
//! mechanisms behind modern server power management. This module provides
//! the standard CMOS model:
//!
//! ```text
//! P(f) = P_static + C · V(f)² · f        (dynamic power)
//! V(f) = V_min + (V_max − V_min) · (f − f_min)/(f_max − f_min)
//! ```
//!
//! Performance is proportional to `f`, so the *energy per operation* is
//! `P(f)/f` — minimised at an interior frequency when static power is
//! non-zero: racing to idle wastes voltage-squared dynamic power, crawling
//! wastes static power. That diminishing-returns trade-off is exactly why
//! the paper prefers *consolidation + sleep states* over frequency
//! scaling alone for lightly loaded clusters.

use crate::power::PowerModel;

/// A DVFS-capable processor model.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsModel {
    /// Static (leakage + uncore) power, Watts.
    pub static_w: f64,
    /// Effective switched capacitance coefficient: dynamic power at
    /// `f_max`/`v_max` is `c · v_max² · f_max`.
    pub c: f64,
    /// Minimum operating frequency, GHz.
    pub f_min_ghz: f64,
    /// Maximum operating frequency, GHz.
    pub f_max_ghz: f64,
    /// Core voltage at `f_min`, Volts.
    pub v_min: f64,
    /// Core voltage at `f_max`, Volts.
    pub v_max: f64,
    /// Discrete frequency steps (P-states); the model snaps requests to
    /// the nearest step.
    pub steps: usize,
}

impl DvfsModel {
    /// A representative 2010s server part: 1.2–3.0 GHz, 0.8–1.25 V,
    /// ~25 W static, ~95 W peak.
    pub fn typical_server_cpu() -> Self {
        DvfsModel {
            static_w: 25.0,
            c: 6.2, // ≈ 70 W dynamic at 3.0 GHz / 1.25 V
            f_min_ghz: 1.2,
            f_max_ghz: 3.0,
            v_min: 0.80,
            v_max: 1.25,
            steps: 10,
        }
    }

    /// Validates the model's invariants; panics on violation.
    pub fn validate(&self) {
        assert!(self.static_w >= 0.0, "static power must be non-negative");
        assert!(self.c > 0.0, "capacitance coefficient must be positive");
        assert!(
            0.0 < self.f_min_ghz && self.f_min_ghz < self.f_max_ghz,
            "frequency range invalid"
        );
        assert!(
            0.0 < self.v_min && self.v_min <= self.v_max,
            "voltage range invalid"
        );
        assert!(self.steps >= 2, "need at least two P-states");
    }

    /// The discrete P-state frequencies, ascending, GHz.
    pub fn p_states(&self) -> Vec<f64> {
        (0..self.steps)
            .map(|i| {
                self.f_min_ghz
                    + (self.f_max_ghz - self.f_min_ghz) * i as f64 / (self.steps - 1) as f64
            })
            .collect()
    }

    /// Snaps a requested frequency to the nearest P-state.
    pub fn snap(&self, f_ghz: f64) -> f64 {
        let f = f_ghz.clamp(self.f_min_ghz, self.f_max_ghz);
        let span = self.f_max_ghz - self.f_min_ghz;
        let idx = ((f - self.f_min_ghz) / span * (self.steps - 1) as f64).round();
        self.f_min_ghz + span * idx / (self.steps - 1) as f64
    }

    /// Core voltage at frequency `f` (linear V-f curve).
    pub fn voltage(&self, f_ghz: f64) -> f64 {
        let f = f_ghz.clamp(self.f_min_ghz, self.f_max_ghz);
        self.v_min
            + (self.v_max - self.v_min) * (f - self.f_min_ghz) / (self.f_max_ghz - self.f_min_ghz)
    }

    /// Total power at frequency `f`, Watts.
    pub fn power_at_f(&self, f_ghz: f64) -> f64 {
        let f = f_ghz.clamp(self.f_min_ghz, self.f_max_ghz);
        let v = self.voltage(f);
        self.static_w + self.c * v * v * f
    }

    /// Energy per unit of work at frequency `f`: `P(f)/f`, Joules per
    /// GHz-second of computation.
    pub fn energy_per_op(&self, f_ghz: f64) -> f64 {
        let f = f_ghz.clamp(self.f_min_ghz, self.f_max_ghz);
        self.power_at_f(f) / f
    }

    /// The P-state minimising energy per operation — the "sweet spot"
    /// before diminishing returns \[14\].
    pub fn most_efficient_f(&self) -> f64 {
        self.p_states()
            .into_iter()
            .min_by(|&a, &b| self.energy_per_op(a).total_cmp(&self.energy_per_op(b)))
            .expect("DvfsModel construction guarantees at least two P-states")
    }
}

/// Adapter: a DVFS processor governed like a utilization-tracking OS
/// governor ("conservative"): frequency scales with utilization between
/// `f_min` and `f_max`. This makes a [`DvfsModel`] usable wherever a
/// [`PowerModel`] is expected.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsGoverned {
    /// The underlying processor.
    pub model: DvfsModel,
}

impl PowerModel for DvfsGoverned {
    fn power_w(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let f = self.model.f_min_ghz + (self.model.f_max_ghz - self.model.f_min_ghz) * u;
        self.model.power_at_f(self.model.snap(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> DvfsModel {
        let m = DvfsModel::typical_server_cpu();
        m.validate();
        m
    }

    #[test]
    fn p_states_span_the_range() {
        let m = cpu();
        let ps = m.p_states();
        assert_eq!(ps.len(), 10);
        assert!((ps[0] - 1.2).abs() < 1e-12);
        assert!((ps[9] - 3.0).abs() < 1e-12);
        for w in ps.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn snap_lands_on_a_p_state() {
        let m = cpu();
        let ps = m.p_states();
        for f in [0.5, 1.3, 2.0, 2.71, 3.5] {
            let s = m.snap(f);
            assert!(
                ps.iter().any(|&p| (p - s).abs() < 1e-9),
                "snap({f}) = {s} not a P-state"
            );
        }
    }

    #[test]
    fn power_is_monotone_in_frequency() {
        let m = cpu();
        let mut prev = 0.0;
        for f in m.p_states() {
            let p = m.power_at_f(f);
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn voltage_interpolates_linearly() {
        let m = cpu();
        assert!((m.voltage(1.2) - 0.80).abs() < 1e-12);
        assert!((m.voltage(3.0) - 1.25).abs() < 1e-12);
        assert!((m.voltage(2.1) - 1.025).abs() < 1e-12);
    }

    #[test]
    fn energy_per_op_has_interior_minimum() {
        // With non-zero static power the efficiency sweet spot is neither
        // the lowest nor necessarily the highest frequency — the
        // diminishing-returns shape of [14].
        let m = cpu();
        let best = m.most_efficient_f();
        assert!(
            m.energy_per_op(best) < m.energy_per_op(m.f_min_ghz),
            "crawling wastes static power"
        );
        assert!(best > m.f_min_ghz, "sweet spot above f_min");
    }

    #[test]
    fn zero_static_power_prefers_the_lowest_frequency() {
        let m = DvfsModel {
            static_w: 0.0,
            ..cpu()
        };
        // Without leakage, V² scaling always rewards running slower.
        assert!((m.most_efficient_f() - m.f_min_ghz).abs() < 1e-9);
    }

    #[test]
    fn governed_adapter_is_a_monotone_power_model() {
        let g = DvfsGoverned { model: cpu() };
        let mut prev = 0.0;
        for i in 0..=10 {
            let p = g.power_w(i as f64 / 10.0);
            assert!(p >= prev);
            prev = p;
        }
        assert!(g.idle_power_w() > 0.0, "static power shows at idle");
        assert!(
            g.dynamic_range() > 0.3,
            "DVFS gives the CPU a wide dynamic range"
        );
    }

    #[test]
    fn race_to_idle_vs_crawl_comparison() {
        // Finish the same work: racing at f_max then sleeping (3% residual)
        // versus crawling at f_min the whole time. With this part's
        // parameters racing wins once the sleep residual is low — the
        // consolidate-and-sleep thesis of the paper.
        let m = cpu();
        let work_ghz_s = 30.0; // 10 s at f_max
        let deadline_s = work_ghz_s / m.f_min_ghz; // crawl finishes exactly
        let crawl_j = m.power_at_f(m.f_min_ghz) * deadline_s;
        let race_time = work_ghz_s / m.f_max_ghz;
        let race_j =
            m.power_at_f(m.f_max_ghz) * race_time + 0.03 * m.static_w * (deadline_s - race_time);
        assert!(race_j < crawl_j, "race {race_j} vs crawl {crawl_j}");
    }

    #[test]
    #[should_panic(expected = "frequency range")]
    fn validate_rejects_bad_range() {
        DvfsModel {
            f_min_ghz: 3.0,
            f_max_ghz: 1.0,
            ..DvfsModel::typical_server_cpu()
        }
        .validate();
    }
}
