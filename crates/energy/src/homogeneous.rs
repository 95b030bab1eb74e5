//! The analytic homogeneous cloud model (paper §4, equations 6–13).
//!
//! The paper compares two ways of running the same volume of computation on
//! `n` identical servers:
//!
//! * **Reference operation** — all `n` servers run at normalized
//!   performance levels uniformly distributed in `[a_min, a_max]`, with an
//!   average normalized energy per operation `b_avg`. Energy:
//!   `E_ref = n · b_avg` (eq. 6); operations `C_ref = n · a_avg` with
//!   `a_avg = (a_max − a_min)/2` (eq. 7 — the paper's own convention, kept
//!   verbatim; see [`HomogeneousModel::a_avg`]).
//! * **Optimal operation** — `n_sleep` servers sleep, the remaining
//!   `n − n_sleep` run at `a_opt` with per-operation energy
//!   `b_opt = b_avg + ε` (eqs. 8–9).
//!
//! Requiring equal computational volume (eq. 11) gives
//! `n/(n − n_sleep) = a_opt/a_avg`, and the energy ratio becomes
//!
//! ```text
//! E_ref / E_opt = (a_opt / a_avg) · (b_avg / b_opt)        (eq. 12)
//! ```
//!
//! At the paper's example point (`b_avg = 0.6`, `a_avg = 0.3`,
//! `b_opt = 0.8`, `a_opt = 0.9`) the ratio is 2.25 (eq. 13).

/// Parameters of the homogeneous model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomogeneousModel {
    /// Number of servers `n`.
    pub n: u64,
    /// Lower bound of the reference performance distribution.
    pub a_min: f64,
    /// Upper bound of the reference performance distribution.
    pub a_max: f64,
    /// Average normalized energy per operation in the reference scenario.
    pub b_avg: f64,
    /// Normalized performance of the consolidated servers.
    pub a_opt: f64,
    /// Normalized energy per operation of the consolidated servers
    /// (`b_avg + ε`).
    pub b_opt: f64,
}

impl HomogeneousModel {
    /// Creates a model; panics when any normalized quantity leaves `[0, 1]`
    /// or ordering constraints are violated.
    pub fn new(n: u64, a_min: f64, a_max: f64, b_avg: f64, a_opt: f64, b_opt: f64) -> Self {
        assert!(n > 0, "need at least one server");
        for (name, v) in [
            ("a_min", a_min),
            ("a_max", a_max),
            ("b_avg", b_avg),
            ("a_opt", a_opt),
            ("b_opt", b_opt),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} = {v} outside [0, 1]");
        }
        assert!(a_min <= a_max, "a_min > a_max");
        assert!(a_opt > 0.0, "a_opt must be positive");
        assert!(b_opt > 0.0, "b_opt must be positive");
        HomogeneousModel {
            n,
            a_min,
            a_max,
            b_avg,
            a_opt,
            b_opt,
        }
    }

    /// The paper's worked example (eq. 13): `b_avg = 0.6`, `a_avg = 0.3`
    /// (via `a_min = 0`, `a_max = 0.6`), `b_opt = 0.8`, `a_opt = 0.9`.
    pub fn paper_example(n: u64) -> Self {
        HomogeneousModel::new(n, 0.0, 0.6, 0.6, 0.9, 0.8)
    }

    /// `a_avg = (a_max − a_min)/2` — the paper's eq. 7 convention.
    ///
    /// Note this is the *half-width*, not the distribution mean
    /// `(a_min + a_max)/2`; the two coincide when `a_min = 0`, which holds
    /// in the paper's example. We keep the paper's formula for fidelity.
    pub fn a_avg(&self) -> f64 {
        0.5 * (self.a_max - self.a_min)
    }

    /// Reference energy `E_ref = n · b_avg` (eq. 6).
    pub fn e_ref(&self) -> f64 {
        self.n as f64 * self.b_avg
    }

    /// Reference operations `C_ref = n · a_avg` (eq. 7).
    pub fn c_ref(&self) -> f64 {
        self.n as f64 * self.a_avg()
    }

    /// Servers that can sleep while preserving the computational volume
    /// (from eq. 11): `n_sleep = n · (1 − a_avg/a_opt)`, floored to an
    /// integer so the remaining servers never run above `a_opt`.
    pub fn n_sleep(&self) -> u64 {
        let exact = self.n as f64 * (1.0 - self.a_avg() / self.a_opt);
        ecolb_metrics::convert::saturating_u64(exact.max(0.0).floor())
    }

    /// Optimal-scenario energy `E_opt = (n − n_sleep) · b_opt` (eq. 8),
    /// using the *exact* (real-valued) `n_sleep` from eq. 11 so the ratio
    /// matches eq. 12 identically.
    pub fn e_opt(&self) -> f64 {
        let active = self.n as f64 * self.a_avg() / self.a_opt;
        active * self.b_opt
    }

    /// Optimal-scenario operations `C_opt` (eq. 9) with exact `n_sleep`;
    /// equals `C_ref` by construction (eq. 11).
    pub fn c_opt(&self) -> f64 {
        let active = self.n as f64 * self.a_avg() / self.a_opt;
        active * self.a_opt
    }

    /// The energy ratio `E_ref/E_opt = (a_opt/a_avg)·(b_avg/b_opt)`
    /// (eq. 12).
    pub fn energy_ratio(&self) -> f64 {
        (self.a_opt / self.a_avg()) * (self.b_avg / self.b_opt)
    }

    /// Energy saved by consolidation as a fraction of the reference energy,
    /// `1 − E_opt/E_ref`.
    pub fn savings_fraction(&self) -> f64 {
        1.0 - 1.0 / self.energy_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_ratio_is_2_25() {
        let m = HomogeneousModel::paper_example(1000);
        assert!((m.a_avg() - 0.3).abs() < 1e-12);
        assert!((m.energy_ratio() - 2.25).abs() < 1e-12, "eq. 13");
        // "the optimal operation reduces the energy consumption to less
        // than half": savings > 50 %.
        assert!(m.savings_fraction() > 0.5);
    }

    #[test]
    fn ratio_formula_matches_e_ref_over_e_opt() {
        let m = HomogeneousModel::new(500, 0.1, 0.7, 0.55, 0.85, 0.75);
        let direct = m.e_ref() / m.e_opt();
        assert!((direct - m.energy_ratio()).abs() < 1e-12);
    }

    #[test]
    fn computation_volume_is_preserved() {
        let m = HomogeneousModel::paper_example(300);
        assert!((m.c_ref() - m.c_opt()).abs() < 1e-9, "eq. 11 equal volumes");
    }

    #[test]
    fn n_sleep_matches_eq_11() {
        let m = HomogeneousModel::paper_example(900);
        // n_sleep = n (1 - a_avg/a_opt) = 900 (1 - 1/3) = 600.
        assert_eq!(m.n_sleep(), 600);
    }

    #[test]
    fn n_sleep_floors_conservatively() {
        let m = HomogeneousModel::new(10, 0.0, 0.6, 0.6, 0.9, 0.8);
        // exact = 10·(2/3) = 6.67 → 6 sleepers, never more.
        assert_eq!(m.n_sleep(), 6);
    }

    #[test]
    fn no_sleepers_when_already_at_optimal_load() {
        let m = HomogeneousModel::new(100, 0.0, 1.8_f64.min(1.0), 0.6, 0.5, 0.8);
        // a_avg = 0.5 = a_opt → nothing to consolidate.
        assert_eq!(m.n_sleep(), 0);
        assert!((m.energy_ratio() - 0.6 / 0.8).abs() < 1e-12);
    }

    #[test]
    fn higher_b_opt_erodes_savings() {
        let lo = HomogeneousModel::new(100, 0.0, 0.6, 0.6, 0.9, 0.65);
        let hi = HomogeneousModel::new(100, 0.0, 0.6, 0.6, 0.9, 0.95);
        assert!(lo.energy_ratio() > hi.energy_ratio());
    }

    #[test]
    fn a_avg_is_the_papers_half_width() {
        let m = HomogeneousModel::new(10, 0.2, 0.8, 0.6, 0.9, 0.8);
        assert!(
            (m.a_avg() - 0.3).abs() < 1e-12,
            "paper's half-width convention, not the mean 0.5"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_unnormalized_parameters() {
        HomogeneousModel::new(10, 0.0, 1.5, 0.6, 0.9, 0.8);
    }

    #[test]
    #[should_panic(expected = "a_min > a_max")]
    fn rejects_inverted_a_range() {
        HomogeneousModel::new(10, 0.8, 0.2, 0.6, 0.9, 0.8);
    }
}
