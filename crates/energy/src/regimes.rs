//! The five operating regimes of a server (paper §4, Figure 1, eqs. 1–5).
//!
//! A server's state is summarised by its **normalized performance**
//! `a(t) ∈ [0, 1]` (delivered performance over peak performance — in the
//! simulation, the CPU load relative to capacity) and its **normalized
//! energy** `b(t) ∈ [0, 1]`. Four boundaries `α^{sopt,l} ≤ α^{opt,l} ≤
//! α^{opt,h} ≤ α^{sopt,h}` partition the performance axis into five
//! regions:
//!
//! | Regime | Name             | Condition                              |
//! |--------|------------------|----------------------------------------|
//! | R1     | undesirable-low  | `a < α^{sopt,l}`                       |
//! | R2     | suboptimal-low   | `α^{sopt,l} ≤ a < α^{opt,l}`           |
//! | R3     | optimal          | `α^{opt,l} ≤ a ≤ α^{opt,h}`            |
//! | R4     | suboptimal-high  | `α^{opt,h} < a ≤ α^{sopt,h}`           |
//! | R5     | undesirable-high | `a > α^{sopt,h}`                       |
//!
//! The paper's heterogeneous experiments draw the four boundaries per server
//! from uniform ranges `[0.20, 0.25]`, `[0.25, 0.45]`, `[0.55, 0.80]`, and
//! `[0.80, 0.85]` — see [`RegimeBoundaries::sample_paper`].

use ecolb_simcore::rng::Rng;
use std::fmt;

/// One of the five operating regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperatingRegime {
    /// R1 — undesirable low: nearly idle; drain and sleep, or absorb load.
    UndesirableLow,
    /// R2 — suboptimal low: lightly loaded; willing to accept load.
    SuboptimalLow,
    /// R3 — optimal: no action required.
    Optimal,
    /// R4 — suboptimal high: overloaded; wants to shed load.
    SuboptimalHigh,
    /// R5 — undesirable high: critically overloaded; must shed load now.
    UndesirableHigh,
}

impl OperatingRegime {
    /// All regimes in R1..R5 order.
    pub const ALL: [OperatingRegime; 5] = [
        OperatingRegime::UndesirableLow,
        OperatingRegime::SuboptimalLow,
        OperatingRegime::Optimal,
        OperatingRegime::SuboptimalHigh,
        OperatingRegime::UndesirableHigh,
    ];

    /// The paper's 1-based index (R1 = 1 … R5 = 5).
    pub fn index(self) -> usize {
        match self {
            OperatingRegime::UndesirableLow => 1,
            OperatingRegime::SuboptimalLow => 2,
            OperatingRegime::Optimal => 3,
            OperatingRegime::SuboptimalHigh => 4,
            OperatingRegime::UndesirableHigh => 5,
        }
    }

    /// True for R1 and R5 — regions requiring *immediate* attention
    /// (paper §4: "suboptimal regions do not require an immediate
    /// attention, while undesirable regions do").
    pub fn is_undesirable(self) -> bool {
        matches!(
            self,
            OperatingRegime::UndesirableLow | OperatingRegime::UndesirableHigh
        )
    }

    /// True when the server is below the optimal band (R1 or R2) and can
    /// accept more workload.
    pub fn is_underloaded(self) -> bool {
        matches!(
            self,
            OperatingRegime::UndesirableLow | OperatingRegime::SuboptimalLow
        )
    }

    /// True when the server is above the optimal band (R4 or R5) and should
    /// shed workload.
    pub fn is_overloaded(self) -> bool {
        matches!(
            self,
            OperatingRegime::SuboptimalHigh | OperatingRegime::UndesirableHigh
        )
    }
}

impl fmt::Display for OperatingRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.index())
    }
}

/// Per-server regime boundaries on the normalized-performance axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegimeBoundaries {
    /// `α^{sopt,l}` — lower edge of suboptimal-low.
    pub sopt_low: f64,
    /// `α^{opt,l}` — lower edge of the optimal band.
    pub opt_low: f64,
    /// `α^{opt,h}` — upper edge of the optimal band.
    pub opt_high: f64,
    /// `α^{sopt,h}` — upper edge of suboptimal-high.
    pub sopt_high: f64,
}

impl RegimeBoundaries {
    /// Creates boundaries, validating the ordering invariant
    /// `0 ≤ sopt_low ≤ opt_low ≤ opt_high ≤ sopt_high ≤ 1`.
    pub fn new(sopt_low: f64, opt_low: f64, opt_high: f64, sopt_high: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sopt_low)
                && sopt_low <= opt_low
                && opt_low <= opt_high
                && opt_high <= sopt_high
                && sopt_high <= 1.0,
            "regime boundaries out of order: {sopt_low} {opt_low} {opt_high} {sopt_high}"
        );
        RegimeBoundaries {
            sopt_low,
            opt_low,
            opt_high,
            sopt_high,
        }
    }

    /// The paper's default heterogeneous sampling: boundaries drawn
    /// uniformly from `[0.20, 0.25]`, `[0.25, 0.45]`, `[0.55, 0.80]`, and
    /// `[0.80, 0.85]` respectively (§4).
    pub fn sample_paper(rng: &mut Rng) -> Self {
        RegimeBoundaries::new(
            rng.uniform(0.20, 0.25),
            rng.uniform(0.25, 0.45),
            rng.uniform(0.55, 0.80),
            rng.uniform(0.80, 0.85),
        )
    }

    /// A deterministic "typical" server: the midpoints of the paper's
    /// sampling ranges.
    pub fn typical() -> Self {
        RegimeBoundaries::new(0.225, 0.35, 0.675, 0.825)
    }

    /// Classifies a normalized performance level `a ∈ [0, 1]` into its
    /// regime. Values are clamped into `[0, 1]` first, so numeric noise at
    /// the edges cannot produce an unclassifiable load.
    pub fn classify(&self, a: f64) -> OperatingRegime {
        let a = a.clamp(0.0, 1.0);
        if a < self.sopt_low {
            OperatingRegime::UndesirableLow
        } else if a < self.opt_low {
            OperatingRegime::SuboptimalLow
        } else if a <= self.opt_high {
            OperatingRegime::Optimal
        } else if a <= self.sopt_high {
            OperatingRegime::SuboptimalHigh
        } else {
            OperatingRegime::UndesirableHigh
        }
    }

    /// Midpoint of the optimal band — the target load the balancing
    /// protocol steers towards.
    pub fn optimal_target(&self) -> f64 {
        0.5 * (self.opt_low + self.opt_high)
    }

    /// Load that must be shed to re-enter the optimal band from above; zero
    /// when not above it.
    pub fn excess_over_opt_high(&self, a: f64) -> f64 {
        (a - self.opt_high).max(0.0)
    }
}

impl Default for RegimeBoundaries {
    fn default() -> Self {
        Self::typical()
    }
}

/// Occupancy counts per regime — the data series of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegimeCensus {
    counts: [u64; 5],
}

impl RegimeCensus {
    /// An empty census.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one server in `regime`.
    pub fn record(&mut self, regime: OperatingRegime) {
        self.counts[regime.index() - 1] += 1;
    }

    /// Count in a given regime.
    pub fn count(&self, regime: OperatingRegime) -> u64 {
        self.counts[regime.index() - 1]
    }

    /// Counts in R1..R5 order.
    pub fn counts(&self) -> [u64; 5] {
        self.counts
    }

    /// Total servers counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of servers in the undesirable regimes (R1 + R5); `0.0` for
    /// an empty census.
    pub fn undesirable_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.counts[0] + self.counts[4]) as f64 / total as f64
    }

    /// Fraction of servers inside the optimal or suboptimal regimes
    /// (R2 + R3 + R4).
    pub fn acceptable_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.counts[1] + self.counts[2] + self.counts[3]) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paper_regions() {
        let b = RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8);
        assert_eq!(b.classify(0.0), OperatingRegime::UndesirableLow);
        assert_eq!(b.classify(0.19), OperatingRegime::UndesirableLow);
        assert_eq!(b.classify(0.2), OperatingRegime::SuboptimalLow);
        assert_eq!(b.classify(0.29), OperatingRegime::SuboptimalLow);
        assert_eq!(b.classify(0.3), OperatingRegime::Optimal);
        assert_eq!(b.classify(0.5), OperatingRegime::Optimal);
        assert_eq!(b.classify(0.7), OperatingRegime::Optimal);
        assert_eq!(b.classify(0.71), OperatingRegime::SuboptimalHigh);
        assert_eq!(b.classify(0.8), OperatingRegime::SuboptimalHigh);
        assert_eq!(b.classify(0.81), OperatingRegime::UndesirableHigh);
        assert_eq!(b.classify(1.0), OperatingRegime::UndesirableHigh);
    }

    #[test]
    fn classification_clamps_out_of_range() {
        let b = RegimeBoundaries::typical();
        assert_eq!(b.classify(-0.5), OperatingRegime::UndesirableLow);
        assert_eq!(b.classify(1.5), OperatingRegime::UndesirableHigh);
    }

    #[test]
    fn paper_sampling_respects_ranges() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let b = RegimeBoundaries::sample_paper(&mut rng);
            assert!((0.20..0.25).contains(&b.sopt_low));
            assert!((0.25..0.45).contains(&b.opt_low));
            assert!((0.55..0.80).contains(&b.opt_high));
            assert!((0.80..0.85).contains(&b.sopt_high));
        }
    }

    #[test]
    fn regime_predicates() {
        use OperatingRegime::*;
        assert!(UndesirableLow.is_undesirable() && UndesirableHigh.is_undesirable());
        assert!(!Optimal.is_undesirable());
        assert!(UndesirableLow.is_underloaded() && SuboptimalLow.is_underloaded());
        assert!(UndesirableHigh.is_overloaded() && SuboptimalHigh.is_overloaded());
        assert!(!Optimal.is_underloaded() && !Optimal.is_overloaded());
    }

    #[test]
    fn index_follows_all_order() {
        for (i, r) in OperatingRegime::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i + 1);
        }
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(OperatingRegime::Optimal.to_string(), "R3");
        assert_eq!(OperatingRegime::UndesirableHigh.to_string(), "R5");
    }

    #[test]
    fn optimal_target_is_band_midpoint() {
        let b = RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8);
        assert!((b.optimal_target() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn excess_is_the_overshoot_above_opt_high() {
        let b = RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8);
        assert_eq!(b.excess_over_opt_high(0.5), 0.0);
        assert!((b.excess_over_opt_high(0.9) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn census_counts_and_fractions() {
        let mut c = RegimeCensus::new();
        let b = RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8);
        for a in [0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 0.95] {
            c.record(b.classify(a));
        }
        assert_eq!(c.counts(), [1, 1, 2, 1, 2]);
        assert_eq!(c.total(), 7);
        assert!((c.undesirable_fraction() - 3.0 / 7.0).abs() < 1e-12);
        assert!((c.acceptable_fraction() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_census_fractions_are_zero() {
        let c = RegimeCensus::new();
        assert_eq!(c.undesirable_fraction(), 0.0);
        assert_eq!(c.acceptable_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_unordered_boundaries() {
        RegimeBoundaries::new(0.5, 0.3, 0.7, 0.8);
    }
}
