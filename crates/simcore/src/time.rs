//! Simulated time.
//!
//! The simulator measures time in integer **microseconds** held in a
//! [`SimTime`] newtype. Fixed-point time keeps event ordering exact and
//! platform-independent: two runs with the same seed produce bit-identical
//! schedules, which floating-point time cannot guarantee once durations are
//! accumulated in different orders.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of microsecond ticks per simulated second.
pub const TICKS_PER_SECOND: u64 = 1_000_000;

/// A point on the simulated timeline, in microseconds since the start of the
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for stop conditions.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw microsecond ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Creates a time from whole simulated seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * TICKS_PER_SECOND)
    }

    /// Raw microsecond ticks since the origin.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// Saturating difference between two instants.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microsecond ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Creates a duration from whole simulated seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * TICKS_PER_SECOND)
    }

    /// Creates a duration from whole simulated milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * (TICKS_PER_SECOND / 1000))
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// tick. Negative values saturate to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * TICKS_PER_SECOND as f64).round() as u64)
    }

    /// Raw microsecond ticks.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// True when the span is zero ticks long.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds when `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).ticks(), 3 * TICKS_PER_SECOND);
        assert_eq!(SimTime::from_ticks(42).ticks(), 42);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
    }

    #[test]
    fn fractional_seconds_round_to_ticks() {
        let d = SimDuration::from_secs_f64(1.234_567_8);
        assert_eq!(d.ticks(), 1_234_568);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_secs_f64(), 14.0);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_sub(t + d), SimDuration::ZERO);
        assert_eq!((t + d).saturating_sub(t), d);
    }

    #[test]
    fn ordering_is_total_on_ticks() {
        let a = SimTime::from_ticks(1);
        let b = SimTime::from_ticks(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_ticks(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_ticks(7)),
            Some(SimTime::from_ticks(7))
        );
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250000s");
    }

    #[test]
    fn tracer_tick_rate_agrees_with_engine() {
        // ecolb-trace duplicates the tick rate so it can sit below this
        // crate in the dependency graph; the duplication must not drift.
        assert_eq!(ecolb_trace::TICKS_PER_SECOND, TICKS_PER_SECOND);
    }
}
