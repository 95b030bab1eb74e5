//! Per-interval time series.
//!
//! Figure 3 of the paper is a time series of the in-cluster/local decision
//! ratio over 40 reallocation intervals; [`TimeSeries`] is the recording
//! structure behind it and behind every other per-interval trace in the
//! suite.

use crate::summary::OnlineStats;

/// An append-only series of `(interval index, value)` observations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty, named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Creates a series from existing values.
    pub fn from_values(name: impl Into<String>, values: Vec<f64>) -> Self {
        TimeSeries {
            name: name.into(),
            values,
        }
    }

    /// The series name (used as plot/CSV header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends the value for the next interval.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// All recorded values in interval order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Summary statistics over the whole series.
    pub fn stats(&self) -> OnlineStats {
        OnlineStats::from_slice(&self.values)
    }

    /// First interval index where the value drops below `threshold` and
    /// stays below it for the remainder of the series; `None` if never.
    ///
    /// This operationalises the paper's "low-cost local decisions become
    /// dominant after about N reallocation intervals" claim: dominance is
    /// the ratio staying below 1.0.
    pub fn settles_below(&self, threshold: f64) -> Option<usize> {
        let mut candidate = None;
        for (i, &v) in self.values.iter().enumerate() {
            if v < threshold {
                if candidate.is_none() {
                    candidate = Some(i);
                }
            } else {
                candidate = None;
            }
        }
        candidate
    }
}

impl crate::json::ToJson for TimeSeries {
    fn write_json(&self, out: &mut String) {
        crate::json::ObjectWriter::new(out)
            .field("name", &self.name)
            .field("values", &self.values)
            .finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut ts = TimeSeries::new("ratio");
        ts.push(1.0);
        ts.push(0.5);
        assert_eq!(ts.values(), &[1.0, 0.5]);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.name(), "ratio");
    }

    #[test]
    fn stats_over_series() {
        let ts = TimeSeries::from_values("x", vec![1.0, 2.0, 3.0, 4.0]);
        let s = ts.stats();
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn settles_below_finds_last_crossing() {
        let ts = TimeSeries::from_values("x", vec![2.0, 0.5, 3.0, 0.9, 0.8, 0.7]);
        assert_eq!(ts.settles_below(1.0), Some(3));
    }

    #[test]
    fn settles_below_none_when_it_never_settles() {
        let ts = TimeSeries::from_values("x", vec![0.5, 0.5, 2.0]);
        assert_eq!(ts.settles_below(1.0), None);
    }

    #[test]
    fn settles_below_from_start() {
        let ts = TimeSeries::from_values("x", vec![0.1, 0.2, 0.3]);
        assert_eq!(ts.settles_below(1.0), Some(0));
    }

    #[test]
    fn empty_series_behaviour() {
        let ts = TimeSeries::new("e");
        assert!(ts.is_empty());
        assert_eq!(ts.settles_below(1.0), None);
        assert_eq!(ts.stats().count(), 0);
    }
}
