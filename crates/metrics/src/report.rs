//! Machine-readable experiment reports.
//!
//! Every experiment produces a [`Report`]: a named set of scalar metrics,
//! series, and tables, serializable to JSON (via the in-repo
//! [`ToJson`] emitter) and to CSV (series only,
//! hand-rolled writer — both formats are simple enough that a dependency
//! is not warranted).

use crate::json::{write_json_string, ObjectWriter, ToJson};
use crate::timeseries::TimeSeries;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A structured experiment result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Experiment identifier, e.g. `"fig2/size=1000/load=30"`.
    pub id: String,
    /// RNG seed the experiment ran with.
    pub seed: u64,
    /// Scalar metrics in deterministic (sorted) order.
    pub scalars: BTreeMap<String, f64>,
    /// Recorded series.
    pub series: Vec<TimeSeries>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, seed: u64) -> Self {
        Report {
            id: id.into(),
            seed,
            scalars: BTreeMap::new(),
            series: Vec::new(),
        }
    }

    /// Records a scalar metric (overwrites a previous value of the same
    /// name).
    pub fn scalar(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.scalars.insert(name.into(), value);
        self
    }

    /// Reads a scalar back; panics with a clear message when missing, since
    /// a missing metric in a pinned experiment is a bug.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .scalars
            .get(name)
            .unwrap_or_else(|| panic!("report {:?} has no scalar {name:?}", self.id))
    }

    /// Attaches a series.
    pub fn push_series(&mut self, ts: TimeSeries) -> &mut Self {
        self.series.push(ts);
        self
    }

    /// Renders all series as a CSV document: a header row with series names,
    /// one row per interval. Shorter series leave trailing cells empty.
    pub fn series_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "interval");
        for s in &self.series {
            let _ = write!(out, ",{}", csv_escape(s.name()));
        }
        let _ = writeln!(out);
        let rows = self.series.iter().map(|s| s.len()).max().unwrap_or(0);
        for i in 0..rows {
            let _ = write!(out, "{i}");
            for s in &self.series {
                match s.values().get(i) {
                    Some(v) => {
                        let _ = write!(out, ",{v}");
                    }
                    None => {
                        let _ = write!(out, ",");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders the report as a JSON document via [`ToJson`].
    pub fn to_json(&self) -> String {
        ToJson::to_json(self)
    }
}

impl ToJson for Report {
    /// `{"id":…,"seed":…,"scalars":{name:value,…},"series":{name:[…],…}}` —
    /// the layout external tooling under `results/` already consumes.
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("id", &self.id)
            .field("seed", &self.seed)
            .field("scalars", &self.scalars)
            .field_with("series", |out| {
                out.push('{');
                for (i, ts) in self.series.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, ts.name());
                    out.push(':');
                    ts.values().write_json(out);
                }
                out.push('}');
            })
            .finish();
    }
}

/// Quotes a CSV field when it contains a delimiter, quote, or newline.
fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut r = Report::new("t", 1);
        r.scalar("energy_wh", 12.5);
        assert_eq!(r.get("energy_wh"), 12.5);
    }

    #[test]
    #[should_panic(expected = "no scalar")]
    fn get_missing_panics_with_context() {
        Report::new("t", 1).get("nope");
    }

    #[test]
    fn series_csv_layout() {
        let mut r = Report::new("t", 1);
        r.push_series(TimeSeries::from_values("a", vec![1.0, 2.0]));
        r.push_series(TimeSeries::from_values("b", vec![3.0]));
        let csv = r.series_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "interval,a,b");
        assert_eq!(lines[1], "0,1,3");
        assert_eq!(lines[2], "1,2,");
    }

    #[test]
    fn csv_escape_rules() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a\"b"), "\"a\"\"b\"");
        assert_eq!(csv_escape("x\ny"), "\"x\ny\"");
    }

    #[test]
    fn json_round_structure() {
        let mut r = Report::new("fig3/size=100", 7);
        r.scalar("mean_ratio", 0.5);
        r.scalar("weird \"name\"", 1.0);
        r.push_series(TimeSeries::from_values("ratio", vec![1.0, 0.25]));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"id\":\"fig3/size=100\""));
        assert!(json.contains("\"seed\":7"));
        assert!(json.contains("\"mean_ratio\":0.5"));
        assert!(json.contains("\\\"name\\\""), "quotes escaped: {json}");
        assert!(json.contains("\"ratio\":[1,0.25]"));
    }

    #[test]
    fn json_non_finite_becomes_null() {
        let mut r = Report::new("t", 1);
        r.push_series(TimeSeries::from_values("x", vec![f64::INFINITY]));
        assert!(r.to_json().contains("[null]"));
    }

    #[test]
    fn empty_report_csv() {
        let r = Report::new("t", 1);
        assert_eq!(r.series_csv(), "interval\n");
    }
}
