//! Server classes and the historical power data of Table 1.
//!
//! The paper quotes Koomey's estimates of average power for **volume**
//! (< $25 K), **mid-range** ($25 K–$499 K), and **high-end** (> $500 K)
//! servers from 2000 through 2006. This module embeds that dataset, fits a
//! linear trend per class, and derives representative
//! [`LinearPowerModel`]s so experiments can
//! run on class-appropriate hardware parameters.

use crate::power::LinearPowerModel;
use std::fmt;

/// Koomey's server price bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerClass {
    /// Volume servers, price below $25 K.
    Volume,
    /// Mid-range servers, $25 K – $499 K.
    MidRange,
    /// High-end servers, $500 K and above.
    HighEnd,
}

impl ServerClass {
    /// All classes in Table 1 order.
    pub const ALL: [ServerClass; 3] = [
        ServerClass::Volume,
        ServerClass::MidRange,
        ServerClass::HighEnd,
    ];

    /// The label used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            ServerClass::Volume => "Vol",
            ServerClass::MidRange => "Mid",
            ServerClass::HighEnd => "High",
        }
    }
}

impl fmt::Display for ServerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Years covered by Table 1.
pub const TABLE1_YEARS: [u32; 7] = [2000, 2001, 2002, 2003, 2004, 2005, 2006];

/// Table 1 of the paper: estimated average power use in Watts
/// (rows: Volume, Mid, High; columns: 2000–2006). Source: Koomey \[13\].
pub const TABLE1_WATTS: [[f64; 7]; 3] = [
    [186.0, 193.0, 200.0, 207.0, 213.0, 219.0, 225.0],
    [424.0, 457.0, 491.0, 524.0, 574.0, 625.0, 675.0],
    [
        5_534.0, 5_832.0, 6_130.0, 6_428.0, 6_973.0, 7_651.0, 8_163.0,
    ],
];

/// Average power of `class` in `year`, straight from Table 1; `None`
/// outside 2000–2006.
pub fn table1_power_w(class: ServerClass, year: u32) -> Option<f64> {
    let row = match class {
        ServerClass::Volume => 0,
        ServerClass::MidRange => 1,
        ServerClass::HighEnd => 2,
    };
    TABLE1_YEARS
        .iter()
        .position(|&y| y == year)
        .map(|col| TABLE1_WATTS[row][col])
}

/// Least-squares linear fit `watts ≈ slope·(year − 2000) + intercept` for a
/// server class over the Table 1 data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerTrend {
    /// Watts per year of growth.
    pub slope: f64,
    /// Estimated watts in year 2000.
    pub intercept: f64,
}

impl PowerTrend {
    /// Fits the trend for one class.
    pub fn fit(class: ServerClass) -> Self {
        let row = match class {
            ServerClass::Volume => 0,
            ServerClass::MidRange => 1,
            ServerClass::HighEnd => 2,
        };
        let ys = &TABLE1_WATTS[row];
        let n = ys.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for (i, &y) in ys.iter().enumerate() {
            let dx = i as f64 - mean_x;
            sxy += dx * (y - mean_y);
            sxx += dx * dx;
        }
        let slope = sxy / sxx;
        PowerTrend {
            slope,
            intercept: mean_y - slope * mean_x,
        }
    }

    /// Extrapolated/interpolated average power for a year.
    pub fn predict(&self, year: u32) -> f64 {
        self.intercept + self.slope * (year as f64 - 2000.0)
    }
}

/// A representative power model for a class in a given year: peak power set
/// to the Table 1 trend value, idle at the paper's 50 % non-proportionality
/// figure.
pub fn class_power_model(class: ServerClass, year: u32) -> LinearPowerModel {
    let peak = PowerTrend::fit(class).predict(year).max(1.0);
    LinearPowerModel::new(0.5 * peak, peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModel;

    #[test]
    fn table1_lookup_matches_paper() {
        assert_eq!(table1_power_w(ServerClass::Volume, 2000), Some(186.0));
        assert_eq!(table1_power_w(ServerClass::Volume, 2006), Some(225.0));
        assert_eq!(table1_power_w(ServerClass::MidRange, 2003), Some(524.0));
        assert_eq!(table1_power_w(ServerClass::HighEnd, 2006), Some(8_163.0));
        assert_eq!(table1_power_w(ServerClass::Volume, 1999), None);
        assert_eq!(table1_power_w(ServerClass::Volume, 2007), None);
    }

    #[test]
    fn power_grows_over_time_for_every_class() {
        for (r, _) in ServerClass::ALL.iter().enumerate() {
            for w in TABLE1_WATTS[r].windows(2) {
                assert!(w[1] > w[0], "Table 1 rows are strictly increasing");
            }
        }
    }

    #[test]
    fn trend_slope_is_positive_and_ordered_by_class() {
        let vol = PowerTrend::fit(ServerClass::Volume);
        let mid = PowerTrend::fit(ServerClass::MidRange);
        let high = PowerTrend::fit(ServerClass::HighEnd);
        assert!(vol.slope > 0.0);
        assert!(mid.slope > vol.slope);
        assert!(high.slope > mid.slope);
    }

    #[test]
    fn trend_interpolates_close_to_data() {
        for class in ServerClass::ALL {
            let t = PowerTrend::fit(class);
            for (i, &year) in TABLE1_YEARS.iter().enumerate() {
                let actual = table1_power_w(class, year).unwrap();
                let predicted = t.predict(year);
                let rel = (predicted - actual).abs() / actual;
                assert!(
                    rel < 0.05,
                    "{class} {year}: predicted {predicted}, actual {actual} (i={i})"
                );
            }
        }
    }

    #[test]
    fn extrapolation_beyond_2006_keeps_growing() {
        let t = PowerTrend::fit(ServerClass::Volume);
        assert!(t.predict(2010) > t.predict(2006));
    }

    #[test]
    fn class_power_model_idles_at_half_peak() {
        let m = class_power_model(ServerClass::Volume, 2006);
        assert!((m.idle_power_w() / m.peak_power_w() - 0.5).abs() < 1e-12);
        // Near the Table 1 2006 value.
        assert!((m.peak_power_w() - 225.0).abs() < 10.0);
    }

    #[test]
    fn labels() {
        assert_eq!(ServerClass::Volume.label(), "Vol");
        assert_eq!(ServerClass::MidRange.to_string(), "Mid");
    }
}
