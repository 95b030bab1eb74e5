//! # ecolb-metrics
//!
//! Measurement and reporting toolkit for the `ecolb` suite: online
//! statistics ([`OnlineStats`]), fixed-bin histograms ([`Histogram`]),
//! per-interval series ([`TimeSeries`]), ASCII tables and plots for the
//! harnesses, and serializable experiment [`Report`]s.
//!
//! Nothing here knows about servers or energy; the crate is deliberately a
//! leaf so the measurement layer can be tested in isolation and reused by
//! every simulation crate above it.
//!
//! ```
//! use ecolb_metrics::{OnlineStats, P2Quantile, TimeSeries};
//!
//! let mut stats = OnlineStats::new();
//! let mut p99 = P2Quantile::new(0.99);
//! let mut series = TimeSeries::new("latency");
//! for i in 0..1000 {
//!     let x = (i % 100) as f64;
//!     stats.push(x);
//!     p99.push(x);
//!     series.push(x);
//! }
//! assert!((stats.mean() - 49.5).abs() < 1e-9);
//! assert!(p99.estimate().unwrap() > 90.0);
//! assert_eq!(series.len(), 1000);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod convert;
pub mod degradation;
pub mod histogram;
pub mod json;
pub mod latency;
pub mod plot;
pub mod quantile;
pub mod report;
pub mod resilience;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use degradation::DegradationSummary;
pub use histogram::Histogram;
pub use latency::{LatencyRecorder, SlaClassCounters};
pub use quantile::P2Quantile;
pub use report::Report;
pub use resilience::ResilienceCounters;
pub use summary::OnlineStats;
pub use table::{fmt_f, Table};
pub use timeseries::TimeSeries;
