//! # ecolb
//!
//! Top-level library of the reproduction of *"Energy-aware Load Balancing
//! Policies for the Cloud Ecosystem"* (Ashkan Paya & Dan C. Marinescu,
//! 2014, arXiv:1401.2198).
//!
//! The paper reformulates load balancing for energy efficiency: *distribute
//! the workload evenly to the smallest set of servers operating at an
//! optimal energy level, while observing QoS constraints*. This crate ties
//! the workspace together and ships the canned experiments regenerating
//! every table and figure of the paper's evaluation:
//!
//! | Artifact | API |
//! |---|---|
//! | Table 1 (server power 2000–2006) | [`experiments::table1_rows`] |
//! | Homogeneous model, eqs. 6–13 | [`experiments::homogeneous_rows`] |
//! | Figure 2 (regime censuses) | [`experiments::fig2_panels`] |
//! | Figure 3 (decision-ratio series) | [`experiments::fig3_panels`] |
//! | Table 2 (summary statistics) | [`experiments::table2_rows`] |
//!
//! ## Quickstart
//!
//! ```
//! use ecolb::prelude::*;
//!
//! // A 60-server cluster at the paper's low-load operating point.
//! let config = ClusterConfig::paper(60, WorkloadSpec::paper_low_load());
//! let mut cluster = Cluster::new(config, 42);
//! let report = cluster.run(10);
//! assert_eq!(report.ratio_series.len(), 10);
//! // Balancing keeps almost everyone out of the undesirable regimes.
//! assert!(report.final_census.acceptable_fraction() > 0.7);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

pub use ecolb_cluster as cluster;
pub use ecolb_energy as energy;
pub use ecolb_metrics as metrics;
pub use ecolb_policies as policies;
pub use ecolb_simcore as simcore;
pub use ecolb_workload as workload;

/// One-stop imports for experiment authors.
pub mod prelude {
    pub use crate::experiments::{
        fig2_panels, fig3_panels, homogeneous_paper_point, homogeneous_rows, run_cell, run_matrix,
        table1_rows, table2_rows, Fig2Panel, Fig3Panel, LoadLevel, MatrixCell, Table2Row,
        PAPER_CLUSTER_SIZES, PAPER_INTERVALS,
    };
    pub use ecolb_cluster::admission::{
        AdmissionController, AdmissionPolicy, AdmissionStats, ArrivalSpec, ServiceRequest,
    };
    pub use ecolb_cluster::balance::{BalanceConfig, FillLimit};
    pub use ecolb_cluster::cluster::{Cluster, ClusterConfig, ClusterRunReport};
    pub use ecolb_cluster::federation::{Federation, FederationConfig, FederationReport};
    pub use ecolb_cluster::migration::MigrationCostModel;
    pub use ecolb_cluster::mix::ServerMix;
    pub use ecolb_cluster::server::{Server, ServerId, ServerPowerSpec};
    pub use ecolb_cluster::sim::{TimedClusterSim, TimedRunReport};
    pub use ecolb_energy::dvfs::{DvfsGoverned, DvfsModel};
    pub use ecolb_energy::homogeneous::HomogeneousModel;
    pub use ecolb_energy::power::{LinearPowerModel, PiecewisePowerModel, PowerModel};
    pub use ecolb_energy::regimes::{OperatingRegime, RegimeBoundaries, RegimeCensus};
    pub use ecolb_energy::server_class::{PowerTrend, ServerClass};
    pub use ecolb_energy::sleep::{CState, SleepModel, SleepPolicy};
    pub use ecolb_metrics::{fmt_f, Histogram, OnlineStats, P2Quantile, Report, Table, TimeSeries};
    pub use ecolb_policies::{
        evaluate, presample_rates, AlwaysOn, AutoScale, CapacityPolicy, FarmConfig,
        LinearRegression, MovingWindow, Optimal, Reactive, ReactiveExtraCapacity, Sizing,
    };
    pub use ecolb_simcore::prelude::*;
    pub use ecolb_workload::{ArrivalProcess, Sla, TraceGenerator, TraceShape, WorkloadSpec};
}
