//! # ecolb-energy
//!
//! Energy and power modelling for the `ecolb` suite — everything §2–§4 of
//! *"Energy-aware Load Balancing Policies for the Cloud Ecosystem"*
//! (Paya & Marinescu, 2014) describes about individual servers:
//!
//! * [`power`] — utilization→Watts models (linear, SPECpower-style
//!   piecewise, per-subsystem composite with the §2 dynamic ranges);
//! * [`regimes`] — the five operating regimes R1–R5 of Figure 1 and their
//!   per-server boundaries;
//! * [`sleep`] — ACPI C-states, transition costs, and the paper's
//!   60 %-cluster-load C3/C6 selection rule;
//! * [`accounting`] — Joule integration over simulated time;
//! * [`server_class`] — Table 1 (Koomey) historical power data and trends;
//! * [`homogeneous`] — the analytic consolidation model, eqs. 6–13;
//! * [`proportionality`] — energy-proportionality metrics;
//! * [`dvfs`] — voltage/frequency scaling with diminishing returns \[14\];
//! * [`storage`] — replication \[25\] and virtual-node consolidation \[11\];
//! * [`network`] — link disciplines and topology power \[2\].
//!
//! ```
//! use ecolb_energy::{HomogeneousModel, LinearPowerModel, PowerModel, RegimeBoundaries};
//!
//! // The paper's eq. 13: consolidation cuts energy 2.25x.
//! let model = HomogeneousModel::paper_example(1000);
//! assert!((model.energy_ratio() - 2.25).abs() < 1e-12);
//!
//! // A typical server burns half its peak power doing nothing.
//! let server = LinearPowerModel::typical_volume_server();
//! assert_eq!(server.idle_power_w(), 100.0);
//!
//! // Regime classification drives the balancing protocol.
//! let bounds = RegimeBoundaries::typical();
//! assert_eq!(bounds.classify(0.5).to_string(), "R3");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod dvfs;
pub mod homogeneous;
pub mod network;
pub mod power;
pub mod proportionality;
pub mod regimes;
pub mod server_class;
pub mod sleep;
pub mod storage;

pub use accounting::{EnergyBreakdown, EnergyMeter};
pub use dvfs::{DvfsGoverned, DvfsModel};
pub use homogeneous::HomogeneousModel;
pub use network::{LinkDiscipline, LinkPower, Topology};
pub use power::{LinearPowerModel, PiecewisePowerModel, PowerModel, SubsystemPowerModel};
pub use regimes::{OperatingRegime, RegimeBoundaries, RegimeCensus};
pub use server_class::{PowerTrend, ServerClass};
pub use sleep::{CState, SleepModel, SleepPolicy};
pub use storage::{DiskPower, ReplicatedArray, SlidingWindow, VirtualNodeStore};
