//! # ecolb-cluster
//!
//! The clustered cloud model of *"Energy-aware Load Balancing Policies for
//! the Cloud Ecosystem"* (Paya & Marinescu, 2014), §4–5:
//!
//! * [`server`] — servers with per-server regime boundaries, C-states and
//!   energy meters;
//! * [`leader`] — the star-topology cluster leader: regime directory,
//!   partner search, wake orders;
//! * [`messages`] — the leader's per-kind message counts and the retry
//!   policy for messages lost on a faulty link;
//! * [`migration`] — the VM migration cost model (§3 questions 5–8);
//! * [`scaling`] — vertical vs horizontal decisions and the
//!   in-cluster/local ratio ledger (Figure 3 / Table 2);
//! * [`balance`] — one round of the §4 regime protocol (shed, drain &
//!   sleep, wake);
//! * [`cluster`] — the reallocation-interval driver tying it together;
//! * [`sim`] — the event-driven timed variant (migration/wake latencies);
//! * [`admission`] — §3/§6 admission control with arrival streams;
//! * [`instances`] — the flat instance snapshot the serving layer
//!   (`ecolb-serve`) diffs into discovery change events;
//! * [`federation`] — the multi-cluster tier (§4 scalability);
//! * [`mix`] — heterogeneous Table 1 server-class populations;
//! * [`recovery`] — the failure-recovery protocol: fault hooks,
//!   heartbeat/failover configuration and degradation accounting (driven
//!   by the `ecolb-faults` injection crate).
//!
//! ```
//! use ecolb_cluster::{Cluster, ClusterConfig};
//! use ecolb_workload::WorkloadSpec;
//!
//! let config = ClusterConfig::paper(50, WorkloadSpec::paper_low_load());
//! let mut cluster = Cluster::new(config, 7);
//! let report = cluster.run(5);
//! assert_eq!(report.ratio_series.len(), 5);
//! assert!(report.energy.total_j() > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod balance;
pub mod cluster;
pub mod federation;
pub mod instances;
pub mod leader;
pub mod messages;
pub mod migration;
pub mod mix;
pub mod recovery;
pub mod scaling;
pub mod server;
pub mod sim;

pub use admission::{
    AdmissionController, AdmissionPolicy, AdmissionStats, ArrivalSpec, ServiceRequest,
};
pub use balance::{
    balance_round, BalanceConfig, BalanceOutcome, BalanceScratch, FillLimit, MigrationRecord,
};
pub use cluster::{Cluster, ClusterConfig, ClusterRunReport};
pub use federation::{Federation, FederationConfig, FederationReport};
pub use instances::InstanceInfo;
pub use leader::Leader;
pub use messages::{MessageStats, RetryPolicy};
pub use migration::{MigrationCost, MigrationCostModel};
pub use mix::ServerMix;
pub use recovery::{FaultEventKind, FaultHooks, NoFaults, RecoveryStats};
pub use scaling::{DecisionKind, DecisionLedger, IntervalCounts};
pub use server::{Server, ServerId, ServerPowerSpec};
pub use sim::{FaultLedger, SimEvent, TimedClusterSim, TimedRunReport};
