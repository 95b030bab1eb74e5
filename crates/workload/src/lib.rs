//! # ecolb-workload
//!
//! Workload modelling for the `ecolb` suite:
//!
//! * [`application`] — applications `A_{i,k}` with bounded demand-growth
//!   rates `λ_{i,k}`, the per-interval bound within which the cluster
//!   layer draws each application's growth (paper §4);
//! * [`generator`] — initial placement drawing per-server loads from the
//!   paper's uniform bands (20–40 %, 60–80 %, 10–90 %);
//! * [`traces`] — the §3 request-rate taxonomy (flat, diurnal, step, spiky,
//!   random-walk) for the baseline-policy evaluations;
//! * [`arrival`] — Poisson arrival sampling over a rate trace;
//! * [`requests`] — open-loop user-request sources (exponential gaps by
//!   inversion, keyed per source) and per-request service-time draws for
//!   the serving layer;
//! * [`processes`] — time-varying arrival modulation for scenario
//!   tournaments: flash crowds and correlated diurnal waves inverted
//!   through closed-form cumulative rates;
//! * [`slo`] — M/M/1-PS response-time model and SLA violation counting.
//!
//! ```
//! use ecolb_workload::{generate_server_apps, total_demand, AppIdAllocator, WorkloadSpec};
//! use ecolb_simcore::Rng;
//!
//! let spec = WorkloadSpec::paper_low_load();
//! let mut ids = AppIdAllocator::new();
//! let mut rng = Rng::new(1);
//! let apps = generate_server_apps(&spec, &mut ids, &mut rng);
//! let load = total_demand(&apps);
//! assert!(load > 0.1 && load <= 0.4, "initial load in the paper's band");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod application;
pub mod arrival;
pub mod generator;
pub mod processes;
pub mod requests;
pub mod slo;
pub mod traces;

pub use application::{AppId, Application};
pub use arrival::ArrivalProcess;
pub use generator::{generate_server_apps, total_demand, AppIdAllocator, WorkloadSpec};
pub use processes::{DiurnalSpec, FlashCrowdSpec, RateModulation, SourceProfile};
pub use requests::{
    request_stream, service_time_s, OpenLoopSource, RequestId, RequestLoadSpec,
    RequestStreamDomain, SlaClass,
};
pub use slo::{Sla, ViolationCounter};
pub use traces::{TraceGenerator, TraceShape};
