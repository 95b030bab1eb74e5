//! Applications and their demand-growth bounds.
//!
//! In the paper's heterogeneous model (§4) each server `S_k` hosts a set of
//! applications `A_{i,k}`, each running in its own VM. An application has a
//! CPU-cycles demand (expressed here as a fraction of one server's
//! capacity) and a **unique maximum rate of demand increase `λ_{i,k}`** —
//! the paper's central modelling assumption is that "the rate of workload
//! increase is limited" per reallocation interval.

use std::fmt;

/// Globally unique application identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u64);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// An application instance (one VM's workload).
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    /// Identifier.
    pub id: AppId,
    /// Current CPU demand as a fraction of one server's capacity, in
    /// `[0, 1]`.
    pub demand: f64,
    /// Maximum demand increase per reallocation interval, `λ_{i,k}`.
    pub lambda: f64,
    /// Size of the application's VM image in GiB — drives the horizontal-
    /// scaling (migration) cost.
    pub vm_image_gib: f64,
}

impl Application {
    /// Creates an application; panics on out-of-range demand or negative
    /// parameters.
    pub fn new(id: AppId, demand: f64, lambda: f64, vm_image_gib: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&demand),
            "demand {demand} outside [0, 1]"
        );
        assert!(lambda >= 0.0, "lambda must be non-negative, got {lambda}");
        assert!(vm_image_gib > 0.0, "VM image size must be positive");
        Application {
            id,
            demand,
            lambda,
            vm_image_gib,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(demand: f64, lambda: f64) -> Application {
        Application::new(AppId(1), demand, lambda, 4.0)
    }

    #[test]
    fn construction_validates() {
        let a = app(0.3, 0.05);
        assert_eq!(a.demand, 0.3);
        assert_eq!(a.lambda, 0.05);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_demand_above_capacity() {
        app(1.5, 0.05);
    }

    #[test]
    fn display_app_id() {
        assert_eq!(AppId(17).to_string(), "app17");
    }
}
