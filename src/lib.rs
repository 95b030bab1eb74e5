//! # energy-aware-lb
//!
//! Root package of the reproduction of *"Energy-aware Load Balancing
//! Policies for the Cloud Ecosystem"* (Paya & Marinescu, 2014).
//!
//! The library is empty: it exists so the package can host the runnable
//! `examples/` and the cross-crate integration tests in `tests/`, which
//! import the member crates (`ecolb`, `ecolb-cluster`, …) directly, as
//! library users should.
