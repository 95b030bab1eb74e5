//! VM migration cost model.
//!
//! The paper's stated focus is *"the energy costs for migrating a VM when
//! we decide to either switch a server to a sleep state or force it to
//! operate within the boundaries of an energy optimal regime"* and it poses
//! questions 5–8 of §3: the energy to migrate a VM, the energy to start it
//! on the target, how to choose the target, and how long migration takes.
//!
//! This model answers them parametrically: a migration of an image of `G`
//! GiB over a link of `B` Gbit/s takes `8·G/B` seconds of transfer, during
//! which both NICs and a share of both hosts draw extra power; starting
//! the VM on the target costs a fixed boot energy and latency.

use ecolb_simcore::time::SimDuration;
use ecolb_workload::application::Application;

/// Parameters of the migration cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCostModel {
    /// Link bandwidth between any two cluster servers, Gbit/s (star
    /// topology: two hops through the top-of-rack fabric).
    pub link_gbps: f64,
    /// Extra power drawn on source + target while the transfer runs, Watts
    /// (NIC + memory-copy overhead on both ends).
    pub transfer_overhead_w: f64,
    /// Fixed energy to start the VM on the target (question 6), Joules.
    pub vm_start_energy_j: f64,
    /// Fixed latency to start the VM on the target, seconds.
    pub vm_start_latency_s: f64,
    /// Dirty-page factor for live migration: the bytes actually moved are
    /// `image × factor` (≥ 1.0; pre-copy rounds re-send written pages).
    pub dirty_page_factor: f64,
}

impl Default for MigrationCostModel {
    fn default() -> Self {
        MigrationCostModel {
            link_gbps: 10.0,
            transfer_overhead_w: 30.0,
            vm_start_energy_j: 150.0,
            vm_start_latency_s: 2.0,
            dirty_page_factor: 1.25,
        }
    }
}

/// The cost of one migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// End-to-end duration: transfer plus VM start.
    pub duration: SimDuration,
    /// Total energy in Joules (transfer overhead plus VM start).
    pub energy_j: f64,
    /// Bytes moved over the network.
    pub bytes_moved: u64,
}

impl MigrationCostModel {
    /// Cost of migrating `app`'s VM (questions 5, 6, 8 of §3).
    pub fn cost_of(&self, app: &Application) -> MigrationCost {
        let bytes = (app.vm_image_gib * self.dirty_page_factor * 1024.0 * 1024.0 * 1024.0) as u64;
        let transfer_s = (bytes as f64 * 8.0) / (self.link_gbps * 1e9);
        let duration = SimDuration::from_secs_f64(transfer_s + self.vm_start_latency_s);
        let energy_j = self.transfer_overhead_w * transfer_s + self.vm_start_energy_j;
        MigrationCost {
            duration,
            energy_j,
            bytes_moved: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_workload::application::AppId;

    fn app(image_gib: f64) -> Application {
        Application::new(AppId(1), 0.2, 0.01, image_gib)
    }

    #[test]
    fn cost_scales_with_image_size() {
        let m = MigrationCostModel::default();
        let small = m.cost_of(&app(1.0));
        let large = m.cost_of(&app(16.0));
        assert!(large.duration > small.duration);
        assert!(large.energy_j > small.energy_j);
        assert_eq!(large.bytes_moved, 16 * small.bytes_moved);
    }

    #[test]
    fn ten_gig_link_moves_4gib_in_about_4_seconds() {
        let m = MigrationCostModel {
            dirty_page_factor: 1.0,
            ..Default::default()
        };
        let c = m.cost_of(&app(4.0));
        // 4 GiB × 8 bits / 10 Gb/s ≈ 3.44 s + 2 s VM start.
        let secs = c.duration.as_secs_f64();
        assert!((secs - 5.44).abs() < 0.1, "duration {secs}");
    }

    #[test]
    fn dirty_pages_inflate_transfer() {
        let clean = MigrationCostModel {
            dirty_page_factor: 1.0,
            ..Default::default()
        };
        let dirty = MigrationCostModel {
            dirty_page_factor: 1.5,
            ..Default::default()
        };
        assert!(dirty.cost_of(&app(4.0)).bytes_moved > clean.cost_of(&app(4.0)).bytes_moved);
    }

    #[test]
    fn faster_link_is_cheaper_and_quicker() {
        let slow = MigrationCostModel {
            link_gbps: 1.0,
            ..Default::default()
        };
        let fast = MigrationCostModel {
            link_gbps: 40.0,
            ..Default::default()
        };
        let a = app(8.0);
        assert!(fast.cost_of(&a).duration < slow.cost_of(&a).duration);
        assert!(fast.cost_of(&a).energy_j < slow.cost_of(&a).energy_j);
    }

    #[test]
    fn vm_start_is_a_floor() {
        let m = MigrationCostModel::default();
        let c = m.cost_of(&app(0.001));
        assert!(c.energy_j >= m.vm_start_energy_j);
        assert!(c.duration.as_secs_f64() >= m.vm_start_latency_s);
    }
}
