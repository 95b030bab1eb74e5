//! Interconnect power models (paper §2, "energy proportional networks").
//!
//! The paper notes that data-center channels *"commonly operate
//! plesiochronously and are always on, regardless of the load, because
//! they must still send idle packets to maintain byte and line
//! alignment"*, cites the flattened-butterfly argument of Abts et al. \[2\]
//! that such a topology is more energy- and cost-efficient than a folded
//! Clos, and names InfiniBand as an energy-proportional example.
//!
//! This module models three link disciplines (always-on, adaptive lanes,
//! fully proportional) and two topologies (three-level fat tree and
//! flattened butterfly), so the §2 comparison can be reproduced
//! quantitatively for a given cluster size and traffic level.

/// How a link's power responds to its utilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDiscipline {
    /// Plesiochronous, always on: full power regardless of load (the §2
    /// default).
    AlwaysOn,
    /// Adaptive lane width: power scales in discrete steps (quarter
    /// granularity) with utilization — the flattened-butterfly proposal.
    AdaptiveLanes,
    /// Ideal energy proportionality (InfiniBand-style aspiration).
    Proportional,
}

/// Power model of one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPower {
    /// Watts at full utilization.
    pub peak_w: f64,
    /// Floor (control/alignment) power as a fraction of peak that even
    /// adaptive schemes cannot shed.
    pub floor_fraction: f64,
    /// The discipline in force.
    pub discipline: LinkDiscipline,
}

impl LinkPower {
    /// A 10 Gbit/s short-reach link of the era.
    pub fn typical_10g(discipline: LinkDiscipline) -> Self {
        LinkPower {
            peak_w: 4.0,
            floor_fraction: 0.15,
            discipline,
        }
    }

    /// Power at utilization `u ∈ [0, 1]`.
    pub fn power_w(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self.discipline {
            LinkDiscipline::AlwaysOn => self.peak_w,
            LinkDiscipline::AdaptiveLanes => {
                // Lane width snaps up to the next quarter.
                let lanes = (u * 4.0).ceil().max(1.0) / 4.0;
                let floor = self.peak_w * self.floor_fraction;
                floor + (self.peak_w - floor) * lanes
            }
            LinkDiscipline::Proportional => {
                let floor = self.peak_w * self.floor_fraction;
                floor + (self.peak_w - floor) * u
            }
        }
    }
}

/// Network topology families compared in \[2\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Three-level folded-Clos (fat tree) built from `radix`-port
    /// switches.
    FatTree {
        /// Switch port count `k` (even).
        radix: usize,
    },
    /// Two-dimensional flattened butterfly with concentration.
    FlattenedButterfly {
        /// Switches per dimension.
        dim: usize,
        /// Hosts per switch.
        concentration: usize,
    },
}

impl Topology {
    /// Total switch count.
    pub fn switches(&self) -> usize {
        match *self {
            Topology::FatTree { radix } => 5 * radix * radix / 4,
            Topology::FlattenedButterfly { dim, .. } => dim * dim,
        }
    }

    /// Total inter-switch links (unidirectional counted once).
    pub fn links(&self) -> usize {
        match *self {
            // k-ary fat tree: k³/4 edge↔aggregation links plus k³/4
            // aggregation↔core links.
            Topology::FatTree { radix } => radix * radix * radix / 2,
            // Every switch connects to (dim-1) switches in each of the
            // two dimensions.
            Topology::FlattenedButterfly { dim, .. } => dim * dim * (dim - 1),
        }
    }

    /// Average hop count for uniform traffic (approximate; \[2\]).
    pub fn avg_hops(&self) -> f64 {
        match *self {
            Topology::FatTree { .. } => 5.0, // edge-agg-core-agg-edge between pods
            Topology::FlattenedButterfly { .. } => 2.0, // one hop per dimension
        }
    }

    /// Network power for a host count and mean link utilization.
    ///
    /// Per-switch base power plus per-link power under the discipline;
    /// traffic utilization is scaled by the topology's hop count (more
    /// hops = the same offered load crosses more links).
    pub fn power_w(&self, link: LinkPower, switch_base_w: f64, utilization: f64) -> f64 {
        let effective_u = (utilization * self.avg_hops() / 5.0).clamp(0.0, 1.0);
        self.switches() as f64 * switch_base_w + self.links() as f64 * link.power_w(effective_u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Topology {
        /// Hosts the topology supports.
        fn hosts(&self) -> usize {
            match *self {
                Topology::FatTree { radix } => radix * radix * radix / 4,
                Topology::FlattenedButterfly { dim, concentration } => dim * dim * concentration,
            }
        }
    }

    #[test]
    fn always_on_ignores_load() {
        let l = LinkPower::typical_10g(LinkDiscipline::AlwaysOn);
        assert_eq!(l.power_w(0.0), l.power_w(1.0));
        assert_eq!(l.power_w(0.5), 4.0);
    }

    #[test]
    fn proportional_scales_to_floor() {
        let l = LinkPower::typical_10g(LinkDiscipline::Proportional);
        assert!((l.power_w(0.0) - 0.6).abs() < 1e-12, "15% floor of 4 W");
        assert!((l.power_w(1.0) - 4.0).abs() < 1e-12);
        assert!(l.power_w(0.5) < l.power_w(0.9));
    }

    #[test]
    fn adaptive_lanes_step_in_quarters() {
        let l = LinkPower::typical_10g(LinkDiscipline::AdaptiveLanes);
        // Anything in (0, 0.25] uses one lane-quarter.
        assert_eq!(l.power_w(0.05), l.power_w(0.25));
        assert!(l.power_w(0.26) > l.power_w(0.25));
        assert_eq!(l.power_w(1.0), 4.0);
        // Always at least one quarter (alignment traffic).
        assert!(l.power_w(0.0) > 0.0);
    }

    #[test]
    fn discipline_ordering_at_low_load() {
        let u = 0.1;
        let on = LinkPower::typical_10g(LinkDiscipline::AlwaysOn).power_w(u);
        let lanes = LinkPower::typical_10g(LinkDiscipline::AdaptiveLanes).power_w(u);
        let prop = LinkPower::typical_10g(LinkDiscipline::Proportional).power_w(u);
        assert!(prop < lanes && lanes < on, "{prop} < {lanes} < {on}");
    }

    #[test]
    fn fat_tree_dimensions() {
        let t = Topology::FatTree { radix: 8 };
        assert_eq!(t.hosts(), 128);
        assert_eq!(t.switches(), 80);
        assert!(t.links() > 0);
    }

    #[test]
    fn butterfly_dimensions() {
        let t = Topology::FlattenedButterfly {
            dim: 4,
            concentration: 8,
        };
        assert_eq!(t.hosts(), 128);
        assert_eq!(t.switches(), 16);
        assert_eq!(t.links(), 48);
    }

    #[test]
    fn butterfly_beats_fat_tree_on_power_at_equal_hosts() {
        // The [2] claim: fewer switches and shorter paths make the
        // flattened butterfly cheaper for the same host count.
        let ft = Topology::FatTree { radix: 8 };
        let fb = Topology::FlattenedButterfly {
            dim: 4,
            concentration: 8,
        };
        assert_eq!(ft.hosts(), fb.hosts());
        let link = LinkPower::typical_10g(LinkDiscipline::AlwaysOn);
        assert!(
            fb.power_w(link, 30.0, 0.3) < ft.power_w(link, 30.0, 0.3),
            "butterfly {} vs fat tree {}",
            fb.power_w(link, 30.0, 0.3),
            ft.power_w(link, 30.0, 0.3)
        );
    }

    #[test]
    fn proportional_links_help_most_at_low_load() {
        let fb = Topology::FlattenedButterfly {
            dim: 4,
            concentration: 8,
        };
        let on = LinkPower::typical_10g(LinkDiscipline::AlwaysOn);
        let prop = LinkPower::typical_10g(LinkDiscipline::Proportional);
        let saving_low = fb.power_w(on, 30.0, 0.1) - fb.power_w(prop, 30.0, 0.1);
        let saving_high = fb.power_w(on, 30.0, 0.9) - fb.power_w(prop, 30.0, 0.9);
        assert!(saving_low > saving_high);
    }
}
