//! Heterogeneous server populations.
//!
//! §3 of the paper: *"In a heterogeneous environment the normalized system
//! performance and the normalized energy consumption differ from server to
//! server."* Boundaries already differ per server (sampled from the §4
//! uniform ranges); [`ServerMix`] adds the second axis — per-server
//! **power models** drawn from the Koomey classes of Table 1 (volume,
//! mid-range, high-end) at a configurable year.
//!
//! Normalized capacity stays 1.0 per server (the paper's model works in
//! normalized-performance units); what the class changes is how many
//! Watts a unit of normalized load costs.

use ecolb_energy::power::LinearPowerModel;
use ecolb_energy::server_class::{class_power_model, ServerClass};
use ecolb_simcore::rng::Rng;

/// Fractions of each server class in a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerMix {
    /// Fraction of volume servers.
    pub volume: f64,
    /// Fraction of mid-range servers.
    pub mid_range: f64,
    /// Fraction of high-end servers (the fractions must sum to 1).
    pub high_end: f64,
    /// Koomey-table year parameterising the class power models.
    pub year: u32,
}

impl ServerMix {
    /// All volume servers (the paper's implicit default).
    pub fn all_volume() -> Self {
        ServerMix {
            volume: 1.0,
            mid_range: 0.0,
            high_end: 0.0,
            year: 2006,
        }
    }

    /// A typical enterprise mix: mostly volume, some mid-range, a few
    /// high-end machines.
    pub fn typical_enterprise() -> Self {
        ServerMix {
            volume: 0.80,
            mid_range: 0.17,
            high_end: 0.03,
            year: 2006,
        }
    }

    /// Validates that the fractions form a distribution.
    pub fn validate(&self) {
        let sum = self.volume + self.mid_range + self.high_end;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "server mix fractions must sum to 1, got {sum}"
        );
        assert!(
            self.volume >= 0.0 && self.mid_range >= 0.0 && self.high_end >= 0.0,
            "fractions must be non-negative"
        );
    }

    /// Samples a class according to the mix.
    pub fn sample(&self, rng: &mut Rng) -> ServerClass {
        let x = rng.next_f64();
        if x < self.volume {
            ServerClass::Volume
        } else if x < self.volume + self.mid_range {
            ServerClass::MidRange
        } else {
            ServerClass::HighEnd
        }
    }

    /// The linear power model of a class under this mix's year.
    pub fn power_spec(&self, class: ServerClass) -> LinearPowerModel {
        class_power_model(class, self.year)
    }
}

impl Default for ServerMix {
    fn default() -> Self {
        Self::all_volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_energy::power::PowerModel;

    #[test]
    fn all_volume_samples_only_volume() {
        let mix = ServerMix::all_volume();
        mix.validate();
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), ServerClass::Volume);
        }
    }

    #[test]
    fn enterprise_mix_matches_fractions() {
        let mix = ServerMix::typical_enterprise();
        mix.validate();
        let mut rng = Rng::new(2);
        let n = 100_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            match mix.sample(&mut rng) {
                ServerClass::Volume => counts[0] += 1,
                ServerClass::MidRange => counts[1] += 1,
                ServerClass::HighEnd => counts[2] += 1,
            }
        }
        assert!((counts[0] as f64 / n as f64 - 0.80).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.17).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.03).abs() < 0.01);
    }

    #[test]
    fn class_power_ordering_holds() {
        let mix = ServerMix::typical_enterprise();
        let vol = mix.power_spec(ServerClass::Volume).peak_power_w();
        let mid = mix.power_spec(ServerClass::MidRange).peak_power_w();
        let high = mix.power_spec(ServerClass::HighEnd).peak_power_w();
        assert!(vol < mid && mid < high, "{vol} < {mid} < {high}");
    }

    #[test]
    fn year_scales_the_models() {
        let old = ServerMix {
            year: 2000,
            ..ServerMix::all_volume()
        };
        let new = ServerMix {
            year: 2006,
            ..ServerMix::all_volume()
        };
        assert!(
            old.power_spec(ServerClass::Volume).peak_power_w()
                < new.power_spec(ServerClass::Volume).peak_power_w(),
            "power grew over the Table 1 years"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn validate_rejects_bad_fractions() {
        ServerMix {
            volume: 0.5,
            mid_range: 0.2,
            high_end: 0.1,
            year: 2006,
        }
        .validate();
    }
}
