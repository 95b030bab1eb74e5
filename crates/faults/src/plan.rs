//! Fault plans: *what* goes wrong, *when*, drawn from keyed RNG streams.
//!
//! A [`FaultPlan`] is a pure description — nothing happens until the plan
//! is handed to a [`FaultyClusterSim`](crate::sim::FaultyClusterSim). Two
//! ingredient kinds compose a plan:
//!
//! * **Scheduled events** ([`FaultEvent`]): server crashes (crash-stop or
//!   crash-recover) and leader crashes pinned to simulated instants.
//! * **Stochastic link/transition faults**: per-report message loss,
//!   per-migration message delay on the star topology, and sleep→wake
//!   transition failures, each governed by a probability and drawn from
//!   an independent RNG stream keyed by `(seed, fault kind, server id)`.
//!
//! The keying is the determinism contract: enabling one fault family, or
//! touching one server's stream, never perturbs the draws of any other
//! family or server, so experiments stay byte-identical under replay and
//! comparable across plans that share a seed.

pub use ecolb_cluster::recovery::FaultEventKind;
use ecolb_cluster::server::ServerId;
use ecolb_metrics::json::{ObjectWriter, ToJson};
use ecolb_simcore::rng::{splitmix64, Rng};
use ecolb_simcore::time::{SimDuration, SimTime};

/// Families of injectable faults. Each family owns a disjoint RNG stream
/// tag so adding a family never perturbs the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A host stops executing (crash-stop or crash-recover).
    ServerCrash,
    /// A previously crashed host reboots.
    ServerRecover,
    /// The host carrying the leader role crashes.
    LeaderCrash,
    /// A `StateReport` message is lost on its star link.
    MessageLoss,
    /// A migration transfer is delayed on its star link.
    MessageDelay,
    /// A sleep→C0 transition fails and leaves the server asleep.
    WakeFailure,
}

impl FaultKind {
    /// Stream-domain separator mixed into [`fault_stream`] seeds.
    pub fn stream_tag(self) -> u64 {
        match self {
            FaultKind::ServerCrash => 0x5EC0_0001,
            FaultKind::ServerRecover => 0x5EC0_0002,
            FaultKind::LeaderCrash => 0x5EC0_0003,
            FaultKind::MessageLoss => 0x5EC0_0004,
            FaultKind::MessageDelay => 0x5EC0_0005,
            FaultKind::WakeFailure => 0x5EC0_0006,
        }
    }
}

/// Derives the independent RNG stream for `(seed, kind, server)`.
///
/// Each component is folded through SplitMix64 before seeding the
/// xoshiro generator, so adjacent seeds / tags / server ids land in
/// unrelated stream states.
pub fn fault_stream(seed: u64, kind: FaultKind, server: ServerId) -> Rng {
    let mut state = seed;
    let a = splitmix64(&mut state);
    state ^= kind.stream_tag();
    let b = splitmix64(&mut state);
    state ^= server.0 as u64;
    let c = splitmix64(&mut state);
    Rng::new(a ^ b.rotate_left(21) ^ c.rotate_left(42))
}

/// A scheduled fault: a [`FaultEventKind`] pinned to a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What it does.
    pub kind: FaultEventKind,
}

/// A complete, deterministic fault schedule for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every stochastic stream in the plan (keyed per
    /// [`FaultKind`] and per server via [`fault_stream`]).
    pub seed: u64,
    /// Scheduled crash / recover events, sorted by fire time.
    pub events: Vec<FaultEvent>,
    /// Per-attempt probability that a `StateReport` is lost on its link.
    pub message_loss_prob: f64,
    /// Per-transfer probability that a migration arrival is delayed.
    pub message_delay_prob: f64,
    /// Upper bound of the uniform extra delay added to a delayed transfer.
    pub max_message_delay: SimDuration,
    /// Per-order probability that a sleep→C0 wake transition fails.
    pub wake_failure_prob: f64,
}

impl FaultPlan {
    /// A plan that injects nothing. Running it must be byte-identical to
    /// running without the fault layer at all.
    pub fn empty(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
            message_loss_prob: 0.0,
            message_delay_prob: 0.0,
            max_message_delay: SimDuration::ZERO,
            wake_failure_prob: 0.0,
        }
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.message_loss_prob <= 0.0
            && self.message_delay_prob <= 0.0
            && self.wake_failure_prob <= 0.0
    }

    /// Schedules a crash of `server` at `at` (builder style).
    pub fn with_server_crash(
        mut self,
        at: SimTime,
        server: ServerId,
        recover_after: Option<SimDuration>,
    ) -> Self {
        self.push_event(FaultEvent {
            at,
            kind: FaultEventKind::ServerCrash {
                server,
                recover_after,
            },
        });
        self
    }

    /// Schedules a crash of the *current leader host* at `at`.
    pub fn with_leader_crash(mut self, at: SimTime, recover_after: Option<SimDuration>) -> Self {
        self.push_event(FaultEvent {
            at,
            kind: FaultEventKind::LeaderCrash { recover_after },
        });
        self
    }

    /// Enables per-report message loss with probability `p` (builder).
    pub fn with_message_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of [0,1]");
        self.message_loss_prob = p;
        self
    }

    /// Enables per-transfer message delay: with probability `p` a
    /// migration arrival is postponed by a uniform draw in
    /// `[0, max_delay)` (builder). A re-delivered arrival faces the same
    /// lossy link again (geometric repetition), so `p` must be strictly
    /// below 1 — at `p = 1` a transfer would never complete.
    pub fn with_message_delay(mut self, p: f64, max_delay: SimDuration) -> Self {
        assert!((0.0..1.0).contains(&p), "delay probability out of [0,1)");
        self.message_delay_prob = p;
        self.max_message_delay = max_delay;
        self
    }

    /// Enables wake-transition failures with probability `p` (builder).
    pub fn with_wake_failures(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "wake probability out of [0,1]");
        self.wake_failure_prob = p;
        self
    }

    fn push_event(&mut self, ev: FaultEvent) {
        self.events.push(ev);
        // Stable sort keeps same-instant events in insertion order.
        self.events.sort_by_key(|e| e.at);
    }
}

impl ToJson for FaultEvent {
    fn write_json(&self, out: &mut String) {
        let w = ObjectWriter::new(out)
            .field("at_us", &self.at.ticks())
            .field("kind", &self.kind.name());
        match self.kind {
            FaultEventKind::ServerCrash {
                server,
                recover_after,
            } => w
                .field("server", &server.0)
                .field("recover_after_us", &recover_after.map(|d| d.ticks())),
            FaultEventKind::ServerRecover { server } => w.field("server", &server.0),
            FaultEventKind::LeaderCrash { recover_after } => {
                w.field("recover_after_us", &recover_after.map(|d| d.ticks()))
            }
        }
        .finish();
    }
}

/// Plans serialize to a deterministic JSON document — the chaos layer's
/// reproducer artifacts embed exactly this shape and replay it from the
/// embedded seed.
impl ToJson for FaultPlan {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("seed", &self.seed)
            .field("message_loss_prob", &self.message_loss_prob)
            .field("message_delay_prob", &self.message_delay_prob)
            .field("max_message_delay_us", &self.max_message_delay.ticks())
            .field("wake_failure_prob", &self.wake_failure_prob)
            .field("events", &self.events)
            .finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let p = FaultPlan::empty(42);
        assert!(p.is_empty());
        assert!(!p.clone().with_message_loss(0.01).is_empty());
        assert!(!p
            .clone()
            .with_leader_crash(SimTime::from_secs(10), None)
            .is_empty());
    }

    #[test]
    fn streams_are_keyed_and_independent() {
        let a = fault_stream(1, FaultKind::MessageLoss, ServerId(0));
        // Same key → same stream.
        assert_eq!(a, fault_stream(1, FaultKind::MessageLoss, ServerId(0)));
        // Any differing component → different stream.
        assert_ne!(a, fault_stream(2, FaultKind::MessageLoss, ServerId(0)));
        assert_ne!(a, fault_stream(1, FaultKind::MessageDelay, ServerId(0)));
        assert_ne!(a, fault_stream(1, FaultKind::MessageLoss, ServerId(1)));
    }

    #[test]
    fn events_stay_sorted_by_fire_time() {
        let p = FaultPlan::empty(7)
            .with_server_crash(SimTime::from_secs(50), ServerId(3), None)
            .with_leader_crash(SimTime::from_secs(10), None)
            .with_server_crash(SimTime::from_secs(90), ServerId(5), None);
        let times: Vec<u64> = p.events.iter().map(|e| e.at.ticks()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn plans_serialize_to_stable_json() {
        let p = FaultPlan::empty(20140109)
            .with_server_crash(
                SimTime::from_secs(600),
                ServerId(7),
                Some(SimDuration::from_secs(300)),
            )
            .with_leader_crash(SimTime::from_secs(1200), None)
            .with_message_loss(0.05);
        assert_eq!(
            p.to_json(),
            r#"{"seed":20140109,"message_loss_prob":0.05,"message_delay_prob":0,"max_message_delay_us":0,"wake_failure_prob":0,"events":[{"at_us":600000000,"kind":"server_crash","server":7,"recover_after_us":300000000},{"at_us":1200000000,"kind":"leader_crash","recover_after_us":null}]}"#
        );
    }

    #[test]
    fn stream_tags_are_distinct() {
        let kinds = [
            FaultKind::ServerCrash,
            FaultKind::ServerRecover,
            FaultKind::LeaderCrash,
            FaultKind::MessageLoss,
            FaultKind::MessageDelay,
            FaultKind::WakeFailure,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.stream_tag(), b.stream_tag());
            }
        }
    }
}
