//! Admission control for new service requests.
//!
//! §3 of the paper: *"the admission control can restrict the acceptance of
//! additional load when the available capacity of the servers is low"*,
//! and §6: with strict admission control, *"new service requests for large
//! amounts of resources can be delayed until the system is able to turn on
//! a number of sleeping servers to satisfy the additional demand."*
//!
//! [`AdmissionController`] sits in front of the cluster: new
//! [`ServiceRequest`]s are queued, and each reallocation interval the
//! controller tries to place them on awake servers with headroom below
//! their `α^{opt,h}`. What happens to the unplaceable ones is the
//! [`AdmissionPolicy`]:
//!
//! * [`AdmissionPolicy::AlwaysAdmit`] — force-place on the least-loaded
//!   awake server even if that overloads it (the elastic-cloud promise,
//!   paid for in regime violations);
//! * [`AdmissionPolicy::CapacityThreshold`] — reject outright when the
//!   cluster load exceeds a threshold, otherwise delay;
//! * [`AdmissionPolicy::DelayAndWake`] — delay and order sleeping servers
//!   awake to create the missing capacity (the §6 behaviour).

use crate::balance::cluster_load_fraction;
use crate::leader::Leader;
use crate::server::{Server, ServerId};
use ecolb_energy::sleep::SleepModel;
use ecolb_simcore::time::SimTime;
use ecolb_workload::application::Application;
use ecolb_workload::generator::AppIdAllocator;
use std::collections::VecDeque;

/// A new service request: an application looking for a home.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceRequest {
    /// CPU demand, fraction of one server's capacity.
    pub demand: f64,
    /// Maximum per-interval demand growth once admitted.
    pub lambda: f64,
    /// VM image size in GiB.
    pub image_gib: f64,
}

/// What to do with requests the cluster cannot place right now.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AdmissionPolicy {
    /// Admit everything; unplaceable requests land on the least-loaded
    /// awake server even if that pushes it out of its optimal band.
    #[default]
    AlwaysAdmit,
    /// Reject new work when the cluster load exceeds `max_load`; delay
    /// (re-queue) below it.
    CapacityThreshold {
        /// Cluster-load fraction above which requests are rejected.
        max_load: f64,
    },
    /// Delay unplaceable requests and wake sleeping servers to create
    /// capacity (§6).
    DelayAndWake {
        /// Maximum wake orders issued per interval.
        wakes_per_interval: usize,
    },
}

/// Lifetime admission statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests placed on a server.
    pub admitted: u64,
    /// Requests rejected permanently.
    pub rejected: u64,
    /// Wake orders issued on behalf of queued requests.
    pub wakes_triggered: u64,
}

impl AdmissionStats {
    /// Requests currently neither admitted nor rejected.
    pub fn pending(&self) -> u64 {
        self.submitted - self.admitted - self.rejected
    }

    /// Fraction of resolved requests that were admitted; 1.0 when nothing
    /// has resolved yet.
    pub fn admit_fraction(&self) -> f64 {
        let resolved = self.admitted + self.rejected;
        if resolved == 0 {
            1.0
        } else {
            self.admitted as f64 / resolved as f64
        }
    }
}

/// A stochastic stream of new service requests: each reallocation
/// interval `Poisson(mean_per_interval)` requests arrive with demands
/// uniform in `[demand_lo, demand_hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSpec {
    /// Mean new requests per reallocation interval.
    pub mean_per_interval: f64,
    /// Smallest request demand.
    pub demand_lo: f64,
    /// Largest request demand.
    pub demand_hi: f64,
}

impl ArrivalSpec {
    /// Creates a spec, validating the demand band.
    pub fn new(mean_per_interval: f64, demand_lo: f64, demand_hi: f64) -> Self {
        assert!(
            mean_per_interval >= 0.0,
            "arrival rate must be non-negative"
        );
        assert!(
            0.0 < demand_lo && demand_lo <= demand_hi && demand_hi <= 1.0,
            "demand band ({demand_lo}, {demand_hi}] invalid"
        );
        ArrivalSpec {
            mean_per_interval,
            demand_lo,
            demand_hi,
        }
    }
}

/// The queue + policy in front of the cluster.
#[derive(Debug, Clone, Default)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    queue: VecDeque<ServiceRequest>,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// Creates a controller with the given policy.
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionController {
            policy,
            queue: VecDeque::new(),
            stats: AdmissionStats::default(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Requests waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a new request; placement happens at the next
    /// [`AdmissionController::process`] call.
    pub fn submit(&mut self, request: ServiceRequest) {
        assert!(
            request.demand > 0.0 && request.demand <= 1.0,
            "demand outside (0, 1]"
        );
        self.stats.submitted += 1;
        self.queue.push_back(request);
    }

    /// Tries to place every queued request, applying the policy to the
    /// unplaceable ones. Returns the number admitted this call.
    pub fn process(
        &mut self,
        servers: &mut [Server],
        leader: &mut Leader,
        ids: &mut AppIdAllocator,
        sleep_model: &SleepModel,
        now: SimTime,
    ) -> u64 {
        let mut admitted = 0u64;
        let mut wakes_left = match self.policy {
            AdmissionPolicy::DelayAndWake { wakes_per_interval } => wakes_per_interval,
            _ => 0,
        };
        let mut still_queued = VecDeque::new();

        while let Some(req) = self.queue.pop_front() {
            // Preferred placement: the fullest awake server that still has
            // headroom below α^{opt,h} (consolidation-friendly best fit).
            let target = servers
                .iter()
                .filter(|s| s.is_awake() && s.load() + req.demand <= s.boundaries().opt_high)
                .max_by(|a, b| a.load().total_cmp(&b.load()))
                .map(Server::id);

            match target {
                Some(id) => {
                    place(servers, id, &req, ids);
                    admitted += 1;
                }
                None => match self.policy {
                    AdmissionPolicy::AlwaysAdmit => {
                        // Least-loaded awake server takes it regardless.
                        let fallback = servers
                            .iter()
                            .filter(|s| s.is_awake())
                            .min_by(|a, b| a.load().total_cmp(&b.load()))
                            .map(Server::id);
                        match fallback {
                            Some(id) => {
                                place(servers, id, &req, ids);
                                admitted += 1;
                            }
                            None => {
                                // Whole cluster asleep: nothing can host
                                // anything; delay rather than lose work.
                                still_queued.push_back(req);
                            }
                        }
                    }
                    AdmissionPolicy::CapacityThreshold { max_load } => {
                        if cluster_load_fraction(servers) > max_load {
                            self.stats.rejected += 1;
                        } else {
                            still_queued.push_back(req);
                        }
                    }
                    AdmissionPolicy::DelayAndWake { .. } => {
                        if wakes_left > 0 {
                            if let Some(&sleeper) = leader.find_sleepers(servers).first() {
                                leader.issue_wake_order(sleeper);
                                servers[sleeper.index()].begin_wake(now, sleep_model);
                                self.stats.wakes_triggered += 1;
                                wakes_left -= 1;
                            }
                        }
                        still_queued.push_back(req);
                    }
                },
            }
        }
        self.queue = still_queued;
        self.stats.admitted += admitted;
        admitted
    }
}

fn place(servers: &mut [Server], id: ServerId, req: &ServiceRequest, ids: &mut AppIdAllocator) {
    let app = Application::new(ids.alloc(), req.demand, req.lambda, req.image_gib);
    servers[id.index()].place_app(app);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecolb_energy::power::LinearPowerModel;
    use ecolb_energy::regimes::RegimeBoundaries;
    use ecolb_energy::sleep::CState;
    use ecolb_workload::application::{AppId, Application};

    fn mk_server(id: u32, load: f64) -> Server {
        let mut s = Server::new(
            ServerId(id),
            RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8),
            LinearPowerModel::typical_volume_server(),
            SimTime::ZERO,
        );
        if load > 0.0 {
            s.place_app(Application::new(AppId(1000 + id as u64), load, 0.01, 4.0));
        }
        s
    }

    fn req(demand: f64) -> ServiceRequest {
        ServiceRequest {
            demand,
            lambda: 0.01,
            image_gib: 4.0,
        }
    }

    fn process(ctl: &mut AdmissionController, servers: &mut [Server], leader: &mut Leader) -> u64 {
        let mut ids = AppIdAllocator::new();
        ctl.process(
            servers,
            leader,
            &mut ids,
            &SleepModel::default(),
            SimTime::ZERO,
        )
    }

    #[test]
    fn places_on_fullest_fitting_server() {
        let mut servers = vec![mk_server(0, 0.2), mk_server(1, 0.5), mk_server(2, 0.65)];
        let mut leader = Leader::new(3);
        let mut ctl = AdmissionController::new(AdmissionPolicy::AlwaysAdmit);
        ctl.submit(req(0.1));
        let n = process(&mut ctl, &mut servers, &mut leader);
        assert_eq!(n, 1);
        // 0.65 + 0.1 > 0.7 → fullest *fitting* is server 1.
        assert!((servers[1].load() - 0.6).abs() < 1e-9);
        assert_eq!(ctl.stats().admitted, 1);
        assert_eq!(ctl.queue_len(), 0);
    }

    #[test]
    fn always_admit_overloads_rather_than_refuse() {
        let mut servers = vec![mk_server(0, 0.68), mk_server(1, 0.69)];
        let mut leader = Leader::new(2);
        let mut ctl = AdmissionController::new(AdmissionPolicy::AlwaysAdmit);
        ctl.submit(req(0.2)); // fits nobody's optimal band
        let n = process(&mut ctl, &mut servers, &mut leader);
        assert_eq!(n, 1);
        // Least loaded (server 0) took it and left its band.
        assert!((servers[0].load() - 0.88).abs() < 1e-9);
    }

    #[test]
    fn threshold_rejects_when_cluster_hot() {
        let mut servers = vec![mk_server(0, 0.69), mk_server(1, 0.69)];
        let mut leader = Leader::new(2);
        let mut ctl =
            AdmissionController::new(AdmissionPolicy::CapacityThreshold { max_load: 0.6 });
        ctl.submit(req(0.2));
        let n = process(&mut ctl, &mut servers, &mut leader);
        assert_eq!(n, 0);
        assert_eq!(ctl.stats().rejected, 1);
        assert_eq!(ctl.queue_len(), 0);
        assert_eq!(ctl.stats().admit_fraction(), 0.0);
    }

    #[test]
    fn threshold_delays_when_cluster_cool() {
        // Both servers nearly at their band edge but the cluster is cool:
        // the request waits instead of being dropped.
        let mut servers = vec![mk_server(0, 0.65), mk_server(1, 0.1)];
        let mut leader = Leader::new(2);
        let mut ctl =
            AdmissionController::new(AdmissionPolicy::CapacityThreshold { max_load: 0.6 });
        ctl.submit(req(0.68)); // too big for anyone's headroom
        let n = process(&mut ctl, &mut servers, &mut leader);
        assert_eq!(n, 0);
        assert_eq!(ctl.stats().rejected, 0);
        assert_eq!(ctl.queue_len(), 1, "delayed, not dropped");
        assert_eq!(ctl.stats().pending(), 1);
    }

    #[test]
    fn delay_and_wake_orders_a_sleeper() {
        let sleep_model = SleepModel::default();
        let mut servers = vec![mk_server(0, 0.69), mk_server(1, 0.0)];
        servers[1].enter_sleep(SimTime::ZERO, CState::C3, &sleep_model);
        let mut leader = Leader::new(2);
        let mut ctl = AdmissionController::new(AdmissionPolicy::DelayAndWake {
            wakes_per_interval: 1,
        });
        ctl.submit(req(0.3));
        let n = process(&mut ctl, &mut servers, &mut leader);
        assert_eq!(n, 0, "not placeable yet");
        assert_eq!(ctl.stats().wakes_triggered, 1);
        assert!(servers[1].wake_ready_at().is_some(), "wake in flight");
        assert_eq!(ctl.queue_len(), 1);

        // Once the wake completes, the retry succeeds.
        let ready = servers[1].wake_ready_at().unwrap();
        servers[1].complete_wake(ready);
        let n = process(&mut ctl, &mut servers, &mut leader);
        assert_eq!(n, 1);
        assert_eq!(ctl.queue_len(), 0);
        assert!((servers[1].load() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn wake_budget_is_respected() {
        let sleep_model = SleepModel::default();
        let mut servers = vec![
            mk_server(0, 0.69),
            mk_server(1, 0.0),
            mk_server(2, 0.0),
            mk_server(3, 0.0),
        ];
        for s in &mut servers[1..] {
            s.enter_sleep(SimTime::ZERO, CState::C3, &sleep_model);
        }
        let mut leader = Leader::new(4);
        let mut ctl = AdmissionController::new(AdmissionPolicy::DelayAndWake {
            wakes_per_interval: 2,
        });
        for _ in 0..5 {
            ctl.submit(req(0.3));
        }
        process(&mut ctl, &mut servers, &mut leader);
        assert_eq!(ctl.stats().wakes_triggered, 2, "budget caps wakes");
    }

    #[test]
    fn queue_drains_over_multiple_rounds() {
        let mut servers = vec![mk_server(0, 0.4)];
        let mut leader = Leader::new(1);
        let mut ctl =
            AdmissionController::new(AdmissionPolicy::CapacityThreshold { max_load: 0.9 });
        ctl.submit(req(0.25)); // fits (0.4 + 0.25 < 0.7)
        ctl.submit(req(0.25)); // won't fit after the first lands (0.65+0.25)
        let n = process(&mut ctl, &mut servers, &mut leader);
        assert_eq!(n, 1);
        assert_eq!(ctl.queue_len(), 1);
        // Free capacity (app shrinks / departs) and retry.
        let taken: Vec<_> = servers[0].drain_apps();
        assert!(!taken.is_empty());
        let n = process(&mut ctl, &mut servers, &mut leader);
        assert_eq!(n, 1);
        assert_eq!(ctl.stats().pending(), 0);
    }

    #[test]
    #[should_panic(expected = "demand")]
    fn rejects_invalid_demand() {
        AdmissionController::new(AdmissionPolicy::AlwaysAdmit).submit(req(0.0));
    }
}
