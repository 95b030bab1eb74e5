//! The cluster leader.
//!
//! In the paper's clustered organisation every server reports its regime to
//! a **leader** over a star topology; the leader answers assistance
//! requests by searching its directory for suitable partners (§4). The
//! leader never moves load itself — servers *"negotiate directly with the
//! potential partners"* — it only brokers candidates and issues wake
//! orders.

use crate::messages::MessageStats;
use crate::server::{Server, ServerId};
use ecolb_energy::regimes::{OperatingRegime, RegimeCensus};

/// A directory entry: the last state a server reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectoryEntry {
    /// Reported operating regime.
    pub regime: OperatingRegime,
    /// Reported normalized load.
    pub load: f64,
    /// Whether the server reported itself asleep.
    pub sleeping: bool,
}

/// The cluster leader: regime directory + partner search + message
/// accounting.
///
/// Partner searches are on the per-candidate hot path of the balancing
/// round, so the leader keeps two occupancy counters (awake underloaded /
/// awake overloaded entries) in sync with the directory. When a counter is
/// zero the search answers in O(1) instead of scanning the whole
/// directory — at low cluster load "no donors anywhere" is the common
/// case, which used to cost O(n) per drain candidate.
///
/// Otherwise each search answers from a cached sorted list of *every*
/// matching entry, so a reply is a copy minus the requester rather than
/// a scan and a sort. Migrations do not touch the directory, so between
/// two directory mutations the lists are fixed; every mutation
/// (`receive_report`, `issue_wake_order`, `mark_offline`,
/// `reset_directory`) drops both caches.
#[derive(Debug, Clone)]
pub struct Leader {
    directory: Vec<Option<DirectoryEntry>>,
    /// Messages of the protocol, counted by kind.
    pub(crate) stats: MessageStats,
    /// Count of directory entries with `!sleeping && regime.is_underloaded()`.
    underloaded_awake: u32,
    /// Count of directory entries with `!sleeping && regime.is_overloaded()`.
    overloaded_awake: u32,
    /// Reusable sort buffer for the partner searches.
    scratch: Vec<(ServerId, OperatingRegime, f64)>,
    /// Every receiver in [`Leader::find_receivers`] order, or `None` when
    /// the directory changed since it was sorted.
    receivers: Option<Vec<ServerId>>,
    /// Every donor in [`Leader::find_donors`] order; same validity rule.
    donors: Option<Vec<ServerId>>,
}

/// This entry's contribution to the (underloaded, overloaded) occupancy
/// counters.
fn occupancy(e: &DirectoryEntry) -> (u32, u32) {
    if e.sleeping {
        (0, 0)
    } else {
        (
            u32::from(e.regime.is_underloaded()),
            u32::from(e.regime.is_overloaded()),
        )
    }
}

/// Ids of every awake directory entry whose regime satisfies `keep`,
/// sorted by `order` over `(id, regime, load)`.
fn sorted_partners(
    directory: &[Option<DirectoryEntry>],
    scratch: &mut Vec<(ServerId, OperatingRegime, f64)>,
    keep: fn(OperatingRegime) -> bool,
    order: impl FnMut(
        &(ServerId, OperatingRegime, f64),
        &(ServerId, OperatingRegime, f64),
    ) -> std::cmp::Ordering,
) -> Vec<ServerId> {
    scratch.clear();
    scratch.extend(directory.iter().enumerate().filter_map(|(i, e)| {
        let e = (*e)?;
        (!e.sleeping && keep(e.regime)).then_some((ServerId(i as u32), e.regime, e.load))
    }));
    scratch.sort_by(order);
    scratch.iter().map(|&(id, _, _)| id).collect()
}

impl Leader {
    /// Creates a leader for a cluster of `n` servers.
    pub fn new(n: usize) -> Self {
        Leader {
            directory: vec![None; n],
            stats: MessageStats::default(),
            underloaded_awake: 0,
            overloaded_awake: 0,
            scratch: Vec::new(),
            receivers: None,
            donors: None,
        }
    }

    /// Drops the cached partner lists; every directory mutation calls it.
    fn invalidate_partner_lists(&mut self) {
        self.receivers = None;
        self.donors = None;
    }

    /// Ingests a regime report (paper: "the leader is informed
    /// periodically about the regime of each server of the cluster").
    pub fn receive_report(
        &mut self,
        from: ServerId,
        regime: OperatingRegime,
        load: f64,
        sleeping: bool,
    ) {
        self.stats.regime_reports += 1;
        self.invalidate_partner_lists();
        let entry = DirectoryEntry {
            regime,
            load,
            sleeping,
        };
        let slot = &mut self.directory[from.index()];
        if let Some(old) = slot {
            let (u, o) = occupancy(old);
            self.underloaded_awake -= u;
            self.overloaded_awake -= o;
        }
        let (u, o) = occupancy(&entry);
        self.underloaded_awake += u;
        self.overloaded_awake += o;
        *slot = Some(entry);
    }

    /// Refreshes the whole directory from live server state — the
    /// per-interval reporting sweep.
    pub fn full_report_sweep(&mut self, servers: &[Server]) {
        for s in servers {
            self.receive_report(s.id(), s.regime(), s.load(), s.is_sleeping());
        }
    }

    /// The last-reported directory entry for a server.
    pub fn entry(&self, id: ServerId) -> Option<DirectoryEntry> {
        self.directory[id.index()]
    }

    /// Census of awake servers by regime, from the directory.
    pub fn census(&self) -> RegimeCensus {
        let mut census = RegimeCensus::new();
        for e in self.directory.iter().flatten() {
            if !e.sleeping {
                census.record(e.regime);
            }
        }
        census
    }

    /// Searches for **receivers**: awake servers reported in R1 or R2,
    /// excluding `requester`. Sorted by *descending* load — filling the
    /// fullest underloaded server first concentrates the workload, which is
    /// the paper's consolidation objective. Accounts the partner-list
    /// message.
    pub fn find_receivers(&mut self, requester: ServerId) -> Vec<ServerId> {
        let mut out = Vec::new();
        self.find_receivers_into(requester, &mut out);
        out
    }

    /// [`Leader::find_receivers`], writing the ids into a caller-owned
    /// buffer so hot loops can reuse the allocation. `out` is cleared
    /// first.
    pub fn find_receivers_into(&mut self, requester: ServerId, out: &mut Vec<ServerId>) {
        out.clear();
        // The reply — possibly an empty list — always counts as one
        // partner-list message.
        self.stats.partner_lists += 1;
        if self.underloaded_awake == 0 {
            return;
        }
        let cached = self.receivers.get_or_insert_with(|| {
            sorted_partners(
                &self.directory,
                &mut self.scratch,
                OperatingRegime::is_underloaded,
                // total_cmp keeps the broker panic-free even if a load ever
                // went NaN; ordering for finite loads is identical to
                // partial_cmp.
                |a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)),
            )
        });
        out.extend(cached.iter().copied().filter(|&id| id != requester));
    }

    /// Searches for **donors**: awake servers reported in R4 or R5,
    /// excluding `requester`. R5 (urgent) first, then by descending load.
    pub fn find_donors(&mut self, requester: ServerId) -> Vec<ServerId> {
        let mut out = Vec::new();
        self.find_donors_into(requester, &mut out);
        out
    }

    /// [`Leader::find_donors`], writing the ids into a caller-owned buffer
    /// so hot loops can reuse the allocation. `out` is cleared first.
    pub fn find_donors_into(&mut self, requester: ServerId, out: &mut Vec<ServerId>) {
        out.clear();
        self.stats.partner_lists += 1;
        if self.overloaded_awake == 0 {
            return;
        }
        let cached = self.donors.get_or_insert_with(|| {
            sorted_partners(
                &self.directory,
                &mut self.scratch,
                OperatingRegime::is_overloaded,
                |a, b| {
                    b.1.index()
                        .cmp(&a.1.index())
                        .then(b.2.total_cmp(&a.2))
                        .then(a.0.cmp(&b.0))
                },
            )
        });
        out.extend(cached.iter().copied().filter(|&id| id != requester));
    }

    /// Sleeping servers eligible for a wake order (§4 action 5), shallowest
    /// sleep first — C3 servers wake far faster and cheaper than C6.
    pub fn find_sleepers(&self, servers: &[Server]) -> Vec<ServerId> {
        let mut out: Vec<(ServerId, u8)> = servers
            .iter()
            .filter(|s| s.is_sleeping() && s.wake_ready_at().is_none() && !s.is_crashed())
            .map(|s| (s.id(), s.cstate().depth()))
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        out.into_iter().map(|(id, _)| id).collect()
    }

    /// Issues (and accounts) a wake order.
    pub fn issue_wake_order(&mut self, to: ServerId) {
        self.stats.wake_orders += 1;
        self.invalidate_partner_lists();
        if let Some(e) = &mut self.directory[to.index()] {
            let (u, o) = occupancy(e);
            self.underloaded_awake -= u;
            self.overloaded_awake -= o;
            e.sleeping = false; // optimistic: the server is now waking
            let (u, o) = occupancy(e);
            self.underloaded_awake += u;
            self.overloaded_awake += o;
        }
    }

    /// Drops a server from the directory — called when the host is known
    /// to have crashed, so the broker stops offering it as a partner until
    /// it reports again after recovery.
    pub fn mark_offline(&mut self, id: ServerId) {
        self.invalidate_partner_lists();
        if let Some(e) = self.directory[id.index()].take() {
            let (u, o) = occupancy(&e);
            self.underloaded_awake -= u;
            self.overloaded_awake -= o;
        }
    }

    /// Forgets every directory entry while keeping message statistics.
    /// A freshly elected leader starts from an empty directory and must
    /// rebuild it with a [`Leader::full_report_sweep`].
    pub fn reset_directory(&mut self) {
        self.invalidate_partner_lists();
        for e in &mut self.directory {
            *e = None;
        }
        self.underloaded_awake = 0;
        self.overloaded_awake = 0;
    }

    /// Records an assistance request from a server.
    pub fn receive_assistance_request(&mut self) {
        self.stats.assistance_requests += 1;
    }

    /// Cluster-wide message statistics.
    pub fn stats(&self) -> MessageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerPowerSpec;
    use ecolb_energy::regimes::RegimeBoundaries;
    use ecolb_energy::sleep::{CState, SleepModel};
    use ecolb_simcore::time::SimTime;
    use ecolb_workload::application::{AppId, Application};

    fn mk_server(id: u32, load: f64) -> Server {
        let mut s = Server::new(
            ServerId(id),
            RegimeBoundaries::new(0.2, 0.3, 0.7, 0.8),
            ServerPowerSpec::default(),
            SimTime::ZERO,
        );
        if load > 0.0 {
            s.place_app(Application::new(AppId(id as u64), load, 0.01, 4.0));
        }
        s
    }

    #[test]
    fn report_sweep_builds_census() {
        let servers = vec![mk_server(0, 0.1), mk_server(1, 0.5), mk_server(2, 0.95)];
        let mut leader = Leader::new(3);
        leader.full_report_sweep(&servers);
        let census = leader.census();
        assert_eq!(census.count(OperatingRegime::UndesirableLow), 1);
        assert_eq!(census.count(OperatingRegime::Optimal), 1);
        assert_eq!(census.count(OperatingRegime::UndesirableHigh), 1);
        assert_eq!(leader.stats().regime_reports, 3);
    }

    #[test]
    fn receivers_are_underloaded_and_sorted_fullest_first() {
        let servers = vec![
            mk_server(0, 0.05),
            mk_server(1, 0.25),
            mk_server(2, 0.5),
            mk_server(3, 0.22),
        ];
        let mut leader = Leader::new(4);
        leader.full_report_sweep(&servers);
        let rx = leader.find_receivers(ServerId(2));
        // 0.25 (R2) then 0.22 (R2) then 0.05 (R1); the optimal server 2 is
        // the requester and excluded anyway.
        assert_eq!(rx, vec![ServerId(1), ServerId(3), ServerId(0)]);
        assert_eq!(leader.stats().partner_lists, 1);
    }

    #[test]
    fn requester_never_appears_in_its_own_list() {
        let servers = vec![mk_server(0, 0.1), mk_server(1, 0.1)];
        let mut leader = Leader::new(2);
        leader.full_report_sweep(&servers);
        let rx = leader.find_receivers(ServerId(0));
        assert_eq!(rx, vec![ServerId(1)]);
    }

    #[test]
    fn donors_put_r5_before_r4() {
        let servers = vec![mk_server(0, 0.75), mk_server(1, 0.9), mk_server(2, 0.78)];
        let mut leader = Leader::new(3);
        leader.full_report_sweep(&servers);
        let dn = leader.find_donors(ServerId(2));
        // Server 1 is R5; server 0 is R4. Requester 2 excluded.
        assert_eq!(dn, vec![ServerId(1), ServerId(0)]);
    }

    #[test]
    fn sleeping_servers_are_invisible_to_search() {
        let sm = SleepModel::default();
        let mut servers = vec![mk_server(0, 0.0), mk_server(1, 0.25)];
        servers[0].enter_sleep(SimTime::ZERO, CState::C6, &sm);
        let mut leader = Leader::new(2);
        leader.full_report_sweep(&servers);
        let rx = leader.find_receivers(ServerId(1));
        assert!(
            rx.is_empty(),
            "sleeping server must not be offered as receiver"
        );
        assert_eq!(
            leader.census().total(),
            1,
            "census counts awake servers only"
        );
    }

    #[test]
    fn find_sleepers_orders_shallow_first() {
        let sm = SleepModel::default();
        let mut servers = vec![mk_server(0, 0.0), mk_server(1, 0.0), mk_server(2, 0.5)];
        servers[0].enter_sleep(SimTime::ZERO, CState::C6, &sm);
        servers[1].enter_sleep(SimTime::ZERO, CState::C3, &sm);
        let leader = Leader::new(3);
        let sl = leader.find_sleepers(&servers);
        assert_eq!(sl, vec![ServerId(1), ServerId(0)], "C3 wakes before C6");
    }

    #[test]
    fn wake_order_updates_directory_and_stats() {
        let sm = SleepModel::default();
        let mut servers = vec![mk_server(0, 0.0)];
        servers[0].enter_sleep(SimTime::ZERO, CState::C3, &sm);
        let mut leader = Leader::new(1);
        leader.full_report_sweep(&servers);
        assert!(leader.entry(ServerId(0)).unwrap().sleeping);
        leader.issue_wake_order(ServerId(0));
        assert!(!leader.entry(ServerId(0)).unwrap().sleeping);
        assert_eq!(leader.stats().wake_orders, 1);
    }

    #[test]
    fn mark_offline_hides_server_until_next_report() {
        let servers = vec![mk_server(0, 0.25), mk_server(1, 0.5)];
        let mut leader = Leader::new(2);
        leader.full_report_sweep(&servers);
        leader.mark_offline(ServerId(0));
        assert!(leader.entry(ServerId(0)).is_none());
        assert!(
            leader.find_receivers(ServerId(1)).is_empty(),
            "crashed host must not be brokered as a partner"
        );
        leader.full_report_sweep(&servers);
        assert!(leader.entry(ServerId(0)).is_some());
    }

    #[test]
    fn reset_directory_clears_entries_but_keeps_stats() {
        let servers = vec![mk_server(0, 0.25), mk_server(1, 0.5)];
        let mut leader = Leader::new(2);
        leader.full_report_sweep(&servers);
        let reports_before = leader.stats().regime_reports;
        leader.reset_directory();
        assert!(leader.entry(ServerId(0)).is_none());
        assert!(leader.entry(ServerId(1)).is_none());
        assert_eq!(leader.census().total(), 0);
        assert_eq!(
            leader.stats().regime_reports,
            reports_before,
            "message accounting survives failover"
        );
    }

    #[test]
    fn crashed_servers_are_not_wake_candidates() {
        let sm = SleepModel::default();
        let mut servers = vec![mk_server(0, 0.0), mk_server(1, 0.0)];
        servers[0].enter_sleep(SimTime::ZERO, CState::C3, &sm);
        servers[1].crash(SimTime::ZERO);
        let leader = Leader::new(2);
        assert_eq!(
            leader.find_sleepers(&servers),
            vec![ServerId(0)],
            "a dead host cannot honour a wake order"
        );
    }

    /// The occupancy counters used for the O(1) "no partners" early exit
    /// must track every directory mutation path (report, wake order,
    /// offline, reset) — drift would make searches silently return empty.
    #[test]
    fn occupancy_counters_track_directory_mutations() {
        let sm = SleepModel::default();
        let mut servers = vec![
            mk_server(0, 0.1),
            mk_server(1, 0.9),
            mk_server(2, 0.25),
            mk_server(3, 0.0),
        ];
        servers[3].enter_sleep(SimTime::ZERO, CState::C3, &sm);
        let mut leader = Leader::new(4);
        leader.full_report_sweep(&servers);
        // Re-reporting the same server must not double count.
        leader.full_report_sweep(&servers);
        assert_eq!(
            leader.find_receivers(ServerId(1)),
            vec![ServerId(2), ServerId(0)]
        );
        assert_eq!(leader.find_donors(ServerId(0)), vec![ServerId(1)]);
        // Waking server 3 makes its (unloaded ⇒ R1) entry visible.
        leader.issue_wake_order(ServerId(3));
        assert_eq!(
            leader.find_receivers(ServerId(1)),
            vec![ServerId(2), ServerId(0), ServerId(3)]
        );
        // Knocking out the only donor must drop the search to empty (and
        // the empty reply still counts as a partner-list message).
        leader.mark_offline(ServerId(1));
        let lists_before = leader.stats().partner_lists;
        assert!(leader.find_donors(ServerId(0)).is_empty());
        assert_eq!(leader.stats().partner_lists, lists_before + 1);
        leader.reset_directory();
        assert!(leader.find_receivers(ServerId(1)).is_empty());
        assert!(leader.find_donors(ServerId(0)).is_empty());
        // A fresh sweep rebuilds counters from scratch.
        leader.full_report_sweep(&servers);
        assert_eq!(leader.find_donors(ServerId(0)), vec![ServerId(1)]);
    }

    #[test]
    fn assistance_requests_counted() {
        let mut leader = Leader::new(1);
        leader.receive_assistance_request();
        assert_eq!(leader.stats().assistance_requests, 1);
    }
}
