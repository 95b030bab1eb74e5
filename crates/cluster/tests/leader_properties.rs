//! Property tests for the leader's partner selection.
//!
//! The broker must be a *pure function of directory state*: which donors
//! and receivers it proposes may depend only on what each server last
//! reported, never on the order the reports arrived in, and ties must
//! break deterministically (by server id). These are the invariants the
//! failure-recovery protocol leans on — after a failover the directory is
//! rebuilt from a fresh report sweep whose arrival order differs from the
//! original, and the new leader must still make the same decisions.
//!
//! The leader answers from cached sorted lists, so the last property runs
//! random mutation sequences and checks every reply against a fresh scan.

use ecolb_cluster::leader::Leader;
use ecolb_cluster::server::ServerId;
use ecolb_energy::regimes::OperatingRegime;
use ecolb_simcore::proptest_lite::{check, Gen};

const REGIMES: [OperatingRegime; 5] = [
    OperatingRegime::UndesirableLow,
    OperatingRegime::SuboptimalLow,
    OperatingRegime::Optimal,
    OperatingRegime::SuboptimalHigh,
    OperatingRegime::UndesirableHigh,
];

/// One server's latest report.
#[derive(Debug, Clone, Copy)]
struct ReportLine {
    from: ServerId,
    regime: OperatingRegime,
    load: f64,
    sleeping: bool,
}

fn random_reports(g: &mut Gen) -> Vec<ReportLine> {
    let n = g.usize_in(2, 40);
    (0..n)
        .map(|i| ReportLine {
            from: ServerId(i as u32),
            regime: REGIMES[g.usize_in(0, REGIMES.len())],
            load: g.f64_in(0.0, 1.0),
            sleeping: g.rng().chance(0.25),
        })
        .collect()
}

fn leader_after(reports: &[ReportLine], order: &[usize]) -> Leader {
    let mut leader = Leader::new(reports.len());
    for &i in order {
        let r = reports[i];
        leader.receive_report(r.from, r.regime, r.load, r.sleeping);
    }
    leader
}

#[test]
fn selection_is_independent_of_report_arrival_order() {
    check("selection_order_independent", |g| {
        let reports = random_reports(g);
        let requester = ServerId(g.usize_in(0, reports.len()) as u32);

        let in_order: Vec<usize> = (0..reports.len()).collect();
        let mut shuffled = in_order.clone();
        g.rng().shuffle(&mut shuffled);

        let mut a = leader_after(&reports, &in_order);
        let mut b = leader_after(&reports, &shuffled);

        assert_eq!(
            a.find_donors(requester),
            b.find_donors(requester),
            "donor list depends on arrival order"
        );
        assert_eq!(
            a.find_receivers(requester),
            b.find_receivers(requester),
            "receiver list depends on arrival order"
        );
    });
}

#[test]
fn selection_is_stable_under_repeated_queries() {
    check("selection_idempotent", |g| {
        let reports = random_reports(g);
        let requester = ServerId(0);
        let order: Vec<usize> = (0..reports.len()).collect();
        let mut leader = leader_after(&reports, &order);
        // Querying mutates only message stats, never the answer.
        let donors = leader.find_donors(requester);
        let receivers = leader.find_receivers(requester);
        for _ in 0..3 {
            assert_eq!(leader.find_donors(requester), donors);
            assert_eq!(leader.find_receivers(requester), receivers);
        }
    });
}

#[test]
fn selected_partners_satisfy_the_regime_contract() {
    check("selection_regime_contract", |g| {
        let reports = random_reports(g);
        let requester = ServerId(g.usize_in(0, reports.len()) as u32);
        let order: Vec<usize> = (0..reports.len()).collect();
        let mut leader = leader_after(&reports, &order);

        for id in leader.find_donors(requester) {
            let r = reports[id.index()];
            assert_ne!(id, requester, "requester offered as its own donor");
            assert!(!r.sleeping, "sleeping server {id:?} offered as donor");
            assert!(r.regime.is_overloaded(), "donor {id:?} not overloaded");
        }
        for id in leader.find_receivers(requester) {
            let r = reports[id.index()];
            assert_ne!(id, requester, "requester offered as its own receiver");
            assert!(!r.sleeping, "sleeping server {id:?} offered as receiver");
            assert!(r.regime.is_underloaded(), "receiver {id:?} not underloaded");
        }
    });
}

#[test]
fn equal_load_ties_break_by_ascending_server_id() {
    check("selection_tie_break", |g| {
        // Every eligible server reports the *same* regime and load, so the
        // only possible order is the deterministic id tie-break.
        let n = g.usize_in(3, 30);
        let load = g.f64_in(0.8, 1.0);
        let mut leader = Leader::new(n);
        for i in 0..n {
            leader.receive_report(
                ServerId(i as u32),
                OperatingRegime::SuboptimalHigh,
                load,
                false,
            );
        }
        let donors = leader.find_donors(ServerId(0));
        let ids: Vec<u32> = donors.iter().map(|s| s.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "equal-key donors must come in id order");
        assert_eq!(donors.len(), n - 1);
    });
}

#[test]
fn rebuilt_directory_reproduces_the_original_selection() {
    check("selection_survives_directory_rebuild", |g| {
        // The failover path: wipe the directory, replay the same state in
        // a different order (a fresh report sweep), same answers.
        let reports = random_reports(g);
        let requester = ServerId(1 % reports.len() as u32);
        let order: Vec<usize> = (0..reports.len()).collect();
        let mut original = leader_after(&reports, &order);
        let donors = original.find_donors(requester);
        let receivers = original.find_receivers(requester);

        let mut rebuilt = leader_after(&reports, &order);
        rebuilt.reset_directory();
        let mut sweep: Vec<usize> = (0..reports.len()).collect();
        g.rng().shuffle(&mut sweep);
        for &i in &sweep {
            let r = reports[i];
            rebuilt.receive_report(r.from, r.regime, r.load, r.sleeping);
        }
        assert_eq!(rebuilt.find_donors(requester), donors);
        assert_eq!(rebuilt.find_receivers(requester), receivers);
    });
}

/// What the directory should hold, kept beside a [`Leader`] so every
/// reply can be checked against a fresh scan and sort.
#[derive(Debug, Clone)]
struct Oracle {
    entries: Vec<Option<ReportLine>>,
    replies: u64,
}

impl Oracle {
    fn scan(&self, requester: ServerId, keep: fn(OperatingRegime) -> bool) -> Vec<ReportLine> {
        self.entries
            .iter()
            .flatten()
            .copied()
            .filter(|r| r.from != requester && !r.sleeping && keep(r.regime))
            .collect()
    }

    fn receivers(&self, requester: ServerId) -> Vec<ServerId> {
        let mut hits = self.scan(requester, OperatingRegime::is_underloaded);
        hits.sort_by(|a, b| b.load.total_cmp(&a.load).then(a.from.cmp(&b.from)));
        hits.iter().map(|r| r.from).collect()
    }

    fn donors(&self, requester: ServerId) -> Vec<ServerId> {
        let mut hits = self.scan(requester, OperatingRegime::is_overloaded);
        hits.sort_by(|a, b| {
            b.regime
                .index()
                .cmp(&a.regime.index())
                .then(b.load.total_cmp(&a.load))
                .then(a.from.cmp(&b.from))
        });
        hits.iter().map(|r| r.from).collect()
    }
}

/// Applies one random directory mutation or query to `leader` and its
/// oracle, checking every reply and the partner-list count.
fn random_step(g: &mut Gen, leader: &mut Leader, oracle: &mut Oracle) {
    // A few distinct loads make equal-key ties common.
    const LOADS: [f64; 4] = [0.1, 0.25, 0.5, 0.9];
    let n = oracle.entries.len();
    let id = ServerId(g.usize_in(0, n) as u32);
    match g.usize_in(0, 20) {
        0..=5 => {
            let r = ReportLine {
                from: id,
                regime: REGIMES[g.usize_in(0, REGIMES.len())],
                load: if g.rng().chance(0.5) {
                    LOADS[g.usize_in(0, LOADS.len())]
                } else {
                    g.f64_in(0.0, 1.0)
                },
                sleeping: g.rng().chance(0.3),
            };
            leader.receive_report(r.from, r.regime, r.load, r.sleeping);
            oracle.entries[id.index()] = Some(r);
        }
        6..=7 => {
            leader.issue_wake_order(id);
            if let Some(r) = &mut oracle.entries[id.index()] {
                r.sleeping = false;
            }
        }
        8..=9 => {
            leader.mark_offline(id);
            oracle.entries[id.index()] = None;
        }
        10 => {
            leader.reset_directory();
            oracle.entries.iter_mut().for_each(|e| *e = None);
        }
        11..=15 => {
            oracle.replies += 1;
            assert_eq!(leader.find_receivers(id), oracle.receivers(id));
        }
        _ => {
            oracle.replies += 1;
            let mut out = vec![ServerId(u32::MAX)]; // the reply clears it
            leader.find_donors_into(id, &mut out);
            assert_eq!(out, oracle.donors(id));
        }
    }
    assert_eq!(leader.stats().partner_lists, oracle.replies);
}

#[test]
fn cached_replies_match_a_fresh_scan_across_mutations_and_clones() {
    check("partner_cache_vs_fresh_scan", |g| {
        let n = g.usize_in(2, 12);
        let mut leader = Leader::new(n);
        let mut oracle = Oracle {
            entries: vec![None; n],
            replies: 0,
        };
        for _ in 0..g.usize_in(0, 80) {
            random_step(g, &mut leader, &mut oracle);
        }
        // A clone carries the caches; it and the original then diverge.
        let mut fork = leader.clone();
        let mut fork_oracle = oracle.clone();
        for _ in 0..80 {
            random_step(g, &mut leader, &mut oracle);
            random_step(g, &mut fork, &mut fork_oracle);
        }
    });
}
