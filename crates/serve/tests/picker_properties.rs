//! `proptest_lite` properties for the pickers (ISSUE 8 satellite):
//!
//! 1. round-robin fairness: over any window with a stable awake set,
//!    the max–min gap of per-instance pick counts is ≤ 1;
//! 2. power-of-two-choices never picks a sleeping instance;
//! 3. every picker is deterministic under instance-set reordering —
//!    the pick is a function of the *set*, not the discovery order;
//! 4. the indexed `LeastLoaded` and `RegimeAware` pickers return exactly
//!    what a linear argmin scan returns, over random operation sequences
//!    that stress the index's cache invalidation.

use ecolb_cluster::instances::InstanceInfo;
use ecolb_cluster::server::ServerId;
use ecolb_energy::regimes::OperatingRegime;
use ecolb_serve::picker::{regime_penalty_ticks, Picker, PickerKind, PowerOfTwo, RoundRobin};
use ecolb_serve::queue::{QueueModel, QueueView};
use ecolb_serve::InstanceSet;
use ecolb_simcore::proptest_lite::{check, Gen};
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_workload::requests::RequestId;

fn regime_of(idx: usize) -> OperatingRegime {
    OperatingRegime::ALL[idx % 5]
}

/// Draws a random instance population: ids are a shuffled subset, each
/// instance awake with probability ~0.7, random regimes and loads.
fn gen_instances(gen: &mut Gen) -> Vec<InstanceInfo> {
    let n = gen.usize_in(1, 12);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let awake = gen.f64_in(0.0, 1.0) < 0.7;
        out.push(InstanceInfo {
            id: ServerId(i as u32),
            awake,
            regime: regime_of(gen.usize_in(0, 5)),
            load: gen.f64_in(0.0, 1.0),
            vms: gen.usize_in(0, 6),
        });
    }
    out
}

/// A queue model with random backlogs for the instance count.
fn gen_queues(gen: &mut Gen, n: usize) -> QueueModel {
    let mut q = QueueModel::new(n);
    for i in 0..n {
        let backlog_ms = gen.u64_in(0, 5_000);
        if backlog_ms > 0 {
            q.enqueue(
                SimTime::ZERO,
                ServerId(i as u32),
                SimDuration::from_millis(backlog_ms),
            );
        }
    }
    q
}

#[test]
fn round_robin_fairness_gap_at_most_one() {
    check("round_robin_fairness", |gen| {
        let instances = gen_instances(gen);
        let set = InstanceSet::from_instances(instances);
        if set.awake_len() == 0 {
            return;
        }
        let q = QueueModel::new(set.len());
        let view = q.view(SimTime::ZERO);
        let mut rr = RoundRobin::new();
        let window = gen.usize_in(1, 64);
        let mut counts = vec![0u64; set.len()];
        for r in 0..window {
            let id = rr
                .pick(&set, &view, RequestId(r as u64))
                .expect("awake set is non-empty");
            counts[id.index()] += 1;
        }
        // Fairness over the awake instances only.
        let awake_counts: Vec<u64> = set
            .awake_indices()
            .iter()
            .map(|&i| counts[set.instances()[i].id.index()])
            .collect();
        let max = awake_counts.iter().copied().max().unwrap_or(0);
        let min = awake_counts.iter().copied().min().unwrap_or(0);
        assert!(
            max - min <= 1,
            "round-robin gap {max}-{min} over window {window} with {} awake",
            set.awake_len()
        );
        // And nothing lands on a non-awake instance.
        for (i, inst) in set.instances().iter().enumerate() {
            if !inst.awake {
                assert_eq!(counts[set.instances()[i].id.index()], 0);
            }
        }
    });
}

#[test]
fn power_of_two_never_picks_a_sleeping_instance() {
    check("p2c_awake_only", |gen| {
        let instances = gen_instances(gen);
        let set = InstanceSet::from_instances(instances);
        let queues = gen_queues(gen, set.len());
        let view = queues.view(SimTime::ZERO);
        let seed = gen.u64();
        let mut p2c = PowerOfTwo::new(seed);
        for r in 0..128u64 {
            match p2c.pick(&set, &view, RequestId(r)) {
                None => assert_eq!(set.awake_len(), 0, "None only when nothing is awake"),
                Some(id) => {
                    let inst = set
                        .instances()
                        .iter()
                        .find(|i| i.id == id)
                        .expect("picked id exists");
                    assert!(inst.awake, "picked sleeping server {id:?}");
                }
            }
        }
    });
}

#[test]
fn pickers_are_deterministic_under_instance_reordering() {
    check("picker_reorder_determinism", |gen| {
        let instances = gen_instances(gen);
        let mut shuffled = instances.clone();
        gen.rng().shuffle(&mut shuffled);
        let a = InstanceSet::from_instances(instances);
        let b = InstanceSet::from_instances(shuffled);
        assert_eq!(a, b, "canonicalization must erase discovery order");

        let queues = gen_queues(gen, a.len());
        let view = queues.view(SimTime::ZERO);
        let seed = gen.u64();
        for kind in PickerKind::all() {
            let mut pa = kind.build(seed);
            let mut pb = kind.build(seed);
            for r in 0..32u64 {
                assert_eq!(
                    pa.pick(&a, &view, RequestId(r)),
                    pb.pick(&b, &view, RequestId(r)),
                    "{} diverged under reordering on request {r}",
                    kind.label()
                );
            }
        }
    });
}

#[test]
fn least_loaded_and_regime_aware_route_awake_only() {
    check("scored_pickers_awake_only", |gen| {
        let instances = gen_instances(gen);
        let set = InstanceSet::from_instances(instances);
        let queues = gen_queues(gen, set.len());
        let view = queues.view(SimTime::ZERO);
        for kind in [PickerKind::LeastLoaded, PickerKind::RegimeAware] {
            let mut p = kind.build(1);
            for r in 0..16u64 {
                if let Some(id) = p.pick(&set, &view, RequestId(r)) {
                    let inst = set
                        .instances()
                        .iter()
                        .find(|i| i.id == id)
                        .expect("picked id exists");
                    assert!(inst.awake, "{} picked sleeping {id:?}", kind.label());
                }
            }
        }
    });
}

/// The reference the indexed pickers must match: a linear scan for the
/// minimum `(backlog + penalty, id)` over the awake instances.
fn scan_argmin(
    set: &InstanceSet,
    view: &QueueView<'_>,
    penalty: fn(OperatingRegime) -> u64,
) -> Option<ServerId> {
    set.awake_indices()
        .iter()
        .filter_map(|&i| set.get(i))
        .map(|inst| {
            let key = view
                .backlog_ticks(inst.id)
                .saturating_add(penalty(inst.regime));
            (key, inst.id)
        })
        .min()
        .map(|(_, id)| id)
}

/// A coarse tick grid (multiples of 50 ms) so that equal keys — within a
/// bucket and across penalty buckets — come up often.
fn coarse_ticks(gen: &mut Gen, max_steps: u64) -> SimDuration {
    SimDuration::from_ticks(gen.u64_in(0, max_steps) * 50_000)
}

#[test]
fn indexed_pickers_match_a_linear_scan() {
    check("indexed_picker_vs_scan", |gen| {
        let n = gen.usize_in(1, 40);
        let population = |gen: &mut Gen| -> Vec<InstanceInfo> {
            (0..n)
                .map(|i| InstanceInfo {
                    id: ServerId(i as u32),
                    awake: gen.f64_in(0.0, 1.0) < 0.8,
                    regime: regime_of(gen.usize_in(0, 5)),
                    load: 0.5,
                    vms: 1,
                })
                .collect()
        };
        let full = population(gen);
        // The breaker-filtered view of the same population.
        let filtered: Vec<InstanceInfo> = full
            .iter()
            .filter(|_| gen.f64_in(0.0, 1.0) < 0.7)
            .copied()
            .collect();
        for (kind, penalty) in [
            (
                PickerKind::LeastLoaded,
                (|_| 0) as fn(OperatingRegime) -> u64,
            ),
            (PickerKind::RegimeAware, regime_penalty_ticks),
        ] {
            let mut sets = [
                InstanceSet::from_instances(full.clone()),
                InstanceSet::from_instances(filtered.clone()),
            ];
            let mut models = [QueueModel::new(n), QueueModel::new(n)];
            let (mut set_at, mut model_at) = (0usize, 0usize);
            let mut now = SimTime::ZERO;
            let mut picker = kind.build(1);
            for step in 0..gen.usize_in(1, 200) {
                match gen.usize_in(0, 17) {
                    // Pick at a non-decreasing instant, then enqueue on
                    // the chosen server — the serve path.
                    0..=8 => {
                        now += coarse_ticks(gen, 4);
                        let view = models[model_at].view(now);
                        let set = &sets[set_at];
                        let got = picker.pick(set, &view, RequestId(step as u64));
                        let want = scan_argmin(set, &view, penalty);
                        assert_eq!(got, want, "{} step {step} at {now:?}", kind.label());
                        if let Some(server) = got {
                            let work = coarse_ticks(gen, 6) + SimDuration::from_ticks(1);
                            models[model_at].enqueue(now, server, work);
                        }
                    }
                    // An enqueue on an arbitrary server (a hedge twin).
                    9 | 10 => {
                        let server = ServerId(gen.usize_in(0, n) as u32);
                        models[model_at].enqueue(now, server, coarse_ticks(gen, 8));
                    }
                    // A crash destroys a server's queue.
                    11 => models[model_at].reset(ServerId(gen.usize_in(0, n) as u32)),
                    // Breakers open or close: the other set is routed.
                    12 => set_at = 1 - set_at,
                    // A discovery refresh rebuilds the routed set.
                    13 => sets[set_at] = InstanceSet::from_instances(population(gen)),
                    // Fork the model and diverge on the copy.
                    14 => {
                        models[1 - model_at] = models[model_at].clone();
                        model_at = 1 - model_at;
                    }
                    // Route on the other model again.
                    15 => model_at = 1 - model_at,
                    // A fresh model against the same set.
                    _ => models[model_at] = QueueModel::new(n),
                }
            }
        }
    });
}

#[test]
fn indexed_pickers_survive_switching_back_to_an_unchanged_model() {
    // A picker that routed on a diverged clone must not carry the
    // clone's (higher) horizons back to the original model.
    let set = InstanceSet::from_instances(
        (0..3)
            .map(|i| InstanceInfo {
                id: ServerId(i),
                awake: true,
                regime: OperatingRegime::Optimal,
                load: 0.5,
                vms: 1,
            })
            .collect(),
    );
    let original = QueueModel::new(3);
    let mut fork = original.clone();
    fork.enqueue(SimTime::ZERO, ServerId(0), SimDuration::from_secs(1));
    for kind in [PickerKind::LeastLoaded, PickerKind::RegimeAware] {
        let mut p = kind.build(1);
        let on_fork = p.pick(&set, &fork.view(SimTime::ZERO), RequestId(0));
        assert_eq!(on_fork, Some(ServerId(1)), "{}", kind.label());
        let back = p.pick(&set, &original.view(SimTime::ZERO), RequestId(1));
        assert_eq!(back, Some(ServerId(0)), "{}", kind.label());
    }
}
