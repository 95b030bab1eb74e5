//! Experiment E1: perf smoke tests of the simulation substrate — event
//! queue, PRNG, regime classification, power evaluation, statistics, and
//! migration-cost computation. Formerly a Criterion bench; now gated
//! behind `--ignored` (run with `cargo test -p ecolb-bench --release --
//! --ignored`).

use ecolb_bench::perf::time;
use ecolb_cluster::migration::MigrationCostModel;
use ecolb_energy::power::{LinearPowerModel, PiecewisePowerModel, PowerModel};
use ecolb_energy::regimes::RegimeBoundaries;
use ecolb_metrics::summary::OnlineStats;
use ecolb_simcore::event::EventQueue;
use ecolb_simcore::rng::Rng;
use ecolb_simcore::time::SimTime;
use ecolb_workload::application::{AppId, Application};
use std::hint::black_box;

#[test]
#[ignore = "perf smoke"]
fn perf_event_queue_push_pop_10k() {
    let mut rng = Rng::new(1);
    let sum = time("event_queue/push_pop_10k", 20, || {
        let mut q = EventQueue::with_capacity(10_000);
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_ticks(rng.next_u64() % 1_000_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        black_box(sum)
    });
    black_box(sum);
}

/// Classic "hold model": steady-state population of 1 k pending events,
/// each operation pops the earliest and reschedules it a random offset
/// into the future — the shape `Engine::run` actually generates.
#[test]
#[ignore = "perf smoke"]
fn perf_event_queue_hold_10k() {
    let mut rng = Rng::new(7);
    let mut q = EventQueue::with_capacity(1_000);
    for i in 0..1_000u64 {
        q.schedule(SimTime::from_ticks(rng.uniform_u64(1_000_000)), i);
    }
    let sum = time("event_queue/hold_10k", 20, || {
        let mut sum = 0u64;
        for _ in 0..10_000 {
            let Some((t, v)) = q.pop() else { break };
            sum = sum.wrapping_add(v);
            q.schedule(
                SimTime::from_ticks(t.ticks() + 1 + rng.uniform_u64(2_000)),
                v,
            );
        }
        black_box(sum)
    });
    black_box(sum);
}

#[test]
#[ignore = "perf smoke"]
fn perf_rng_next_u64_1k() {
    let mut rng = Rng::new(2);
    let acc = time("rng/next_u64_1k", 100, || {
        let mut acc = 0u64;
        for _ in 0..1_000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        black_box(acc)
    });
    black_box(acc);
}

#[test]
#[ignore = "perf smoke"]
fn perf_regimes_classify_1k() {
    let bounds = RegimeBoundaries::typical();
    let acc = time("regimes/classify_1k", 100, || {
        let mut acc = 0usize;
        for i in 0..1_000 {
            acc += bounds.classify(i as f64 / 1_000.0).index();
        }
        black_box(acc)
    });
    assert!(acc > 0);
}

#[test]
#[ignore = "perf smoke"]
fn perf_power_models_1k() {
    let lin = LinearPowerModel::typical_volume_server();
    let acc = time("power/linear_1k", 100, || {
        let mut acc = 0.0;
        for i in 0..1_000 {
            acc += lin.power_w(i as f64 / 1_000.0);
        }
        black_box(acc)
    });
    assert!(acc > 0.0);
    let pw = PiecewisePowerModel::typical_specpower();
    let acc = time("power/piecewise_1k", 100, || {
        let mut acc = 0.0;
        for i in 0..1_000 {
            acc += pw.power_w(i as f64 / 1_000.0);
        }
        black_box(acc)
    });
    assert!(acc > 0.0);
}

#[test]
#[ignore = "perf smoke"]
fn perf_stats_welford_push_1k() {
    let var = time("stats/welford_push_1k", 100, || {
        let mut s = OnlineStats::new();
        for i in 0..1_000 {
            s.push(i as f64 * 0.31);
        }
        black_box(s.variance())
    });
    assert!(var > 0.0);
}

#[test]
#[ignore = "perf smoke"]
fn perf_migration_cost_of() {
    let m = MigrationCostModel::default();
    let app = Application::new(AppId(1), 0.2, 0.01, 8.0);
    let cost = time("migration/cost_of", 100, || {
        black_box(m.cost_of(black_box(&app)))
    });
    assert!(cost.energy_j > 0.0);
}
