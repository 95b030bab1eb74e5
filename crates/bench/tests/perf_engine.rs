//! Experiment E1: perf smoke tests of the simulation substrate — event
//! queue, engine dispatch, PRNG, regime classification, power evaluation,
//! statistics, and migration-cost computation. Formerly a Criterion
//! bench; now gated behind `--ignored` (run with `cargo test -p
//! ecolb-bench --release -- --ignored`).
//!
//! `perf_engine_dispatch` times three cells of the pending-event set and
//! emits their cost per event as `BENCH_engine.json`, with no wall-clock
//! gate:
//!
//! ```text
//! cargo test -p ecolb-bench --release -- --ignored perf_engine
//! ```

use ecolb_bench::perf::{emit, time, time_min};
use ecolb_bench::DEFAULT_SEED;
use ecolb_cluster::migration::MigrationCostModel;
use ecolb_energy::power::{LinearPowerModel, PiecewisePowerModel, PowerModel};
use ecolb_energy::regimes::RegimeBoundaries;
use ecolb_metrics::report::Report;
use ecolb_metrics::summary::OnlineStats;
use ecolb_simcore::engine::{Control, Engine, Scheduler};
use ecolb_simcore::event::EventQueue;
use ecolb_simcore::rng::Rng;
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_workload::application::{AppId, Application};
use std::hint::black_box;

const ITERS: u32 = 20;
/// Events of the bulk cell: all scheduled, then all popped.
const BULK: u64 = 10_000;
/// Pending population of the classic hold cell.
const HOLD_DEPTH: u64 = 1_000;
/// Pop-and-reschedule operations per hold iteration.
const HOLD_OPS: u64 = 10_000;
/// `serve_p2c`'s arrival sources (one per initial application) and
/// servers.
const SERVE_SOURCES: usize = 3_326;
const SERVE_SERVERS: usize = 1_000;
/// Mean gap of each source and mean service time, in seconds: every
/// server runs at utilisation 0.36, which keeps about 600 completions
/// pending beside the 3 326 arrivals, 3 920 in all (`serve_p2c` holds
/// ~3 900).
const SERVE_GAP_S: f64 = 2.3;
const SERVE_SERVICE_S: f64 = 0.25;
/// Dispatches per serve-shaped iteration.
const SERVE_EVENTS: u64 = 200_000;

/// All events scheduled at random instants, then all popped.
fn bulk_push_pop_s() -> f64 {
    let mut rng = Rng::new(1);
    let (sum, min_s) = time_min("event_queue/push_pop_10k", ITERS, || {
        let mut q = EventQueue::with_capacity(BULK as usize);
        for i in 0..BULK {
            q.schedule(SimTime::from_ticks(rng.next_u64() % 1_000_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        black_box(sum)
    });
    black_box(sum);
    min_s
}

/// Classic "hold model": a steady population of 1 k pending events, each
/// operation pops the earliest and reschedules it a random offset into
/// the future.
fn hold_s() -> f64 {
    let mut rng = Rng::new(7);
    let mut q = EventQueue::with_capacity(HOLD_DEPTH as usize);
    for i in 0..HOLD_DEPTH {
        q.schedule(SimTime::from_ticks(rng.uniform_u64(1_000_000)), i);
    }
    let (sum, min_s) = time_min("event_queue/hold_10k", ITERS, || {
        let mut sum = 0u64;
        for _ in 0..HOLD_OPS {
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
    min_s
}

enum ServeEv {
    Arrival,
    Completion,
}

/// The serve-shaped cell's state: pre-drawn gaps, service times and
/// server picks (so the timing holds no RNG), the per-server FIFO
/// horizon, and the pending population summed over dispatches.
#[derive(Clone)]
struct ServeHold {
    gaps: Vec<SimDuration>,
    services: Vec<SimDuration>,
    picks: Vec<usize>,
    free_at: Vec<SimTime>,
    cursor: usize,
    pending_sum: u64,
}

impl ServeHold {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut exp = |draws: usize, mean: f64| {
            (0..draws)
                .map(|_| SimDuration::from_secs_f64(-(1.0 - rng.next_f64()).ln() * mean))
                .collect::<Vec<_>>()
        };
        // Coprime table lengths, so no server sees one fixed cycle of
        // service times.
        let gaps = exp(4096, SERVE_GAP_S);
        let services = exp(4093, SERVE_SERVICE_S);
        let picks = (0..4091)
            .map(|_| rng.uniform_u64(SERVE_SERVERS as u64) as usize)
            .collect();
        ServeHold {
            gaps,
            services,
            picks,
            free_at: vec![SimTime::ZERO; SERVE_SERVERS],
            cursor: 0,
            pending_sum: 0,
        }
    }

    /// An arrival queues one request on a server, whose completion fires
    /// when the server's FIFO reaches it, and reschedules its source one
    /// exponential gap later; a completion ends there.
    fn dispatch(&mut self, sched: &mut Scheduler<'_, ServeEv>, event: ServeEv) -> Control {
        self.pending_sum += sched.pending() as u64;
        if let ServeEv::Arrival = event {
            let i = self.cursor;
            self.cursor += 1;
            let server = self.picks[i % self.picks.len()];
            let service = self.services[i % self.services.len()];
            let done = self.free_at[server].max(sched.now()) + service;
            self.free_at[server] = done;
            sched.schedule_at(done, ServeEv::Completion);
            sched.schedule_in(self.gaps[i % self.gaps.len()], ServeEv::Arrival);
        }
        Control::Continue
    }
}

/// `SERVE_SOURCES` exponential-gap sources over `SERVE_SERVERS` FIFO
/// servers, run through `Engine::run`: `serve_p2c`'s pending population
/// without its picking and accounting. Returns the fastest iteration's
/// seconds and the mean pending population per dispatch.
fn serve_hold_s() -> (f64, f64) {
    let fresh = ServeHold::new(DEFAULT_SEED);
    let (pending_mean, min_s) = time_min("engine/serve_hold_200k", ITERS, || {
        let mut state = fresh.clone();
        let mut engine =
            Engine::with_capacity(SERVE_SOURCES + SERVE_SERVERS).with_event_budget(SERVE_EVENTS);
        for i in 0..SERVE_SOURCES {
            engine.schedule_at(SimTime::ZERO + state.gaps[i], ServeEv::Arrival);
        }
        engine.run(&mut state, ServeHold::dispatch);
        state.pending_sum as f64 / engine.events_processed() as f64
    });
    (min_s, pending_mean)
}

#[test]
#[ignore = "perf smoke"]
fn perf_engine_dispatch() {
    let bulk_ns = bulk_push_pop_s() * 1e9 / BULK as f64;
    let hold_ns = hold_s() * 1e9 / HOLD_OPS as f64;
    let (serve_s, pending_mean) = serve_hold_s();
    let serve_ns = serve_s * 1e9 / SERVE_EVENTS as f64;
    println!(
        "perf engine: bulk {bulk_ns:.1} ns/event, hold 1k {hold_ns:.1} ns/op, \
         serve hold {serve_ns:.1} ns/dispatch at {pending_mean:.0} pending"
    );
    assert!(
        (3_500.0..4_300.0).contains(&pending_mean),
        "the serve-shaped cell holds {pending_mean:.0} pending events, not serve_p2c's ~3 900"
    );

    let mut report = Report::new("BENCH_engine", DEFAULT_SEED);
    report
        .scalar("bulk_push_pop_ns_per_event", bulk_ns)
        .scalar("bulk_events", BULK as f64)
        .scalar("hold_ns_per_op", hold_ns)
        .scalar("hold_pending", HOLD_DEPTH as f64)
        .scalar("serve_hold_ns_per_dispatch", serve_ns)
        .scalar("serve_hold_pending_mean", pending_mean)
        .scalar("serve_hold_sources", SERVE_SOURCES as f64)
        .scalar("serve_hold_servers", SERVE_SERVERS as f64)
        .scalar("iters", f64::from(ITERS));
    emit(&report).expect("emit BENCH_engine.json");
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
