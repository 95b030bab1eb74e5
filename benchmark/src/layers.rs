//! The traced pass: the benchmark's own timers around the calls into each
//! layer, run beside the untraced runs and never inside them.
//!
//! The program's tracer is sealed, so no wall-clock timer can hang on its
//! spans. Instead each pass re-drives the layers through their public
//! APIs: it steps a `Cluster` one interval at a time, times a cloned
//! `Leader`, the instance snapshot and `ClusterDiscover::refresh` at every
//! boundary and, for the serve workloads, times picks, service draws and
//! enqueues against the real instance set, plus standalone loops for
//! arrival draws, latency recording and engine dispatch. Per-call costs
//! times the call counts in the untraced run's report attribute the run's
//! wall time to layers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ecolb_cluster::cluster::{Cluster, ClusterConfig, ClusterRunReport};
use ecolb_cluster::server::ServerId;
use ecolb_metrics::latency::LatencyRecorder;
use ecolb_serve::discover::{Change, ClusterDiscover, Discover, InstanceSet};
use ecolb_serve::picker::Picker;
use ecolb_serve::queue::QueueModel;
use ecolb_serve::sim::{ServeConfig, ServeEvent};
use ecolb_simcore::engine::{Control, Engine};
use ecolb_simcore::rng::Rng;
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_workload::requests::{service_time_s, RequestId};

use crate::stats::{median, percentile, Better::*};
use crate::workloads::Report;
use crate::{Metric, Spec};

/// Intervals counted as the consolidation transient.
const TRANSIENT_INTERVALS: usize = 10;
/// Requests timed at each boundary, at most.
const REQUESTS_PER_BOUNDARY: u64 = 20_000;
/// Calls per standalone loop (arrival draws, latency records).
const MICRO_CALLS: usize = 100_000;
/// Events dispatched by the engine hold-model loop.
const HOLD_EVENTS: u64 = 500_000;

/// Per-layer names, units and directions, in print order. Layers a
/// workload does not run report 0.
pub const PER_LAYER: [Spec; 39] = [
    ("cluster.interval_ms.p50", "ms", Lower),
    ("cluster.interval_ms.p75", "ms", Lower),
    ("cluster.interval_ms.max", "ms", Lower),
    ("cluster.transient_s", "s", Lower),
    ("cluster.steady_s", "s", Lower),
    ("cluster.instance_snapshot_us", "us", Lower),
    ("cluster.migrations", "count", Lower),
    ("cluster.deferred_frac", "frac", Lower),
    ("cluster.in_cluster_ratio", "ratio", Lower),
    ("cluster.attributed_s", "s", Lower),
    ("leader.report_sweep_us", "us", Lower),
    ("leader.find_receivers_us", "us", Lower),
    ("discover.refresh_us", "us", Lower),
    ("discover.changes_per_refresh", "count", Lower),
    ("discover.attributed_s", "s", Lower),
    ("picker.pick_ns", "ns", Lower),
    ("picker.awake", "count", Lower),
    ("picker.attributed_s", "s", Lower),
    ("queue.enqueue_ns", "ns", Lower),
    ("queue.attributed_s", "s", Lower),
    ("workload.service_draw_ns", "ns", Lower),
    ("workload.arrival_draw_ns", "ns", Lower),
    ("workload.attributed_s", "s", Lower),
    ("metrics.latency_record_ns", "ns", Lower),
    ("metrics.attributed_s", "s", Lower),
    ("engine.events", "count", Lower),
    ("engine.dispatch_ns", "ns", Lower),
    ("engine.events_per_request", "count", Lower),
    ("engine.attributed_s", "s", Lower),
    ("resilience.retries", "count", Lower),
    ("resilience.hedges", "count", Lower),
    ("resilience.sheds", "count", Lower),
    ("resilience.breaker_opens", "count", Lower),
    ("resilience.attempts_per_request", "count", Lower),
    ("trace.wall_s", "s", Lower),
    ("trace.attributed_s", "s", Lower),
    ("trace.unattributed_s", "s", Lower),
    ("trace.attributed_frac", "frac", Higher),
    ("trace.overhead_frac", "frac", Lower),
];

/// What one traced pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the whole pass, seconds.
    pub wall_s: f64,
    /// Wall time of each `run_interval` call, milliseconds.
    pub interval_ms: Vec<f64>,
    /// Per-call costs and per-pass sums, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Equivalence checks the pass found broken.
    pub problems: Vec<String>,
}

/// Sum that is +0.0, not -0.0, for no samples.
fn total(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, x| acc + x)
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Steps `cluster` through `intervals` reallocation intervals with one
/// timer around each `run_interval`. At each boundary it times a cloned
/// `Leader`'s report sweep and receiver search, the instance snapshot and
/// the discovery refresh, then hands the refreshed view to `boundary`.
fn step(
    cluster: &mut Cluster,
    intervals: u64,
    pass: &mut Pass,
    mut boundary: impl FnMut(&Cluster, &InstanceSet, &[Change]),
) {
    let mut discover = ClusterDiscover::new(cluster);
    let (mut sweep_us, mut find_us, mut snapshot_us, mut refresh_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut snapshot, mut receivers, mut changes) = (Vec::new(), Vec::new(), Vec::new());
    let mut change_count = 0usize;
    for _ in 0..intervals {
        let start = Instant::now();
        black_box(cluster.run_interval());
        pass.interval_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let mut leader = cluster.leader().clone();
        let start = Instant::now();
        leader.full_report_sweep(cluster.servers());
        sweep_us.push(micros(start));
        let start = Instant::now();
        leader.find_receivers_into(ServerId(0), &mut receivers);
        find_us.push(micros(start));
        black_box(&receivers);

        let start = Instant::now();
        cluster.instance_snapshot(&mut snapshot);
        snapshot_us.push(micros(start));
        black_box(&snapshot);

        let start = Instant::now();
        discover.refresh(cluster);
        refresh_us.push(micros(start));
        discover.poll_changes(&mut changes);
        change_count += changes.len();
        boundary(cluster, discover.instances(), &changes);
    }
    let intervals_ms = &pass.interval_ms[pass.interval_ms.len() - intervals as usize..];
    let split = TRANSIENT_INTERVALS.min(intervals_ms.len());
    let values = &mut pass.values;
    values.insert("cluster.transient_s", total(&intervals_ms[..split]) / 1e3);
    values.insert("cluster.steady_s", total(&intervals_ms[split..]) / 1e3);
    values.insert("leader.report_sweep_us", median(&sweep_us));
    values.insert("leader.find_receivers_us", median(&find_us));
    values.insert("cluster.instance_snapshot_us", median(&snapshot_us));
    values.insert("discover.refresh_us", median(&refresh_us));
    values.insert(
        "discover.changes_per_refresh",
        change_count as f64 / intervals as f64,
    );
}

/// Records where `cluster`'s decision stream differs from `base`.
fn check_decisions(cluster: &Cluster, base: &ClusterRunReport, problems: &mut Vec<String>) {
    let mut differs = |what: &str, same: bool| {
        if !same {
            problems.push(format!("traced loop {what} differ from the untraced run"));
        }
    };
    differs(
        "decision totals",
        cluster.ledger().totals() == base.decision_totals,
    );
    differs(
        "ratio series",
        cluster.ledger().ratio_series() == base.ratio_series,
    );
    differs("migrations", cluster.migrations() == base.migrations);
    differs("final census", cluster.census() == base.final_census);
}

/// The `cluster_consolidate` pass: the benchmark's own `Cluster::new` and
/// `run_interval` loop, which must reproduce the timed simulation's
/// decisions, migrations and final census exactly.
pub fn cluster_pass(
    config: &ClusterConfig,
    seed: u64,
    intervals: u64,
    base: &ClusterRunReport,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut cluster = Cluster::new(config.clone(), seed);
    step(&mut cluster, intervals, &mut pass, |_, _, _| {});
    check_decisions(&cluster, base, &mut pass.problems);
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// Accumulated request-path timings over the boundaries of one pass.
#[derive(Default)]
struct RequestTimes {
    calls: u64,
    awake: usize,
    boundaries: usize,
    pick_s: f64,
    service_s: f64,
    enqueue_s: f64,
}

/// Times one request per id in `ids`, arriving `gap` apart from `at`,
/// against `set`: first pick, service draw and enqueue interleaved as the
/// serve path runs them, then the same service draws alone and the same
/// enqueues replayed alone. The pick's cost is what the first loop spends
/// beyond the other two.
#[allow(clippy::too_many_arguments)]
fn time_requests(
    picker: &mut dyn Picker,
    set: &InstanceSet,
    n_servers: usize,
    at: SimTime,
    gap: SimDuration,
    ids: std::ops::Range<u64>,
    seed: u64,
    mean_service_s: f64,
    times: &mut RequestTimes,
) {
    let service =
        |id: u64| SimDuration::from_secs_f64(service_time_s(seed, RequestId(id), mean_service_s));
    let mut queues = QueueModel::new(n_servers);
    let mut routed = Vec::with_capacity((ids.end - ids.start) as usize);
    let start = Instant::now();
    for (i, id) in ids.clone().enumerate() {
        let now = at + SimDuration::from_ticks(gap.ticks() * i as u64);
        if let Some(server) = picker.pick(set, &queues.view(now), RequestId(id)) {
            let work = service(id);
            queues.enqueue(now, server, work);
            routed.push((now, server, work));
        }
    }
    let interleaved = start.elapsed().as_secs_f64();
    black_box(&queues);

    let start = Instant::now();
    for id in ids.clone() {
        black_box(service(black_box(id)));
    }
    let draws = start.elapsed().as_secs_f64();

    let mut replay = QueueModel::new(n_servers);
    let start = Instant::now();
    for &(now, server, work) in &routed {
        black_box(replay.enqueue(now, server, work));
    }
    let enqueues = start.elapsed().as_secs_f64();

    times.calls += ids.end - ids.start;
    times.pick_s += (interleaved - draws - enqueues).max(0.0);
    times.service_s += draws;
    times.enqueue_s += enqueues;
}

/// Mean cost of one open-loop arrival draw over the workload's sources.
fn arrival_draw_ns(cfg: &ServeConfig, seed: u64, cluster: &Cluster) -> f64 {
    let mut sources = Vec::new();
    for app in cluster.servers().iter().flat_map(|s| s.apps()) {
        let idx = sources.len() as u64;
        sources.push((
            cfg.load.source_for(seed, idx, app),
            cfg.modulation.profile_for(seed, idx),
        ));
    }
    let n = sources.len();
    let start = Instant::now();
    for i in 0..MICRO_CALLS {
        let (source, profile) = &mut sources[i % n];
        black_box(profile.next_gap_s(source, 0.0));
    }
    start.elapsed().as_secs_f64() * 1e9 / MICRO_CALLS as f64
}

/// Mean cost of one latency record (P² estimators plus histogram).
fn latency_record_ns(cfg: &ServeConfig, seed: u64) -> f64 {
    let samples: Vec<f64> = (0..MICRO_CALLS as u64)
        .map(|i| service_time_s(seed, RequestId(i), cfg.load.mean_service_s))
        .collect();
    let mut recorder = LatencyRecorder::new(cfg.latency_hi_s, cfg.latency_bins);
    let start = Instant::now();
    for &x in &samples {
        recorder.record(black_box(x));
    }
    black_box(&recorder);
    start.elapsed().as_secs_f64() * 1e9 / MICRO_CALLS as f64
}

/// Mean cost of one engine dispatch in a hold-model loop: `depth` pending
/// events, each handled by rescheduling itself one exponential gap (mean
/// `mean_gap_s`) later — the shape of the serve run's arrival sources.
fn engine_dispatch_ns(depth: usize, mean_gap_s: f64, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let gaps: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_secs_f64(-(1.0 - rng.next_f64()).ln() * mean_gap_s))
        .collect();
    let mut engine: Engine<ServeEvent> =
        Engine::with_capacity(depth + 1).with_event_budget(HOLD_EVENTS);
    for source in 0..depth {
        engine.schedule_at(
            SimTime::ZERO + gaps[source % gaps.len()],
            ServeEvent::Arrival {
                source: source as u32,
            },
        );
    }
    let mut cursor = 0usize;
    let start = Instant::now();
    engine.run(&mut cursor, |cursor, sched, event| {
        *cursor += 1;
        sched.schedule_in(gaps[*cursor % gaps.len()], event);
        Control::Continue
    });
    start.elapsed().as_secs_f64() * 1e9 / engine.events_processed() as f64
}

/// A serve workload's pass: a standalone cluster with the run's config and
/// seed stepped interval by interval, with up to 20k requests timed at
/// each boundary at the run's mean arrival gap. Without faults the
/// standalone cluster must reproduce the run's decisions exactly, since
/// serving never touches cluster state.
pub fn serve_pass(cfg: &ServeConfig, seed: u64, report: &Report) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    let run = report.serve().expect("a serve workload has a serve report");
    let mut cluster = Cluster::new(cfg.cluster.clone(), seed);
    let n_servers = cluster.servers().len();
    let sources = cluster
        .servers()
        .iter()
        .map(|s| s.app_count())
        .sum::<usize>();
    let horizon_s = cfg.cluster.realloc_interval.as_secs_f64() * cfg.intervals as f64;
    let gap_s = horizon_s / run.requests_admitted.max(1) as f64;
    let per_boundary = (run.requests_admitted / cfg.intervals).clamp(1, REQUESTS_PER_BOUNDARY);

    pass.values.insert(
        "workload.arrival_draw_ns",
        arrival_draw_ns(cfg, seed, &cluster),
    );
    pass.values
        .insert("metrics.latency_record_ns", latency_record_ns(cfg, seed));
    pass.values.insert(
        "engine.dispatch_ns",
        engine_dispatch_ns(sources, gap_s * sources as f64, seed),
    );

    let mut picker = cfg.picker.build(seed);
    let mut times = RequestTimes::default();
    step(
        &mut cluster,
        cfg.intervals,
        &mut pass,
        |cluster, set, changes| {
            picker.on_change(set, changes);
            times.awake += set.awake_len();
            times.boundaries += 1;
            let first = times.calls;
            time_requests(
                picker.as_mut(),
                set,
                n_servers,
                cluster.now(),
                SimDuration::from_secs_f64(gap_s),
                first..first + per_boundary,
                seed,
                cfg.load.mean_service_s,
                &mut times,
            );
        },
    );
    let calls = times.calls as f64;
    let values = &mut pass.values;
    values.insert("picker.pick_ns", times.pick_s * 1e9 / calls);
    values.insert("picker.awake", times.awake as f64 / times.boundaries as f64);
    values.insert("workload.service_draw_ns", times.service_s * 1e9 / calls);
    values.insert("queue.enqueue_ns", times.enqueue_s * 1e9 / calls);
    if cfg.faults.is_none() {
        check_decisions(&cluster, &run.base, &mut pass.problems);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// The per-layer metrics of a workload from its traced passes, the report
/// of its untraced run and that run's median wall time `run_s`.
pub fn per_layer(passes: &[Pass], report: &Report, run_s: f64) -> Vec<Metric> {
    let value = |name: &str| -> f64 {
        let xs: Vec<f64> = passes
            .iter()
            .map(|p| p.values.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&xs)
    };
    let interval_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.interval_ms.iter().copied())
        .collect();
    let interval_s: Vec<f64> = passes.iter().map(|p| total(&p.interval_ms) / 1e3).collect();
    let wall_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let base = report.base();
    let totals = base.decision_totals;
    let decisions = totals.local + totals.in_cluster + totals.deferred;

    // Every pass records the same per-call names; take each one's median.
    let mut m: BTreeMap<&'static str, f64> = passes[0]
        .values
        .keys()
        .map(|&name| (name, value(name)))
        .collect();
    m.insert("cluster.interval_ms.p50", median(&interval_ms));
    m.insert("cluster.interval_ms.p75", percentile(&interval_ms, 750));
    m.insert("cluster.interval_ms.max", percentile(&interval_ms, 1000));
    m.insert("cluster.migrations", base.migrations as f64);
    m.insert(
        "cluster.deferred_frac",
        totals.deferred as f64 / decisions.max(1) as f64,
    );
    m.insert("cluster.in_cluster_ratio", base.ratio_series.stats().mean());
    m.insert("cluster.attributed_s", median(&interval_s));
    m.insert("engine.events", report.events() as f64);
    m.insert("trace.wall_s", median(&wall_s));

    match report.serve() {
        None => {
            // The timed cluster simulation's run is the interval loop.
            m.insert("trace.overhead_frac", median(&wall_s) / run_s - 1.0);
        }
        Some(r) => {
            let admitted = r.requests_admitted.max(1) as f64;
            let res = &r.resilience;
            // Every dispatch attempt picks and draws a service time; every
            // routed attempt (completions plus hedge twins) is enqueued.
            let attempts = (r.requests_admitted + res.retries) as f64;
            let enqueues = (r.requests_completed + res.hedges) as f64;
            let ns = |name: &str| m[name] * 1e-9;
            let attributed = [
                (
                    "discover.attributed_s",
                    m["discover.refresh_us"] * 1e-6 * base.ratio_series.len() as f64,
                ),
                ("picker.attributed_s", ns("picker.pick_ns") * attempts),
                ("queue.attributed_s", ns("queue.enqueue_ns") * enqueues),
                (
                    "workload.attributed_s",
                    ns("workload.service_draw_ns") * attempts
                        + ns("workload.arrival_draw_ns") * r.requests_admitted as f64,
                ),
                (
                    "metrics.attributed_s",
                    ns("metrics.latency_record_ns") * r.requests_completed as f64,
                ),
                (
                    "engine.attributed_s",
                    ns("engine.dispatch_ns") * r.events_processed as f64,
                ),
            ];
            m.extend(attributed);
            m.insert(
                "engine.events_per_request",
                r.events_processed as f64 / admitted,
            );
            m.insert("resilience.retries", res.retries as f64);
            m.insert("resilience.hedges", res.hedges as f64);
            m.insert("resilience.sheds", res.total_shed() as f64);
            m.insert("resilience.breaker_opens", res.breaker_opens as f64);
            m.insert(
                "resilience.attempts_per_request",
                (attempts + res.hedges as f64) / admitted,
            );
        }
    }
    let attributed: f64 = m
        .iter()
        .filter(|(name, _)| name.ends_with(".attributed_s"))
        .map(|(_, v)| v)
        .sum();
    m.insert("trace.attributed_s", attributed);
    m.insert("trace.unattributed_s", run_s - attributed);
    m.insert("trace.attributed_frac", attributed / run_s);

    PER_LAYER
        .iter()
        .map(|&spec| Metric::new(spec, m.get(spec.0).copied().unwrap_or(0.0)))
        .collect()
}
