//! The repository benchmark: four named workloads, host-time end-to-end
//! metrics from untraced runs, per-layer attribution from a separate
//! traced pass, and a correctness gate on every run. See README.md.
//!
//! `--workload NAME` runs one workload in this process and prints one
//! JSON result as the last line of standard output. Without it, each of
//! the four workloads runs in a child process of its own, so that its
//! peak resident memory is its own, and a summary line follows.

mod layers;
mod stats;
mod workloads;

use std::hint::black_box;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ecolb_metrics::json::ObjectWriter;

use stats::{median, regressed, tail_percentile, Better, Summary};
use workloads::{golden_digest, Report, Workload};

const DEFAULT_SEED: u64 = 20140109;
const DEFAULT_SECONDS: u64 = 20;
/// Set-up is short, so before every run it is sampled at least this many
/// times ...
const SETUP_SAMPLES: usize = 21;
/// ... and for at least this long, seconds.
const SETUP_ROUND_S: f64 = 0.05;
/// Untraced runs per invocation, at least, however long they take.
const MIN_RUNS: usize = 3;
/// How much slower than the untraced run the traced loop may be.
const TRACE_OVERHEAD_BOUND: f64 = 0.15;

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--bless]

  --workload NAME  cluster_consolidate | serve_scan | serve_p2c | serve_spot_resilient
                   (default: all four, each in its own child process)
  --seed N         input seed (default 20140109)
  --seconds N      measuring time per workload, at least 1 (default 20)
  --trace 0|1      0: end-to-end metrics from untraced runs (default);
                   1: per-layer metrics from traced passes
  --bless          run each simulation once and print its golden.tsv line";

/// A metric's name, unit and the direction in which it improves.
pub type Spec = (&'static str, &'static str, Better);

/// End-to-end metrics, in print order.
const END_TO_END: [Spec; 3] = [
    ("setup_s", "s", Better::Lower),
    ("run_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// One measurement; `note` is printed beside it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub spec: Spec,
    pub value: f64,
    pub note: String,
}

impl Metric {
    pub fn new(spec: Spec, value: f64) -> Metric {
        Metric {
            spec,
            value,
            note: String::new(),
        }
    }

    fn timing(spec: Spec, samples: &[f64]) -> Metric {
        let s = Summary::of(samples);
        Metric {
            note: format!(
                "median of {}; quartiles {:.6} .. {:.6}; min {:.6} max {:.6}",
                s.n, s.q1, s.q3, s.min, s.max
            ),
            ..Metric::new(spec, s.median)
        }
    }

    fn print(&self) {
        let (name, unit, better) = self.spec;
        let better = match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        println!(
            "  {name:<34} {:>16.6} {unit:<5} {better:<6}  {}",
            self.value, self.note
        );
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        bless: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = match v.parse() {
                    Ok(s) if s >= 1 => s,
                    _ => return Err(format!("bad seconds {v:?}")),
                };
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v:?}, want 0 or 1")),
                };
            }
            "--bless" => out.bless = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Some(out))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        _ if args.bless => bless(&args),
        Some(w) => run_workload(w, &args),
        None => run_all(&args),
    }
}

/// Runs each instance of each selected workload once and prints its
/// golden-table line.
fn bless(args: &Args) -> ExitCode {
    for w in args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
        for seed in w.instance_seeds(args.seed) {
            let (report, _) = w.setup(seed).run();
            println!("{} {seed} {:#018x}", w.name(), report.digest());
        }
    }
    ExitCode::SUCCESS
}

/// Runs the four workloads one after another, each in a child process,
/// then prints one summary line holding each child's result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("benchmark: cannot run {}: {e}", w.name());
                correct = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        correct &= output.status.success();
        match text.lines().last() {
            Some(line) if line.starts_with('{') => results.push((w.name(), line.to_string())),
            _ => correct = false,
        }
    }
    let mut out = String::new();
    ObjectWriter::new(&mut out)
        .field("correct", &correct)
        .field_with("workloads", |out| {
            let mut obj = ObjectWriter::new(out);
            for (name, line) in &results {
                obj = obj.field_with(name, |out| out.push_str(line));
            }
            obj.finish();
        })
        .finish();
    println!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs and operations attempted, and the problems they showed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one operation (a run or a traced pass) and its problems.
    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

/// The correctness gate on one untraced run: the report's invariants, its
/// digest against the first run's, and against the golden digest when
/// one is committed for this seed.
fn check_run(w: Workload, seed: u64, report: &Report, first: &mut Option<u64>) -> Vec<String> {
    let mut problems = report.problems();
    let digest = report.digest();
    let expected = *first.get_or_insert(digest);
    if digest != expected {
        problems.push(format!(
            "digest {digest:#018x} differs from the first run's {expected:#018x}"
        ));
    }
    if let Some(golden) = golden_digest(w, seed) {
        if digest != golden {
            problems.push(format!(
                "digest {digest:#018x} differs from the golden {golden:#018x}"
            ));
        }
    }
    problems
}

fn run_workload(w: Workload, args: &Args) -> ExitCode {
    println!(
        "workload {} (seed {}, {} s, trace {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  why: {}", w.why());
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(w, args, &mut tally)
    } else {
        untraced(w, args, &mut tally)
    };
    for m in &metrics {
        m.print();
        if !m.value.is_finite() {
            tally
                .problems
                .push(format!("{} is not a finite number", m.spec.0));
        }
    }
    for problem in &tally.problems {
        println!("  FAILED: {problem}");
    }
    let correct = tally.problems.is_empty();
    println!("correct={correct}");

    let mut out = String::new();
    ObjectWriter::new(&mut out)
        .field("correct", &correct)
        .field("attempted", &tally.attempted)
        .field("failed", &tally.failed)
        .field_with("metrics", |out| {
            let mut obj = ObjectWriter::new(out);
            for m in &metrics {
                let (name, unit, _) = m.spec;
                obj = obj.field_with(name, |out| {
                    ObjectWriter::new(out)
                        .field("value", &m.value)
                        .field("unit", &unit)
                        .finish();
                });
            }
            obj.finish();
        })
        .finish();
    println!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Times set-ups, cycling over `seeds`, until at least `SETUP_SAMPLES` are
/// taken and `SETUP_ROUND_S` has passed; appends each set-up's time.
fn setup_round(w: Workload, seeds: &[u64], samples: &mut Vec<f64>) {
    let round = Instant::now();
    for (k, &seed) in seeds.iter().cycle().enumerate() {
        if k >= SETUP_SAMPLES && round.elapsed().as_secs_f64() >= SETUP_ROUND_S {
            break;
        }
        let start = Instant::now();
        let built = black_box(w.setup(seed));
        samples.push(start.elapsed().as_secs_f64());
        drop(built);
    }
}

/// End-to-end metrics: whole untraced runs until `--seconds` is spent (at
/// least `MIN_RUNS`), each after a round of set-ups, so that the set-up
/// samples span the whole measuring time as the runs do. A run simulates
/// each of the workload's instances once; `run_s` is its total.
fn untraced(w: Workload, args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let seeds = w.instance_seeds(args.seed);
    // One untimed set-up per seed first: the first one in a fresh process
    // also faults in the heap.
    for &seed in &seeds {
        drop(black_box(w.setup(seed)));
    }

    let start = Instant::now();
    let mut setup = Vec::new();
    let mut runs = Vec::new();
    let mut digests = vec![None; seeds.len()];
    let mut first_instance_runs = Vec::new();
    let mut first_report = None;
    loop {
        setup_round(w, &seeds, &mut setup);
        let mut run_s = 0.0;
        for (k, (&seed, digest)) in seeds.iter().zip(&mut digests).enumerate() {
            let (report, wall) = w.setup(seed).run();
            tally.record(check_run(w, seed, &report, digest));
            run_s += wall;
            if k == 0 {
                first_instance_runs.push(wall);
                first_report.get_or_insert(report);
            }
        }
        runs.push(run_s);
        // Stop before a run that would end past the measuring time.
        let next_end = start.elapsed().as_secs_f64() + median(&runs);
        if runs.len() >= MIN_RUNS && next_end > args.seconds as f64 {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb().unwrap_or_else(|| {
        tally
            .problems
            .push("VmHWM missing from /proc/self/status".into());
        0.0
    });

    for (seed, digest) in seeds.iter().zip(&digests) {
        let digest = digest.expect("every instance ran");
        let golden = if golden_digest(w, *seed).is_some() {
            "checked against golden.tsv"
        } else {
            "no golden digest for this seed; runs checked against each other"
        };
        println!("  instance seed {seed}: digest {digest:#018x} ({golden})");
    }
    println!(
        "  simulated outcomes of instance seed {} (exact; gated by the digest):",
        args.seed
    );
    let report = first_report.expect("at least one run");
    for m in report.outcomes(w.intervals(), median(&first_instance_runs)) {
        m.print();
    }
    println!("  end-to-end ({} simulation(s) per run):", seeds.len());
    let [setup_spec, run_spec, rss_spec] = END_TO_END;
    vec![
        Metric::timing(setup_spec, &setup),
        Metric::timing(run_spec, &runs),
        Metric {
            note: "VmHWM of this process".into(),
            ..Metric::new(rss_spec, peak_rss_mb)
        },
    ]
}

/// Per-layer metrics: each iteration is one untraced run (whose wall time
/// the layers are attributed against) followed by one traced pass, until
/// `--seconds` is spent.
fn traced(w: Workload, args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let seed = args.seed;
    let serve = w.serve_config(seed);
    let start = Instant::now();
    let (mut runs, mut passes) = (Vec::new(), Vec::new());
    let mut first_digest = None;
    let report = loop {
        let iteration = Instant::now();
        let (report, wall) = w.setup(seed).run();
        tally.record(check_run(w, seed, &report, &mut first_digest));
        let pass = match &serve {
            None => {
                layers::cluster_pass(&w.cluster_config(seed), seed, w.intervals(), report.base())
            }
            Some(cfg) => layers::serve_pass(cfg, seed, &report),
        };
        tally.record(pass.problems.clone());
        runs.push(wall);
        passes.push(pass);
        let next_end = start.elapsed() + iteration.elapsed();
        if next_end.as_secs_f64() > args.seconds as f64 {
            break report;
        }
    };
    let run_s = median(&runs);
    println!(
        "  {} untraced runs (median {run_s:.6} s) and {} traced passes",
        runs.len(),
        passes.len()
    );
    let interval_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.interval_ms.iter().copied())
        .collect();
    match tail_percentile(&interval_ms) {
        Some((label, v)) => println!(
            "  cluster.interval_ms {label} = {v:.6} ms over {} intervals",
            interval_ms.len()
        ),
        None => println!(
            "  cluster.interval_ms: {} intervals, fewer than 10 beyond p75; read median and max",
            interval_ms.len()
        ),
    }
    if w == Workload::ServeSpotResilient {
        println!(
            "  caveat: spot crashes fire outside run_interval, so the traced pass steps \
             fault-free boundary states"
        );
    }
    let metrics = layers::per_layer(&passes, &report, run_s);
    let pass_s = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    if serve.is_none() && regressed(run_s, pass_s, Better::Lower, TRACE_OVERHEAD_BOUND) {
        println!(
            "  warning: the traced loop ({pass_s:.3} s) is more than {:.0}% slower than the run",
            TRACE_OVERHEAD_BOUND * 100.0
        );
    }
    println!("  per-layer:");
    metrics
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_and_default() {
        let a = parse(&["--workload", "serve_p2c", "--seed", "7", "--trace", "1"])
            .unwrap()
            .unwrap();
        assert_eq!(a.workload, Some(Workload::ServeP2c));
        assert_eq!((a.seed, a.seconds, a.trace), (7, DEFAULT_SECONDS, true));
        let d = parse(&[]).unwrap().unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, DEFAULT_SEED, false));
        assert!(parse(&["--help"]).unwrap().is_none());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--frobnicate"][..],
            &["--workload", "nope"],
            &["--workload"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, better) in END_TO_END.iter().chain(layers::PER_LAYER.iter()) {
            let better = if *better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(r#""name": "{name}", "unit": "{unit}", "better": "{better}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
