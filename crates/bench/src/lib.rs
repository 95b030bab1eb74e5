//! # ecolb-bench
//!
//! The benchmark/reproduction harness: shared rendering and driver code
//! used by the `src/bin` regenerators (one per paper table/figure) and the
//! `#[ignore]`d perf smoke tests under `tests/`.
//!
//! The experiment matrix is embarrassingly parallel across cells, so
//! [`run_matrix_parallel`] fans the configurations out with the hermetic
//! [`ecolb_simcore::par`] thread pool. Every cell is seeded from
//! `(base_seed, size, load)` alone, so the fan-out is bit-identical to
//! the serial run at any thread count.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use ecolb::experiments::{
    fig2_panels, fig3_panels, homogeneous_paper_point, homogeneous_rows, run_cell, table1_rows,
    table2_rows, Fig2Panel, Fig3Panel, LoadLevel, MatrixCell,
};
use ecolb_energy::regimes::OperatingRegime;
use ecolb_energy::server_class::TABLE1_YEARS;
use ecolb_metrics::json::{ObjectWriter, ToJson};
use ecolb_metrics::plot::{grouped_bars, line_plot};
use ecolb_metrics::table::{fmt_f, Table};
use ecolb_simcore::par;
use std::fmt::Write as _;

/// Default seed used by every regenerator (override with `--seed`).
pub const DEFAULT_SEED: u64 = 20140109; // the paper's arXiv date

/// Runs the §5 experiment matrix with one worker task per cell.
pub fn run_matrix_parallel(base_seed: u64, sizes: &[usize], intervals: u64) -> Vec<MatrixCell> {
    run_matrix_threads(base_seed, sizes, intervals, par::default_threads())
}

/// [`run_matrix_parallel`] with an explicit thread count. Output is
/// identical for every `threads` value (the determinism suite pins this).
pub fn run_matrix_threads(
    base_seed: u64,
    sizes: &[usize],
    intervals: u64,
    threads: usize,
) -> Vec<MatrixCell> {
    let cells: Vec<(usize, LoadLevel)> = sizes
        .iter()
        .flat_map(|&s| LoadLevel::ALL.into_iter().map(move |l| (s, l)))
        .collect();
    par::map_indexed(cells, threads, |_, (size, load)| {
        run_cell(base_seed, size, load, intervals)
    })
}

/// The command line of one regenerator binary. The binary states its
/// usage line, reads each flag it uses by name, then calls
/// [`Args::finish`], which rejects whatever no read consumed. A token
/// that starts with `--` is always a flag, never a value. Bad input of
/// any kind prints `error:` and the usage line and exits 2; `--help`
/// prints the usage line and exits 0.
pub struct Args {
    usage: &'static str,
    args: Vec<String>,
    read: Vec<bool>,
}

impl Args {
    /// The process's arguments, to be read against `usage` (the text
    /// after `usage: `, starting with the binary's name).
    pub fn new(usage: &'static str) -> Self {
        Args::of(usage, std::env::args().skip(1).collect())
    }

    fn of(usage: &'static str, args: Vec<String>) -> Self {
        if args.iter().any(|a| a == "--help") {
            eprintln!("usage: {usage}");
            std::process::exit(0);
        }
        let read = vec![false; args.len()];
        Args { usage, args, read }
    }

    /// Every value of the repeatable flag `name` (`name V`), in order.
    pub fn values<T: std::str::FromStr>(&mut self, name: &str) -> Vec<T> {
        let mut values = Vec::new();
        for i in 0..self.args.len() {
            if self.args[i] != name {
                continue;
            }
            let raw = match self.args.get(i + 1) {
                Some(raw) if !raw.starts_with("--") => raw,
                _ => self.fail(&format!("{name} needs a value")),
            };
            match raw.parse() {
                Ok(value) => values.push(value),
                Err(_) => self.fail(&format!(
                    "{name}: {raw:?} is not a valid {}",
                    std::any::type_name::<T>()
                )),
            }
            self.read[i] = true;
            self.read[i + 1] = true;
        }
        values
    }

    /// The value of flag `name` (the last one, if repeated).
    pub fn value<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        self.values(name).pop()
    }

    /// Whether the flag `name`, which takes no value, was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let mut given = false;
        for (arg, read) in self.args.iter().zip(&mut self.read) {
            if arg == name {
                *read = true;
                given = true;
            }
        }
        given
    }

    /// Rejects the first argument no read consumed: an unknown flag, a
    /// flag this binary does not take, or a stray value.
    pub fn finish(self) {
        if let Some((arg, _)) = self.args.iter().zip(&self.read).find(|(_, read)| !**read) {
            self.fail(&format!("unexpected argument {arg:?}"));
        }
    }

    /// Prints `error: {msg}` and the usage line, then exits 2.
    fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\nusage: {}", self.usage);
        std::process::exit(2)
    }
}

/// Writes `contents` to `path`, creating its directory first. Every
/// result file a regenerator writes goes through here: on failure it
/// prints `error: <path>: <cause>` and exits 1.
pub fn write_file(path: &str, contents: &str) {
    let written = std::path::Path::new(path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    }
}

/// The experiment matrix's options, shared by the binaries that run it.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// RNG base seed.
    pub seed: u64,
    /// Cluster sizes to run.
    pub sizes: Vec<usize>,
    /// Reallocation intervals per run.
    pub intervals: u64,
    /// Directory to write machine-readable CSVs into, when given.
    pub csv_dir: Option<String>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            seed: DEFAULT_SEED,
            sizes: vec![100, 1_000, 10_000],
            intervals: 40,
            csv_dir: None,
        }
    }
}

impl HarnessOptions {
    /// Reads `--seed N`, `--sizes a,b,c` (positive integers), `--intervals
    /// N` and `--quick` (sizes 100,1000, unless `--sizes` is given). With
    /// `quick_default` the sizes are 100,1000 whenever `--sizes` is absent
    /// and `--quick` is not read, so [`Args::finish`] rejects it as the
    /// no-op it would be. The binaries that export results read `--csv DIR`
    /// themselves.
    pub fn read(args: &mut Args, quick_default: bool) -> Self {
        let defaults = HarnessOptions::default();
        let quick = quick_default || args.switch("--quick");
        let sizes = match args.value::<String>("--sizes") {
            Some(list) => list
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| args.fail("sizes must be positive integers"))
                })
                .collect(),
            None if quick => vec![100, 1_000],
            None => defaults.sizes,
        };
        HarnessOptions {
            seed: args.value("--seed").unwrap_or(defaults.seed),
            sizes,
            intervals: args.value("--intervals").unwrap_or(defaults.intervals),
            csv_dir: None,
        }
    }
}

impl ToJson for HarnessOptions {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("seed", &self.seed)
            .field("sizes", &self.sizes)
            .field("intervals", &self.intervals)
            .field("csv_dir", &self.csv_dir)
            .finish();
    }
}

/// Renders Table 1 as printed in the paper.
pub fn render_table1() -> String {
    let mut headers = vec!["Type".to_string()];
    headers.extend(TABLE1_YEARS.iter().map(|y| y.to_string()));
    let mut table = Table::new(headers).with_title(
        "Table 1: Estimated average power use of volume, mid-range, and high-end servers (W)",
    );
    for (label, watts) in table1_rows() {
        let mut row = vec![label];
        row.extend(watts.iter().map(|w| format!("{w:.0}")));
        table.row(row);
    }
    let mut out = table.to_string();
    // Trend continuation (our extension): fitted slope per class.
    let _ = writeln!(out, "Least-squares trend (W/year):");
    for class in ecolb_energy::server_class::ServerClass::ALL {
        let t = ecolb_energy::server_class::PowerTrend::fit(class);
        let _ = writeln!(
            out,
            "  {:<5} {:+8.1} W/yr (2010 projection: {:.0} W)",
            class.label(),
            t.slope,
            t.predict(2010)
        );
    }
    out
}

/// Renders the homogeneous-model reproduction (eqs. 6–13).
pub fn render_homogeneous() -> String {
    let mut out = String::new();
    let p = homogeneous_paper_point();
    let _ = writeln!(
        out,
        "Homogeneous model (eq. 13 check): a_avg=0.3 b_avg=0.6 a_opt={} b_opt={} -> E_ref/E_opt = {:.4} (paper: 2.25), n_sleep/1000 = {}",
        p.a_opt, p.b_opt, p.ratio, p.n_sleep
    );
    let mut table = Table::new([
        "a_opt \\ b_opt",
        "0.65",
        "0.70",
        "0.75",
        "0.80",
        "0.90",
        "1.00",
    ])
    .with_title("E_ref/E_opt sweep (n = 1000, a_avg = 0.3, b_avg = 0.6)");
    let rows = homogeneous_rows();
    for chunk in rows.chunks(6) {
        let mut row = vec![format!("{:.1}", chunk[0].a_opt)];
        row.extend(chunk.iter().map(|r| fmt_f(r.ratio, 3)));
        table.row(row);
    }
    let _ = write!(out, "{table}");
    out
}

/// Renders all Figure 2 panels as grouped bar charts.
pub fn render_fig2(panels: &[Fig2Panel]) -> String {
    let mut out = String::new();
    for p in panels {
        let title = format!(
            "Figure 2 — cluster size {}, average load {}% (initial vs final servers per regime; {} asleep at end)",
            p.size,
            p.load.percent(),
            p.sleeping
        );
        let groups: Vec<(String, Vec<f64>)> = OperatingRegime::ALL
            .iter()
            .map(|&r| {
                (
                    r.to_string(),
                    vec![p.initial.count(r) as f64, p.final_.count(r) as f64],
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{}",
            grouped_bars(&title, &["Initial", "Final"], &groups, 48)
        );
    }
    out
}

/// Renders all Figure 3 panels as ASCII line plots plus summary lines.
pub fn render_fig3(panels: &[Fig3Panel]) -> String {
    let mut out = String::new();
    for p in panels {
        let stats = p.series.stats();
        let title = format!(
            "Figure 3 — cluster size {}, average load {}% (in-cluster/local decision ratio per interval)",
            p.size,
            p.load.percent()
        );
        let _ = writeln!(out, "{}", line_plot(&title, p.series.values(), 12));
        let _ = writeln!(
            out,
            "  mean={} sd={} settles-below-1.0-at-interval={:?}\n",
            fmt_f(stats.mean(), 4),
            fmt_f(stats.std_dev(), 4),
            p.series.settles_below(1.0)
        );
    }
    out
}

/// Renders Table 2 in the paper's format.
pub fn render_table2(cells: &[MatrixCell]) -> String {
    let mut table = Table::new([
        "Plot",
        "Cluster size",
        "Average load",
        "Avg # sleeping",
        "Average ratio",
        "Std deviation",
    ])
    .with_title("Table 2: In-cluster to local decision ratios");
    for row in table2_rows(cells) {
        table.row([
            row.plot.clone(),
            row.size.to_string(),
            format!("{}%", row.load_pct),
            format!("{:.1}", row.avg_sleeping),
            fmt_f(row.avg_ratio, 4),
            fmt_f(row.std_dev, 4),
        ]);
    }
    table.to_string()
}

/// Writes a run matrix's result files into `dir`: one CSV per cell (ratio
/// / sleeping / load per interval), a `table2.csv` summary, one JSON
/// report per cell (scalars plus the same series) and a `config.json`
/// describing the run. Returns the paths written, in that order.
pub fn export_matrix(cells: &[MatrixCell], opts: &HarnessOptions, dir: &str) -> Vec<String> {
    use ecolb_metrics::report::Report;
    let reports: Vec<Report> = cells
        .iter()
        .map(|cell| {
            let id = format!("size{}_load{}", cell.size, cell.load.percent());
            let mut report = Report::new(id, opts.seed);
            let stats = cell.report.ratio_series.stats();
            report.scalar("avg_ratio", stats.mean());
            report.scalar("ratio_sd", stats.std_dev());
            report.scalar("avg_sleeping", cell.report.sleeping_series.stats().mean());
            report.scalar("savings_fraction", cell.report.savings_fraction());
            report.push_series(cell.report.ratio_series.clone());
            report.push_series(cell.report.sleeping_series.clone());
            report.push_series(cell.report.load_series.clone());
            report
        })
        .collect();
    let mut table2 = String::from("plot,size,load_pct,avg_sleeping,avg_ratio,std_dev\n");
    for row in table2_rows(cells) {
        let _ = writeln!(
            table2,
            "{},{},{},{},{},{}",
            row.plot, row.size, row.load_pct, row.avg_sleeping, row.avg_ratio, row.std_dev
        );
    }
    let files = reports
        .iter()
        .map(|r| (format!("{dir}/{}.csv", r.id), r.series_csv()))
        .chain([(format!("{dir}/table2.csv"), table2)])
        .chain(
            reports
                .iter()
                .map(|r| (format!("{dir}/{}.json", r.id), r.to_json())),
        )
        .chain([(format!("{dir}/config.json"), opts.to_json())]);
    files
        .map(|(path, contents)| {
            write_file(&path, &contents);
            path
        })
        .collect()
}

/// Convenience: run the matrix and render figure 2 + figure 3 + table 2,
/// exporting the result files when `opts.csv_dir` is set.
pub fn render_all(opts: &HarnessOptions) -> String {
    let cells = run_matrix_parallel(opts.seed, &opts.sizes, opts.intervals);
    let mut out = String::new();
    let _ = writeln!(out, "{}", render_fig2(&fig2_panels(&cells)));
    let _ = writeln!(out, "{}", render_fig3(&fig3_panels(&cells)));
    let _ = writeln!(out, "{}", render_table2(&cells));
    if let Some(dir) = &opts.csv_dir {
        let files = export_matrix(&cells, opts, dir);
        let _ = writeln!(out, "Result files written: {}", files.join(", "));
    }
    out
}

/// Paired overhead measurement for the perf smokes.
///
/// The rounds interleave baseline and candidate, so both legs sample
/// the same span of host time — timing the two as separate batched
/// loops lets a host-speed drift between the batches bias the ratio in
/// either direction (single-core CI runners swing ±10 %). The asserted
/// statistic ([`PairedOverhead::robust_overhead`]) is the smaller of
/// two independent estimates — the ratio of the interleaved minima and
/// the median of per-round ratios. A real regression inflates every
/// candidate round, so both estimates read high together; host noise
/// (steal windows, frequency drift) corrupts them in different
/// directions, so taking the minimum keeps a noisy window from failing
/// the budget while a genuine slowdown still cannot hide.
pub struct PairedOverhead {
    /// Best-of-N baseline wall-clock, seconds.
    pub baseline_seconds: f64,
    /// Best-of-N candidate wall-clock, seconds.
    pub candidate_seconds: f64,
    /// `candidate_seconds / baseline_seconds - 1` (interleaved minima).
    pub overhead: f64,
    /// Median over rounds of `candidate/baseline - 1`.
    pub median_overhead: f64,
}

impl PairedOverhead {
    /// The statistic the perf smokes assert against their budget: the
    /// smaller of the minima-ratio and median-ratio estimates (see the
    /// type-level docs for why the minimum is the noise-robust choice).
    pub fn robust_overhead(&self) -> f64 {
        self.overhead.min(self.median_overhead)
    }
}

/// Measures [`PairedOverhead`] over `rounds` interleaved rounds, seeding
/// round `i` with `base_seed + i` (one unseeded warm-up per leg first).
pub fn paired_overhead<A, B>(
    rounds: u32,
    base_seed: u64,
    mut baseline: impl FnMut(u64) -> A,
    mut candidate: impl FnMut(u64) -> B,
) -> PairedOverhead {
    use std::hint::black_box;
    use std::time::Instant;
    let _ = black_box(baseline(base_seed)); // warm-up, both paths
    let _ = black_box(candidate(base_seed));
    let mut best_base = f64::INFINITY;
    let mut best_cand = f64::INFINITY;
    let mut ratios: Vec<f64> = Vec::with_capacity(rounds.max(1) as usize);
    for i in 0..rounds.max(1) {
        let seed = base_seed + u64::from(i);
        let start = Instant::now();
        black_box(baseline(seed));
        let base_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(candidate(seed));
        let cand_s = start.elapsed().as_secs_f64();
        best_base = best_base.min(base_s);
        best_cand = best_cand.min(cand_s);
        if base_s > 0.0 {
            ratios.push(cand_s / base_s);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let median_overhead = match ratios.as_slice() {
        [] => 0.0,
        rs => {
            let mid = rs.len() / 2;
            let median = if rs.len() % 2 == 1 {
                rs[mid]
            } else {
                (rs[mid - 1] + rs[mid]) / 2.0
            };
            median - 1.0
        }
    };
    let overhead = if best_base > 0.0 && best_base.is_finite() {
        best_cand / best_base - 1.0
    } else {
        0.0
    };
    PairedOverhead {
        baseline_seconds: best_base,
        candidate_seconds: best_cand,
        overhead,
        median_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_with(args: &[&str], quick_default: bool) -> HarnessOptions {
        let mut args = Args::of("test", args.iter().map(|s| s.to_string()).collect());
        let opts = HarnessOptions::read(&mut args, quick_default);
        args.finish();
        opts
    }

    fn read(args: &[&str]) -> HarnessOptions {
        read_with(args, false)
    }

    #[test]
    fn options_parse_defaults_and_flags() {
        let opts = read(&[]);
        assert_eq!(opts.seed, DEFAULT_SEED);
        assert_eq!(opts.sizes, vec![100, 1_000, 10_000]);
        let opts = read(&["--seed", "7", "--sizes", "10,20", "--intervals", "5"]);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.sizes, vec![10, 20]);
        assert_eq!(opts.intervals, 5);
        assert_eq!(read(&["--quick"]).sizes, vec![100, 1_000]);
        assert_eq!(
            read(&["--seed", "1", "--seed", "2"]).seed,
            2,
            "the last value wins"
        );
    }

    #[test]
    fn quick_default_yields_to_explicit_sizes() {
        assert_eq!(read_with(&[], true).sizes, vec![100, 1_000]);
        assert_eq!(
            read_with(&["--sizes", "100,1000,10000"], true).sizes,
            vec![100, 1_000, 10_000],
            "an explicit list equal to the full default is kept"
        );
    }

    #[test]
    fn repeated_flags_keep_every_value_in_order() {
        let mut args = Args::of(
            "test",
            ["--seed", "3", "--ci", "--seed", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(args.values::<u64>("--seed"), vec![3, 1]);
        assert!(args.switch("--ci"));
        assert!(!args.switch("--quick"));
        args.finish();
    }

    #[test]
    fn table1_render_contains_paper_values() {
        let s = render_table1();
        assert!(s.contains("186"));
        assert!(s.contains("8163"));
        assert!(s.contains("Vol"));
    }

    #[test]
    fn homogeneous_render_contains_example_ratio() {
        let s = render_homogeneous();
        assert!(s.contains("2.2500"), "render:\n{s}");
        assert!(s.contains("paper: 2.25"));
    }

    #[test]
    fn parallel_matrix_matches_serial() {
        let par = run_matrix_parallel(3, &[40], 5);
        let ser = ecolb::experiments::run_matrix(3, &[40], 5);
        assert_eq!(par, ser, "thread fan-out must not change results");
    }

    #[test]
    fn paired_overhead_median_is_robust_to_one_outlier() {
        // Candidate does ~2x the baseline's work every round; one noisy
        // round cannot drag the median ratio to an extreme.
        let work = |iters: u64| {
            let mut acc = 0u64;
            for i in 0..iters {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let p = paired_overhead(5, 1, |_| work(200_000), |_| work(400_000));
        assert!(
            p.robust_overhead() > 0.2,
            "overhead {} not clearly positive",
            p.robust_overhead()
        );
        assert!(p.baseline_seconds.is_finite() && p.candidate_seconds.is_finite());
        let same = paired_overhead(5, 1, |_| work(200_000), |_| work(200_000));
        assert!(
            same.robust_overhead().abs() < 0.5,
            "identical work measured {}% apart",
            same.robust_overhead() * 100.0
        );
    }

    #[test]
    fn fig_renders_are_nonempty() {
        let cells = run_matrix_parallel(4, &[30], 4);
        assert!(render_fig2(&fig2_panels(&cells)).contains("Figure 2"));
        assert!(render_fig3(&fig3_panels(&cells)).contains("Figure 3"));
        assert!(render_table2(&cells).contains("Table 2"));
    }
}

pub mod perf;

pub mod policy_suite;

pub mod sweep;
