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

/// Minimal CLI options shared by the regenerator binaries.
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
    /// Parses `--seed N`, `--sizes a,b,c`, `--intervals N`, `--quick`
    /// (sizes 100,1000 only) from an argument iterator. Unknown arguments
    /// abort with a usage message.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut opts = HarnessOptions::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--sizes" => {
                    let list = args.next().unwrap_or_else(|| usage("--sizes needs a list"));
                    opts.sizes = list
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .ok()
                                .filter(|&n: &usize| n > 0)
                                .unwrap_or_else(|| usage("sizes must be positive integers"))
                        })
                        .collect();
                }
                "--intervals" => {
                    opts.intervals = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--intervals needs an integer"));
                }
                "--quick" => {
                    opts.sizes = vec![100, 1_000];
                }
                "--csv" => {
                    opts.csv_dir = Some(
                        args.next()
                            .unwrap_or_else(|| usage("--csv needs a directory")),
                    );
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument {other:?}")),
            }
        }
        opts
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

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--seed N] [--sizes 100,1000,10000] [--intervals 40] [--quick] [--csv DIR]\n\
         Regenerates one artifact of Paya & Marinescu (2014)."
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
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

/// Writes machine-readable CSVs for a run matrix into `dir`:
/// one series file per cell (ratio / sleeping / load per interval) and a
/// `table2.csv` summary. Returns the files written.
pub fn write_matrix_csvs(cells: &[MatrixCell], dir: &str) -> std::io::Result<Vec<String>> {
    use ecolb_metrics::report::Report;
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for cell in cells {
        let id = format!("size{}_load{}", cell.size, cell.load.percent());
        let mut report = Report::new(id.clone(), 0);
        report.push_series(cell.report.ratio_series.clone());
        report.push_series(cell.report.sleeping_series.clone());
        report.push_series(cell.report.load_series.clone());
        let path = format!("{dir}/{id}.csv");
        std::fs::write(&path, report.series_csv())?;
        written.push(path);
    }
    let mut table2 = String::from("plot,size,load_pct,avg_sleeping,avg_ratio,std_dev\n");
    for row in table2_rows(cells) {
        use std::fmt::Write as _;
        let _ = writeln!(
            table2,
            "{},{},{},{},{},{}",
            row.plot, row.size, row.load_pct, row.avg_sleeping, row.avg_ratio, row.std_dev
        );
    }
    let path = format!("{dir}/table2.csv");
    std::fs::write(&path, table2)?;
    written.push(path);
    Ok(written)
}

/// Writes one machine-readable JSON report per cell into `dir` (scalars
/// plus all three per-interval series), and a `config.json` describing
/// the run. Returns the files written.
pub fn write_matrix_json(
    cells: &[MatrixCell],
    opts: &HarnessOptions,
    dir: &str,
) -> std::io::Result<Vec<String>> {
    use ecolb_metrics::report::Report;
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for cell in cells {
        let id = format!("size{}_load{}", cell.size, cell.load.percent());
        let mut report = Report::new(id.clone(), opts.seed);
        let stats = cell.report.ratio_series.stats();
        report.scalar("avg_ratio", stats.mean());
        report.scalar("ratio_sd", stats.std_dev());
        report.scalar("avg_sleeping", cell.report.sleeping_series.stats().mean());
        report.scalar("savings_fraction", cell.report.savings_fraction());
        report.push_series(cell.report.ratio_series.clone());
        report.push_series(cell.report.sleeping_series.clone());
        report.push_series(cell.report.load_series.clone());
        let path = format!("{dir}/{id}.json");
        std::fs::write(&path, report.to_json())?;
        written.push(path);
    }
    let path = format!("{dir}/config.json");
    std::fs::write(&path, opts.to_json())?;
    written.push(path);
    Ok(written)
}

/// Convenience: run the matrix and render figure 2 + figure 3 + table 2.
pub fn render_all(opts: &HarnessOptions) -> String {
    let cells = run_matrix_parallel(opts.seed, &opts.sizes, opts.intervals);
    let mut out = String::new();
    let _ = writeln!(out, "{}", render_fig2(&fig2_panels(&cells)));
    let _ = writeln!(out, "{}", render_fig3(&fig3_panels(&cells)));
    let _ = writeln!(out, "{}", render_table2(&cells));
    if let Some(dir) = &opts.csv_dir {
        match write_matrix_csvs(&cells, dir).and_then(|mut files| {
            files.extend(write_matrix_json(&cells, opts, dir)?);
            Ok(files)
        }) {
            Ok(files) => {
                let _ = writeln!(out, "Result files written: {}", files.join(", "));
            }
            Err(e) => {
                let _ = writeln!(out, "Result export failed: {e}");
            }
        }
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

    #[test]
    fn options_parse_defaults_and_flags() {
        let opts = HarnessOptions::parse(std::iter::empty());
        assert_eq!(opts.seed, DEFAULT_SEED);
        assert_eq!(opts.sizes, vec![100, 1_000, 10_000]);
        let opts = HarnessOptions::parse(
            ["--seed", "7", "--sizes", "10,20", "--intervals", "5"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.sizes, vec![10, 20]);
        assert_eq!(opts.intervals, 5);
        let opts = HarnessOptions::parse(["--quick"].iter().map(|s| s.to_string()));
        assert_eq!(opts.sizes, vec![100, 1_000]);
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
