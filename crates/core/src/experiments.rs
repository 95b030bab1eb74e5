//! Canned reproductions of every table and figure in the paper.
//!
//! The six heterogeneous-cluster experiments of §5 share one matrix: three
//! cluster sizes (10², 10³, 10⁴) × two initial-load bands (20–40 % and
//! 60–80 %), each run for 40 reallocation intervals. Figure 2 reads the
//! before/after regime censuses out of that matrix, Figure 3 the
//! per-interval decision-ratio series, and Table 2 the summary statistics.
//! Table 1 and the homogeneous model are analytic and live in
//! `ecolb-energy`; [`table1_rows`] and [`homogeneous_rows`] render them.

use ecolb_cluster::cluster::{Cluster, ClusterConfig, ClusterRunReport};
use ecolb_energy::homogeneous::HomogeneousModel;
use ecolb_energy::regimes::RegimeCensus;
use ecolb_energy::server_class::{table1_power_w, ServerClass, TABLE1_YEARS};
use ecolb_metrics::timeseries::TimeSeries;
use ecolb_workload::generator::WorkloadSpec;

/// The two §5 load levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadLevel {
    /// Initial per-server load uniform in 20–40 % ("average load 30 %").
    Low,
    /// Initial per-server load uniform in 60–80 % ("average load 70 %").
    High,
}

impl LoadLevel {
    /// Both levels in paper order.
    pub const ALL: [LoadLevel; 2] = [LoadLevel::Low, LoadLevel::High];

    /// The workload band for this level.
    pub fn workload(self) -> WorkloadSpec {
        match self {
            LoadLevel::Low => WorkloadSpec::paper_low_load(),
            LoadLevel::High => WorkloadSpec::paper_high_load(),
        }
    }

    /// The paper's "average load" percentage label.
    pub fn percent(self) -> u32 {
        match self {
            LoadLevel::Low => 30,
            LoadLevel::High => 70,
        }
    }
}

/// The cluster sizes of §5.
pub const PAPER_CLUSTER_SIZES: [usize; 3] = [100, 1_000, 10_000];

/// The paper's 40 reallocation intervals.
pub const PAPER_INTERVALS: u64 = 40;

/// One cell of the experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Cluster size `n`.
    pub size: usize,
    /// Load level.
    pub load: LoadLevel,
    /// The full run report.
    pub report: ClusterRunReport,
}

impl MatrixCell {
    /// The paper's plot label: (a)…(f) in Figure 2/3 & Table 2 order.
    pub fn plot_label(&self) -> &'static str {
        match (self.size, self.load) {
            (100, LoadLevel::Low) => "(a)",
            (100, LoadLevel::High) => "(b)",
            (1_000, LoadLevel::Low) => "(c)",
            (1_000, LoadLevel::High) => "(d)",
            (10_000, LoadLevel::Low) => "(e)",
            (10_000, LoadLevel::High) => "(f)",
            _ => "(?)",
        }
    }
}

/// Runs one matrix cell. The per-cell seed mixes the base seed with the
/// configuration so cells are independent but individually reproducible.
pub fn run_cell(base_seed: u64, size: usize, load: LoadLevel, intervals: u64) -> MatrixCell {
    let seed = base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(size as u64)
        .wrapping_add(load.percent() as u64);
    let config = ClusterConfig::paper(size, load.workload());
    let mut cluster = Cluster::new(config, seed);
    let report = cluster.run(intervals);
    MatrixCell { size, load, report }
}

/// Runs the full §5 matrix over the given sizes.
pub fn run_matrix(base_seed: u64, sizes: &[usize], intervals: u64) -> Vec<MatrixCell> {
    let mut cells = Vec::with_capacity(sizes.len() * 2);
    for &size in sizes {
        for load in LoadLevel::ALL {
            cells.push(run_cell(base_seed, size, load, intervals));
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// Figure 2 — regime distribution before/after balancing
// ---------------------------------------------------------------------------

/// One panel of Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Panel {
    /// Cluster size.
    pub size: usize,
    /// Load level.
    pub load: LoadLevel,
    /// Regime census before balancing.
    pub initial: RegimeCensus,
    /// Regime census of awake servers after the run.
    pub final_: RegimeCensus,
    /// Servers asleep at the end.
    pub sleeping: u64,
}

/// Extracts the Figure 2 panels from matrix cells.
pub fn fig2_panels(cells: &[MatrixCell]) -> Vec<Fig2Panel> {
    cells
        .iter()
        .map(|c| Fig2Panel {
            size: c.size,
            load: c.load,
            initial: c.report.initial_census,
            final_: c.report.final_census,
            sleeping: c.size as u64 - c.report.final_census.total(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3 — decision-ratio time series
// ---------------------------------------------------------------------------

/// One panel of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Panel {
    /// Cluster size.
    pub size: usize,
    /// Load level.
    pub load: LoadLevel,
    /// Per-interval in-cluster/local ratio.
    pub series: TimeSeries,
}

/// Extracts the Figure 3 panels from matrix cells.
pub fn fig3_panels(cells: &[MatrixCell]) -> Vec<Fig3Panel> {
    cells
        .iter()
        .map(|c| Fig3Panel {
            size: c.size,
            load: c.load,
            series: c.report.ratio_series.clone(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 2 — summary statistics
// ---------------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Plot label (a)…(f).
    pub plot: String,
    /// Cluster size.
    pub size: usize,
    /// Average load percentage (30/70).
    pub load_pct: u32,
    /// Average number of servers in a sleep state over the run.
    pub avg_sleeping: f64,
    /// Mean in-cluster/local decision ratio.
    pub avg_ratio: f64,
    /// Sample standard deviation of the ratio.
    pub std_dev: f64,
}

/// Builds Table 2 from matrix cells.
pub fn table2_rows(cells: &[MatrixCell]) -> Vec<Table2Row> {
    cells
        .iter()
        .map(|c| {
            let ratio_stats = c.report.ratio_series.stats();
            Table2Row {
                plot: c.plot_label().to_string(),
                size: c.size,
                load_pct: c.load.percent(),
                avg_sleeping: c.report.sleeping_series.stats().mean(),
                avg_ratio: ratio_stats.mean(),
                std_dev: ratio_stats.std_dev(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 1 — historical server power
// ---------------------------------------------------------------------------

/// One row of Table 1: class label plus the seven yearly Watt figures.
pub fn table1_rows() -> Vec<(String, Vec<f64>)> {
    ServerClass::ALL
        .iter()
        .map(|&class| {
            let watts = TABLE1_YEARS
                .iter()
                .map(|&y| table1_power_w(class, y).expect("year in range"))
                .collect();
            (class.label().to_string(), watts)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Homogeneous model — eqs. 6–13
// ---------------------------------------------------------------------------

/// A sweep point of the homogeneous model: `(a_opt, b_opt, ratio,
/// n_sleep)` for the paper's example `a_avg`/`b_avg`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomogeneousRow {
    /// Consolidated-server performance level.
    pub a_opt: f64,
    /// Consolidated-server energy level.
    pub b_opt: f64,
    /// `E_ref/E_opt`.
    pub ratio: f64,
    /// Sleepers out of 1000 servers.
    pub n_sleep: u64,
}

/// The paper's worked example plus a sweep of `a_opt`/`b_opt` around it.
pub fn homogeneous_rows() -> Vec<HomogeneousRow> {
    let mut rows = Vec::new();
    for &a_opt in &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        for &b_opt in &[0.65, 0.7, 0.75, 0.8, 0.9, 1.0] {
            let m = HomogeneousModel::new(1000, 0.0, 0.6, 0.6, a_opt, b_opt);
            rows.push(HomogeneousRow {
                a_opt,
                b_opt,
                ratio: m.energy_ratio(),
                n_sleep: m.n_sleep(),
            });
        }
    }
    rows
}

/// The single point the paper reports in eq. 13.
pub fn homogeneous_paper_point() -> HomogeneousRow {
    let m = HomogeneousModel::paper_example(1000);
    HomogeneousRow {
        a_opt: 0.9,
        b_opt: 0.8,
        ratio: m.energy_ratio(),
        n_sleep: m.n_sleep(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_INTERVALS: u64 = 15;

    #[test]
    fn run_cell_is_reproducible() {
        let a = run_cell(7, 60, LoadLevel::Low, TEST_INTERVALS);
        let b = run_cell(7, 60, LoadLevel::Low, TEST_INTERVALS);
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_covers_sizes_and_loads() {
        let cells = run_matrix(1, &[40, 80], TEST_INTERVALS);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].size, 40);
        assert_eq!(cells[0].load, LoadLevel::Low);
        assert_eq!(cells[3].size, 80);
        assert_eq!(cells[3].load, LoadLevel::High);
    }

    #[test]
    fn plot_labels_follow_paper_order() {
        for (size, load, label) in [
            (100, LoadLevel::Low, "(a)"),
            (100, LoadLevel::High, "(b)"),
            (1_000, LoadLevel::Low, "(c)"),
            (1_000, LoadLevel::High, "(d)"),
            (10_000, LoadLevel::Low, "(e)"),
            (10_000, LoadLevel::High, "(f)"),
        ] {
            let cell = MatrixCell {
                size,
                load,
                report: run_cell(1, 10, load, 1).report,
            };
            assert_eq!(cell.plot_label(), label);
        }
    }

    #[test]
    fn fig2_panels_preserve_server_count() {
        let cells = run_matrix(2, &[80], TEST_INTERVALS);
        for p in fig2_panels(&cells) {
            assert_eq!(p.initial.total(), 80, "everyone awake initially");
            assert_eq!(p.final_.total() + p.sleeping, 80);
        }
    }

    #[test]
    fn fig3_panels_have_full_series() {
        let cells = run_matrix(3, &[60], TEST_INTERVALS);
        for p in fig3_panels(&cells) {
            assert_eq!(p.series.len(), TEST_INTERVALS as usize);
        }
    }

    #[test]
    fn table2_matches_series_stats() {
        let cells = run_matrix(4, &[60], TEST_INTERVALS);
        let rows = table2_rows(&cells);
        assert_eq!(rows.len(), 2);
        for (row, cell) in rows.iter().zip(&cells) {
            assert_eq!(row.load_pct, cell.load.percent());
            let expect = cell.report.ratio_series.stats();
            assert!((row.avg_ratio - expect.mean()).abs() < 1e-12);
            assert!((row.std_dev - expect.std_dev()).abs() < 1e-12);
        }
    }

    #[test]
    fn high_load_rows_have_no_sleepers() {
        let cells = run_matrix(5, &[100], TEST_INTERVALS);
        let rows = table2_rows(&cells);
        let high = rows.iter().find(|r| r.load_pct == 70).unwrap();
        assert!(high.avg_sleeping < 2.0, "70 % load: {}", high.avg_sleeping);
    }

    #[test]
    fn table1_rows_match_source_data() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, "Vol");
        assert_eq!(rows[0].1[0], 186.0);
        assert_eq!(rows[2].1[6], 8_163.0);
    }

    #[test]
    fn homogeneous_paper_point_is_2_25() {
        let p = homogeneous_paper_point();
        assert!((p.ratio - 2.25).abs() < 1e-12);
        assert_eq!(p.n_sleep, 666);
    }

    #[test]
    fn homogeneous_sweep_is_monotone_in_b_opt() {
        let rows = homogeneous_rows();
        // For fixed a_opt, higher b_opt lowers the ratio.
        for pair in rows.windows(2) {
            if (pair[0].a_opt - pair[1].a_opt).abs() < 1e-12 {
                assert!(pair[0].ratio > pair[1].ratio);
            }
        }
    }
}
