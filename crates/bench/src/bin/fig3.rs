//! Regenerates **Figure 3** of the paper: time series of the in-cluster to
//! local decision ratio over 40 reallocation intervals for the six cluster
//! configurations.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin fig3 -- [--seed N] [--sizes 100,1000,10000] [--intervals 40] [--quick] [--csv DIR]
//! ```

use ecolb::experiments::fig3_panels;
use ecolb_bench::{export_matrix, render_fig3, run_matrix_parallel, Args, HarnessOptions};

fn main() {
    let mut args = Args::new(
        "fig3 [--seed N] [--sizes 100,1000,10000] [--intervals 40] [--quick] [--csv DIR]",
    );
    let mut opts = HarnessOptions::read(&mut args, false);
    opts.csv_dir = args.value("--csv");
    args.finish();
    let cells = run_matrix_parallel(opts.seed, &opts.sizes, opts.intervals);
    if let Some(dir) = &opts.csv_dir {
        let files = export_matrix(&cells, &opts, dir);
        eprintln!("wrote {} result files to {dir}", files.len());
    }
    print!("{}", render_fig3(&fig3_panels(&cells)));
}
