//! Regenerates **Table 2** of the paper: average in-cluster/local decision
//! ratio, its standard deviation, and the average number of sleeping
//! servers for the six cluster configurations.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin table2 -- [--seed N] [--sizes 100,1000,10000] [--intervals 40] [--quick] [--csv DIR]
//! ```

use ecolb_bench::{export_matrix, render_table2, run_matrix_parallel, Args, HarnessOptions};

fn main() {
    let mut args = Args::new(
        "table2 [--seed N] [--sizes 100,1000,10000] [--intervals 40] [--quick] [--csv DIR]",
    );
    let mut opts = HarnessOptions::read(&mut args, false);
    opts.csv_dir = args.value("--csv");
    args.finish();
    let cells = run_matrix_parallel(opts.seed, &opts.sizes, opts.intervals);
    if let Some(dir) = &opts.csv_dir {
        let files = export_matrix(&cells, &opts, dir);
        eprintln!("wrote {} result files to {dir}", files.len());
    }
    print!("{}", render_table2(&cells));
}
