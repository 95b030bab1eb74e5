//! Regenerates **Figure 2** of the paper: the distribution of servers over
//! the five operating regimes before and after energy-aware load
//! balancing, for cluster sizes 10², 10³, 10⁴ at 30 % and 70 % average
//! load.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin fig2 -- [--seed N] [--sizes 100,1000,10000] [--intervals 40] [--quick]
//! ```

use ecolb::experiments::fig2_panels;
use ecolb_bench::{render_fig2, run_matrix_parallel, Args, HarnessOptions};

fn main() {
    let mut args = Args::new("fig2 [--seed N] [--sizes 100,1000,10000] [--intervals 40] [--quick]");
    let opts = HarnessOptions::read(&mut args, false);
    args.finish();
    let cells = run_matrix_parallel(opts.seed, &opts.sizes, opts.intervals);
    print!("{}", render_fig2(&fig2_panels(&cells)));
}
