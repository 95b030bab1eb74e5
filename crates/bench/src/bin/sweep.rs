//! Cross-seed robustness sweep of the Table 2 statistics.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin sweep -- [--seed N] [--sizes 100,1000] [--intervals 40]
//! ```
//!
//! Runs the experiment matrix over 10 seeds derived from `--seed` and
//! prints cross-seed mean ± sd for every configuration — evidence the
//! reproduced shapes are not seed artifacts.

use ecolb_bench::sweep::{multi_seed_table2, render_sweep};
use ecolb_bench::{Args, HarnessOptions};
use ecolb_simcore::par::default_threads;

fn main() {
    let mut args = Args::new("sweep [--seed N] [--sizes 100,1000] [--intervals 40]");
    // The full 10^4 x 10-seed sweep is hours, so the sizes default to
    // 100,1000 and there is no `--quick` to ask for them.
    let opts = HarnessOptions::read(&mut args, true);
    args.finish();
    let seeds: Vec<u64> = (0..10).map(|i| opts.seed.wrapping_add(i * 7919)).collect();
    let rows = multi_seed_table2(&seeds, &opts.sizes, opts.intervals, default_threads());
    print!("{}", render_sweep(&rows, seeds.len()));
}
