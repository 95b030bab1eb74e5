//! Regenerates every artifact of the paper in one run: Table 1, the
//! homogeneous model, Figure 2, Figure 3, Table 2, and the policy suite.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin all -- [--seed N] [--sizes 100,1000,10000] [--intervals 40] [--quick] [--csv DIR]
//! ```

use ecolb_bench::{render_all, render_homogeneous, render_table1, Args, HarnessOptions};

fn main() {
    let mut args =
        Args::new("all [--seed N] [--sizes 100,1000,10000] [--intervals 40] [--quick] [--csv DIR]");
    let mut opts = HarnessOptions::read(&mut args, false);
    opts.csv_dir = args.value("--csv");
    args.finish();
    println!("=== Table 1 ===\n{}", render_table1());
    println!(
        "=== Homogeneous model (eqs. 6–13) ===\n{}",
        render_homogeneous()
    );
    println!("=== Figures 2 & 3, Table 2 ===\n{}", render_all(&opts));
    println!(
        "=== Policy suite (§3, experiment P1) ===\n{}",
        ecolb_bench::policy_suite::render_suite(opts.seed)
    );
}
