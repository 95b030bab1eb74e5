//! Runs the §3 policy-comparison suite (experiment P1): every capacity
//! policy the paper surveys, scored on energy saved and SLA violations
//! over a predictable diurnal trace and an unpredictable spiky trace.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin policies -- [--seed N]
//! ```

use ecolb_bench::{Args, DEFAULT_SEED};

fn main() {
    let mut args = Args::new("policies [--seed N]");
    let seed = args.value("--seed").unwrap_or(DEFAULT_SEED);
    args.finish();
    print!("{}", ecolb_bench::policy_suite::render_suite(seed));
}
