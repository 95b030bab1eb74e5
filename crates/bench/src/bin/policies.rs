//! Runs the §3 policy-comparison suite (experiment P1): every capacity
//! policy the paper surveys, scored on energy saved and SLA violations
//! over a predictable diurnal trace and an unpredictable spiky trace.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin policies [--seed N]
//! ```

use ecolb_bench::HarnessOptions;

fn main() {
    let opts = HarnessOptions::parse(std::env::args().skip(1));
    print!("{}", ecolb_bench::policy_suite::render_suite(opts.seed));
}
