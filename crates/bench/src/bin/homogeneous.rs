//! Regenerates the **homogeneous cloud model** results (paper §4,
//! eqs. 6–13): the 2.25× energy-ratio example and a sweep of the
//! consolidated operating point.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin homogeneous
//! ```

fn main() {
    ecolb_bench::Args::new("homogeneous").finish();
    print!("{}", ecolb_bench::render_homogeneous());
}
