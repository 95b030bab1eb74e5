//! Regenerates **Table 1** of the paper: estimated average power use of
//! volume, mid-range, and high-end servers, 2000–2006 (Koomey \[13\]), plus
//! the fitted growth trends.
//!
//! ```text
//! cargo run --release -p ecolb-bench --bin table1
//! ```

fn main() {
    print!("{}", ecolb_bench::render_table1());
}
