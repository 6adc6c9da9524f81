//! Figure 3: fairness–accuracy trade-off sweeps of the fairness-aware
//! methods. See `faction_bench::figures::fig3`.
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig3_tradeoff [-- --quick --dataset NYSF]
//! ```

use faction_bench::{figures, write_output, HarnessOptions};

fn main() {
    let (options, _) = HarnessOptions::from_args(&[]);
    let points = figures::fig3(&options);
    write_output(&options, "fig3_tradeoff", &figures::render_fig3(&points), &points);
}
