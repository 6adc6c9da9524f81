//! Figure 2: per-task Accuracy / DDP / EOD / MI curves for FACTION and all
//! seven baselines on the five datasets. See `faction_bench::figures::fig2`.
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig2_curves [-- --quick --dataset NYSF --seeds 5]
//! ```

use faction_bench::{figures, write_output, HarnessOptions};

fn main() {
    let (options, _) = HarnessOptions::from_args(&[]);
    let rows = figures::fig2(&options);
    write_output(&options, "fig2_curves", &figures::render_fig2(&rows), &rows);
}
