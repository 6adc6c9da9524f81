//! Figure 6: the full method lineup on CelebA with the wide architecture.
//! See `faction_bench::figures::fig6`.
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig6_wide [-- --quick]
//! ```

use faction_bench::{figures, write_output, HarnessOptions};

fn main() {
    let (options, _) = HarnessOptions::from_args(&[]);
    let rows = figures::fig6(&options);
    write_output(&options, "fig6_wide", &figures::render_fig6(&rows), &rows);
}
