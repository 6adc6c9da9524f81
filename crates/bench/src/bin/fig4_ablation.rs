//! Figure 4: FACTION vs its simplified variants on all datasets;
//! `--extended` adds FACTION with a shared-covariance GDA. See
//! `faction_bench::figures::fig4`.
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig4_ablation [-- --quick --extended]
//! ```

use faction_bench::{figures, write_output, HarnessOptions};

fn main() {
    let (options, extra) = HarnessOptions::from_args(&["--extended"]);
    let rows = figures::fig4(&options, !extra.is_empty());
    write_output(&options, "fig4_ablation", &figures::render_fig4(&rows), &rows);
}
