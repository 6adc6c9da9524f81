//! Figure 5 runtimes: `fair` (the default) runs Fig. 5a, the fairness-aware
//! methods; `ablation` runs Fig. 5b, FACTION vs its simplified variants plus
//! Random. See `faction_bench::figures::fig5`.
//!
//! ```text
//! cargo run -p faction-bench --release --bin fig5_runtime -- fair [--quick]
//! cargo run -p faction-bench --release --bin fig5_runtime -- ablation [--quick]
//! ```

use faction_bench::figures::{self, Fig5};
use faction_bench::{write_output, HarnessOptions};

fn main() {
    let (options, extra) = HarnessOptions::from_args(&["fair", "ablation"]);
    let panel = if extra.last() == Some(&"ablation") { Fig5::Ablation } else { Fig5::Fair };
    let rows = figures::fig5(&options, panel);
    let text = figures::render_fig5(panel, options.seeds, &rows);
    write_output(&options, panel.output_name(), &text, &rows);
}
