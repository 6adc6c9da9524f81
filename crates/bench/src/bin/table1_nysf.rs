//! Table I: FACTION vs its ablated variants on NYSF, with the paper's
//! reference values (Tesla V100) under the measured table. See
//! `faction_bench::figures::table1`.
//!
//! ```text
//! cargo run -p faction-bench --release --bin table1_nysf [-- --quick]
//! ```

use faction_bench::{figures, write_output, HarnessOptions};

fn main() {
    let (options, _) = HarnessOptions::from_args(&[]);
    let rows = figures::table1(&options);
    write_output(&options, "table1_nysf", &figures::render_table1(&rows), &rows);
}
