//! Theorem 1 validation: regret, cumulative fairness violation and query
//! complexity growth under the convex (logistic) instantiation. See
//! `faction_bench::figures::theory`.
//!
//! ```text
//! cargo run -p faction-bench --release --bin theory_bounds [-- --quick]
//! ```

use faction_bench::{figures, write_output, HarnessOptions};

fn main() {
    let (options, _) = HarnessOptions::from_args(&[]);
    let rows = figures::theory(&options);
    write_output(&options, "theory_bounds", &figures::render_theory(&rows), &rows);
}
