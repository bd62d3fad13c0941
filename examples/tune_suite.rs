//! Tune a whole benchmark suite and print the paper-style results table —
//! the scenario the paper's evaluation section is built from.
//!
//! ```sh
//! cargo run --release --example tune_suite [spec|dacapo] [budget-minutes]
//! ```
//!
//! Programs are seeded as E1 and E2 seed them (master seed 7), so a
//! 200-minute budget reproduces `results/e1_specjvm.txt` or
//! `results/e2_dacapo.txt` row for row.

use hotspot_autotuner::experiments::{render_suite_table, tuner_options, Experiment};
use hotspot_autotuner::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let suite = args.next().unwrap_or_else(|| "spec".to_string());
    let budget_mins: u64 = args.next().and_then(|b| b.parse().ok()).unwrap_or(20);

    let workloads = match suite.as_str() {
        "spec" => specjvm2008_startup(),
        "dacapo" => dacapo(),
        other => {
            eprintln!("unknown suite {other:?}: use `spec` or `dacapo`");
            std::process::exit(2);
        }
    };

    let exp = Experiment::new(tuner_options(budget_mins, 7));
    let rows = exp.run(exp.suite(workloads));
    let title = format!("suite {suite}, {budget_mins}-minute budget per program (paper: 200)");
    print!("{}", render_suite_table(&title, &rows));
}
