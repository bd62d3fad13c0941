//! E2 — DaCapo suite table.
//!
//! Paper targets: 13 programs, average improvement 26 %, maximum 42 %,
//! with at least 200 minutes of tuning per program.

use jtune_experiments::{render_suite_table, Experiment};

fn main() {
    let exp = Experiment::from_env("e2_dacapo", 200);
    let budget = exp.budget_mins();
    let rows = exp.run(exp.suite(jtune_workloads::dacapo()));
    print!(
        "{}",
        render_suite_table(
            &format!("E2: DaCapo, {budget}-minute budget per program"),
            &rows
        )
    );
    println!("paper: average +26%, max +42%");
    exp.telemetry.write_report();
}
