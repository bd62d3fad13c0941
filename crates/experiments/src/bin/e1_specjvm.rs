//! E1 — SPECjvm2008 startup suite, the paper's headline table.
//!
//! Paper targets: 16 programs improved by 19 % on average within a
//! 200-minute budget each; three programs by 63 %, 51 % and 32 %.

use jtune_experiments::{render_suite_table, Experiment};

fn main() {
    let exp = Experiment::from_env("e1_specjvm", 200);
    let budget = exp.budget_mins();
    let rows = exp.run(exp.suite(jtune_workloads::specjvm2008_startup()));
    print!(
        "{}",
        render_suite_table(
            &format!("E1: SPECjvm2008 startup, {budget}-minute budget per program"),
            &rows
        )
    );
    println!("paper: average +19%, top-3 +63% / +51% / +32%");
    exp.telemetry.write_report();
}
