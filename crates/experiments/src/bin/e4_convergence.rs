//! E4 — convergence: best-found improvement vs. tuning time for four
//! representative programs (the paper's motivation for the 200-minute
//! budget). One long session per program yields the whole curve.

use jtune_experiments::{improvement_at, text_table, Experiment};
use jtune_util::table::fpct;

fn main() {
    let exp = Experiment::from_env("e4_convergence", 200);
    let budget = exp.budget_mins();
    let programs = ["serial", "xml.validation", "compress", "dacapo:h2"];
    let checkpoints = [5.0, 10.0, 25.0, 50.0, 100.0, 150.0, budget as f64];

    let rows = exp.run(
        programs
            .iter()
            .map(|p| {
                let w = jtune_workloads::workload_by_name(p).expect("known program");
                exp.job(*p, w, exp.tuner_options(budget, exp.seed() ^ 0xE4))
            })
            .collect(),
    );

    println!("== E4: best-found improvement vs tuning time (minutes) ==");
    let minutes: Vec<String> = checkpoints.iter().map(|c| format!("{c:.0}min")).collect();
    let mut t = text_table("program", &minutes);
    for (p, row) in programs.iter().zip(rows.iter()) {
        let mut cells = vec![p.to_string()];
        cells.extend(checkpoints.iter().map(|c| fpct(improvement_at(row, *c))));
        t.row(cells);
    }
    print!("{}", t.render());
    println!("expectation: curves rise steeply early and flatten towards the budget,");
    println!("which is why the paper fixes 200 minutes per program.");
    exp.telemetry.write_report();
}
