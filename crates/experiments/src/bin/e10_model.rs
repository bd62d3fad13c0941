//! E10 — model-guided screening: surrogate-screened search (and the
//! bandit portfolio) vs. the plain pipeline at a fixed budget. The
//! claim under test: screening spends the same simulated budget on
//! fewer, better-chosen real measurements, so the tuned result is at
//! least as good and the plain run's final quality is reached with
//! strictly fewer measurements.

use autotuner_core::{ModelPolicy, TuningResult};
use jtune_experiments::{text_table, Experiment};
use jtune_util::table::fpct;

/// Real measurements (budget-charged trials) before the session's
/// best-so-far first reaches `target_secs`; `None` if it never does.
fn measurements_to_reach(result: &TuningResult, target_secs: f64) -> Option<u64> {
    let mut measured = 0u64;
    for t in &result.session.trials {
        measured += 1;
        if let Some(s) = t.score_secs {
            if s <= target_secs {
                return Some(measured);
            }
        }
    }
    None
}

fn main() {
    let exp = Experiment::from_env("e10_model", 100);
    let budget = exp.budget_mins();
    let programs = ["serial", "xml.validation", "compiler.compiler", "dacapo:h2"];
    let variants: [(&str, Option<ModelPolicy>, Option<&str>); 4] = [
        ("plain", None, None),
        ("model", Some(ModelPolicy::default()), None),
        ("portfolio", None, Some("portfolio")),
        (
            "model+portfolio",
            Some(ModelPolicy::default()),
            Some("portfolio"),
        ),
    ];

    println!("== E10: model-guided screening, {budget}-minute budget ==");
    let mut jobs = Vec::new();
    for (label, model, technique) in &variants {
        for (i, p) in programs.iter().enumerate() {
            let w = jtune_workloads::workload_by_name(p).expect("known program");
            let mut opts = exp.tuner_options(budget, exp.seed() ^ 0xE10 ^ ((i as u64) << 16));
            if let Some(m) = model {
                opts.model = Some(*m);
            }
            if let Some(t) = technique {
                opts.technique = t.to_string();
            }
            jobs.push(exp.job(format!("{label}+{p}"), w, opts));
        }
    }
    let mut rows = exp.run(jobs).into_iter().map(|r| r.result);
    let results: Vec<Vec<TuningResult>> = variants
        .iter()
        .map(|_| rows.by_ref().take(programs.len()).collect())
        .collect();
    let mean = |row: &[TuningResult]| {
        row.iter().map(|r| r.improvement_percent()).sum::<f64>() / programs.len() as f64
    };

    let mut t = text_table("variant", &[&programs[..], &["mean", "screened"]].concat());
    for ((label, _, _), row) in variants.iter().zip(&results) {
        let mut cells = vec![label.to_string()];
        cells.extend(row.iter().map(|r| fpct(r.improvement_percent())));
        cells.push(fpct(mean(row)));
        let screened: u64 = row.iter().map(|r| r.session.screened).sum();
        cells.push(screened.to_string());
        t.row(cells);
    }
    print!("{}", t.render());

    // Cost to match: how many real measurements each variant needs to
    // reach the *plain* run's final best on the same program.
    println!();
    println!("-- measurements to reach the plain run's final score --");
    let mut t2 = text_table("variant", &[&programs[..], &["total"]].concat());
    for ((label, _, _), row) in variants.iter().zip(&results) {
        let mut cells = vec![label.to_string()];
        let mut total = 0u64;
        for (i, r) in row.iter().enumerate() {
            let target = results[0][i].session.best_secs;
            match measurements_to_reach(r, target) {
                Some(n) => {
                    total += n;
                    cells.push(n.to_string());
                }
                None => {
                    total += r.session.evaluations;
                    cells.push("never".to_string());
                }
            }
        }
        cells.push(total.to_string());
        t2.row(cells);
    }
    print!("{}", t2.render());

    let (plain_mean, model_mean) = (mean(&results[0]), mean(&results[1]));
    let plain_cost: u64 = results[0].iter().map(|r| r.session.evaluations).sum();
    let model_cost: u64 = results[1]
        .iter()
        .enumerate()
        .map(|(i, r)| {
            measurements_to_reach(r, results[0][i].session.best_secs)
                .unwrap_or(r.session.evaluations)
        })
        .sum();
    println!();
    println!(
        "model-guided mean {model_mean:.1}% vs plain {plain_mean:.1}%; \
         plain's final quality reached after {model_cost} measurements \
         (plain spent {plain_cost})"
    );
    println!("the screen trades cheap surrogate scores for expensive JVM runs:");
    println!("each round over-proposes, keeps only the acquisition-ranked best,");
    println!("and the budget those rejects would have burned goes to real trials.");
    exp.telemetry.write_report();
}
