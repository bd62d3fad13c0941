//! E10 — model-guided screening: surrogate-screened search (and the
//! bandit portfolio) vs. the plain pipeline at a fixed budget. The
//! claim under test: screening spends the same simulated budget on
//! fewer, better-chosen real measurements, so the tuned result is at
//! least as good and the plain run's final quality is reached with
//! strictly fewer measurements.

use autotuner_core::{ModelPolicy, TuningResult};
use jtune_experiments::Experiment;
use jtune_util::table::{fpct, Align, Table};

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
    let mut results: Vec<Vec<TuningResult>> = Vec::new();
    for (label, model, technique) in &variants {
        let mut row = Vec::new();
        for (i, p) in programs.iter().enumerate() {
            let w = jtune_workloads::workload_by_name(p).expect("known program");
            let mut opts = exp.tuner_options(budget, exp.seed() ^ 0xE10 ^ ((i as u64) << 16));
            if let Some(m) = model {
                opts.model = Some(*m);
            }
            if let Some(t) = technique {
                opts.technique = t.to_string();
            }
            let bus = exp.telemetry.bus_for(&format!("{label}+{p}"));
            row.push(exp.tune(w, opts, &bus).result);
        }
        results.push(row);
    }

    let mut headers = vec!["variant".to_string()];
    headers.extend(programs.iter().map(|p| p.to_string()));
    headers.extend(["mean".to_string(), "screened".to_string()]);
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut aligns = vec![Align::Left];
    aligns.extend(std::iter::repeat_n(Align::Right, programs.len() + 2));
    let mut t = Table::new(&headers_ref, &aligns);
    for ((label, _, _), row) in variants.iter().zip(&results) {
        let mut cells = vec![label.to_string()];
        let mut sum = 0.0;
        for r in row {
            let imp = r.improvement_percent();
            sum += imp;
            cells.push(fpct(imp));
        }
        cells.push(fpct(sum / programs.len() as f64));
        cells.push(
            row.iter()
                .map(|r| r.session.screened)
                .sum::<u64>()
                .to_string(),
        );
        t.row(cells);
    }
    print!("{}", t.render());

    // Cost to match: how many real measurements each variant needs to
    // reach the *plain* run's final best on the same program.
    println!();
    println!("-- measurements to reach the plain run's final score --");
    let mut headers2 = vec!["variant".to_string()];
    headers2.extend(programs.iter().map(|p| p.to_string()));
    headers2.push("total".to_string());
    let headers2_ref: Vec<&str> = headers2.iter().map(String::as_str).collect();
    let mut t2 = Table::new(&headers2_ref, &aligns[..aligns.len() - 1]);
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

    let plain_mean: f64 = results[0]
        .iter()
        .map(|r| r.improvement_percent())
        .sum::<f64>()
        / programs.len() as f64;
    let model_mean: f64 = results[1]
        .iter()
        .map(|r| r.improvement_percent())
        .sum::<f64>()
        / programs.len() as f64;
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
    if let Some(path) = exp.telemetry.write_report() {
        eprintln!("report: {}", path.display());
    }
}
