//! E6 — which flags mattered: one-flag-reverted ablation of the best
//! configurations (the paper's discussion of found configurations).
//!
//! For each tuned program, every flag the best configuration changed is
//! reverted to its default individually; the slowdown that causes is that
//! flag's marginal impact. Flags whose reversion changes nothing are the
//! "hitchhikers" random search drags along — reported as a count.

use autotuner_core::analysis::{flag_impact, median_score, ImpactOptions};
use jtune_experiments::{text_table, Experiment};
use jtune_harness::SimExecutor;
use jtune_util::table::fpct;

fn main() {
    let exp = Experiment::from_env("e6_flag_impact", 200);
    let budget = exp.budget_mins();
    let programs = ["serial", "xml.validation", "dacapo:h2", "dacapo:xalan"];
    let workloads = programs.map(|p| jtune_workloads::workload_by_name(p).expect("known program"));
    let opts = exp.tuner_options(budget, exp.seed() ^ 0xE6);
    let jobs = programs.iter().zip(&workloads);
    let rows = exp.run(
        jobs.map(|(p, w)| exp.job(*p, w.clone(), opts.clone()))
            .collect(),
    );
    for ((p, w), row) in programs.iter().zip(workloads).zip(rows) {
        let ex = SimExecutor::new(w);
        let best = &row.result.best_config;
        // Median-of-5 scoring for stable ablation numbers; a reversion
        // that fails scores as infinitely slow.
        let opts = ImpactOptions {
            repeats: 5,
            seed: 0xABBA,
            hitchhiker_threshold: 0.25,
        };
        let best_secs = median_score(&ex, best, &opts);
        let impacts = flag_impact(&ex, best, opts);
        let hitchhikers = impacts
            .iter()
            .filter(|i| i.impact_percent.abs() < opts.hitchhiker_threshold)
            .count();

        println!(
            "== E6: {p} (default {:.2}s, tuned {:.2}s, {}) ==",
            row.default_secs,
            best_secs,
            fpct(row.improvement)
        );
        let mut t = text_table("flag setting", &["marginal impact"]);
        for i in impacts.iter().take(8) {
            t.row(vec![
                format!("{}={}", i.name, i.value),
                fpct(i.impact_percent),
            ]);
        }
        print!("{}", t.render());
        println!(
            "{} of {} changed flags are inert hitchhikers (|impact| < 0.25%)\n",
            hitchhikers,
            impacts.len()
        );
    }
    exp.telemetry.write_report();
}
