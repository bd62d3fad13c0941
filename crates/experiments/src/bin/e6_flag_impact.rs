//! E6 — which flags mattered: one-flag-reverted ablation of the best
//! configurations (the paper's discussion of found configurations).
//!
//! For each tuned program, every flag the best configuration changed is
//! reverted to its default individually; the slowdown that causes is that
//! flag's marginal impact. Flags whose reversion changes nothing are the
//! "hitchhikers" random search drags along — reported as a count.

use jtune_experiments::Experiment;
use jtune_harness::{Executor, SimExecutor};
use jtune_util::stats;
use jtune_util::table::{fpct, Align, Table};

fn main() {
    let exp = Experiment::from_env("e6_flag_impact", 200);
    let budget = exp.budget_mins();
    let programs = ["serial", "xml.validation", "dacapo:h2", "dacapo:xalan"];
    for p in programs {
        let w = jtune_workloads::workload_by_name(p).expect("known program");
        let bus = exp.telemetry.bus_for(p);
        let row = exp.tune(
            w.clone(),
            exp.tuner_options(budget, exp.seed() ^ 0xE6),
            &bus,
        );
        let ex = SimExecutor::new(w);
        let registry = ex.registry();
        let best = &row.result.best_config;
        // Median-of-5 scoring for stable ablation numbers.
        let score = |c: &jtune_flags::JvmConfig| -> f64 {
            let times: Vec<f64> = (0..5)
                .map(|i| ex.measure(c, 0xABBA + i).time.as_secs_f64())
                .collect();
            stats::median(&times)
        };
        let best_secs = score(best);
        let delta = best.delta(registry);
        let mut impacts: Vec<(String, f64)> = delta
            .iter()
            .map(|d| {
                let mut reverted = best.clone();
                reverted.set(d.id, d.default);
                let secs = score(&reverted);
                (
                    format!("{}={}", d.name, d.value),
                    stats::improvement_percent(secs, best_secs),
                )
            })
            .collect();
        impacts.sort_by(|a, b| b.1.total_cmp(&a.1));
        let hitchhikers = impacts.iter().filter(|(_, i)| i.abs() < 0.25).count();

        println!(
            "== E6: {p} (default {:.2}s, tuned {:.2}s, {}) ==",
            row.default_secs,
            best_secs,
            fpct(row.improvement)
        );
        let mut t = Table::new(
            &["flag setting", "marginal impact"],
            &[Align::Left, Align::Right],
        );
        for (flag, impact) in impacts.iter().take(8) {
            t.row(vec![flag.clone(), fpct(*impact)]);
        }
        print!("{}", t.render());
        println!(
            "{} of {} changed flags are inert hitchhikers (|impact| < 0.25%)\n",
            hitchhikers,
            impacts.len()
        );
    }
    if let Some(path) = exp.telemetry.write_report() {
        eprintln!("report: {}", path.display());
    }
}
