//! Integration tests for the adaptive evaluation pipeline: trial
//! memoization charges the budget correctly, within-batch duplicates run
//! once, sequential racing never aborts a candidate that would have won,
//! and the new trace events stay bit-deterministic across worker counts.

use std::sync::Arc;

use hotspot_autotuner::harness::{Evaluation, Provenance};
use hotspot_autotuner::prelude::*;
use hotspot_autotuner::tuner::manipulator::{ConfigManipulator, HierarchicalManipulator};
use hotspot_autotuner::util::Xoshiro256pp;

fn executor(name: &str) -> SimExecutor {
    SimExecutor::new(workload_by_name(name).expect("built-in workload"))
}

fn random_config(manipulator: &HierarchicalManipulator, seed: u64) -> JvmConfig {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    manipulator.random(&mut rng)
}

#[test]
fn cache_hits_are_free_and_recharge_is_proportional() {
    let ex = executor("compress");
    let m = HierarchicalManipulator::new();
    let cand = random_config(&m, 1);
    let bus = TelemetryBus::disabled();

    // Free-hit policy: the second sight of a configuration costs nothing.
    let mut pipeline = EvalPipeline::new(Protocol::default(), Some(CachePolicy { recharge: 0.0 }));
    let first = pipeline.evaluate_batch(&ex, std::slice::from_ref(&cand), 10, 1, None, &bus);
    let original_cost = first.evals[0].cost;
    assert!(original_cost.as_secs_f64() > 0.0);
    let again = pipeline.evaluate_batch(&ex, std::slice::from_ref(&cand), 20, 1, None, &bus);
    assert!(matches!(again.provenance[0], Provenance::CacheHit { .. }));
    assert_eq!(again.evals[0].cost.as_secs_f64(), 0.0);
    assert_eq!(again.evals[0].score, first.evals[0].score);
    let stats = pipeline.stats();
    assert_eq!((stats.fresh, stats.cache_hits), (1, 1));
    assert!((stats.saved.as_secs_f64() - original_cost.as_secs_f64()).abs() < 1e-9);

    // Re-charge policy: a hit costs the configured fraction of the
    // original, and only the remainder counts as saved.
    let mut half = EvalPipeline::new(Protocol::default(), Some(CachePolicy { recharge: 0.5 }));
    let first = half.evaluate_batch(&ex, std::slice::from_ref(&cand), 10, 1, None, &bus);
    let original = first.evals[0].cost.as_secs_f64();
    let hit = half.evaluate_batch(&ex, std::slice::from_ref(&cand), 20, 1, None, &bus);
    assert!((hit.evals[0].cost.as_secs_f64() - original * 0.5).abs() < 1e-6);
    assert!((half.stats().saved.as_secs_f64() - original * 0.5).abs() < 1e-6);
}

#[test]
fn within_batch_duplicates_run_once() {
    let ex = executor("serial");
    let m = HierarchicalManipulator::new();
    let a = random_config(&m, 2);
    let b = random_config(&m, 3);
    assert_ne!(a.fingerprint(), b.fingerprint());
    let batch = [a.clone(), a.clone(), b, a];

    let mut pipeline = EvalPipeline::new(Protocol::default(), Some(CachePolicy::default()));
    let report = pipeline.evaluate_batch(&ex, &batch, 77, 4, None, &TelemetryBus::disabled());

    assert_eq!(report.evals.len(), 4);
    assert!(matches!(report.provenance[0], Provenance::Fresh));
    assert!(matches!(
        report.provenance[1],
        Provenance::Duplicate { of: 0 }
    ));
    assert!(matches!(report.provenance[2], Provenance::Fresh));
    assert!(matches!(
        report.provenance[3],
        Provenance::Duplicate { of: 0 }
    ));
    for i in [1usize, 3] {
        assert_eq!(report.evals[i].score, report.evals[0].score);
        assert_eq!(report.evals[i].cost.as_secs_f64(), 0.0);
    }
    let stats = pipeline.stats();
    assert_eq!((stats.fresh, stats.suppressed), (2, 2));
}

/// The racing safety property: whenever the protocol aborts a candidate
/// against a baseline, measuring that candidate in full (same seeds, no
/// racing) must yield a score no better than the baseline's — racing may
/// only cut losers. Exercised over many seeds and random configurations.
#[test]
fn racing_never_aborts_a_winner() {
    let ex = executor("compress");
    let m = HierarchicalManipulator::new();
    let plain = Protocol::default();
    let racing = Protocol {
        racing: Some(Racing::default()),
        ..Protocol::default()
    };

    let baseline: Evaluation = plain.evaluate(&ex, &JvmConfig::default_for(ex.registry()), 0xBA5E);
    let baseline_secs: Vec<f64> = baseline.samples.iter().map(|s| s.as_secs_f64()).collect();
    let baseline_score = baseline.score.expect("default config runs");

    let mut aborts = 0;
    for seed in 0..120u64 {
        let cand = random_config(&m, 1000 + seed);
        let raced = racing.evaluate_raced(&ex, &cand, seed, Some(&baseline_secs));
        if !raced.aborted() {
            continue;
        }
        aborts += 1;
        assert!(raced.score.is_none(), "aborted candidates are censored");
        assert!(raced.runs < plain.repeats, "abort must save repeats");
        let full = plain.evaluate(&ex, &cand, seed);
        if let Some(full_score) = full.score {
            assert!(
                full_score >= baseline_score,
                "seed {seed}: aborted candidate would have won \
                 ({full_score:.4}s vs baseline {baseline_score:.4}s)"
            );
        }
    }
    assert!(aborts > 5, "property loop exercised only {aborts} aborts");
}

/// With cache and racing both on, the full event stream (including the
/// new CacheHit / DuplicateSuppressed / TrialAborted events) is
/// byte-identical whether evaluation runs on one worker or eight.
#[test]
fn pipeline_events_are_byte_identical_across_worker_counts() {
    let session = |workers: usize| {
        let ex = executor("compress");
        let opts = TunerOptions::builder()
            .budget(SimDuration::from_mins(3))
            .seed(42)
            .workers(workers)
            .batch(8)
            .cache(CachePolicy::default())
            .racing(Racing::default())
            .build()
            .expect("valid options");
        let recorder = Arc::new(MemoryRecorder::new());
        let bus = TelemetryBus::new().with(recorder.clone());
        let result = Tuner::new(opts).run(&ex, "compress", &bus);
        (recorder.to_jsonl(), result)
    };
    let (serial, serial_result) = session(1);
    let (parallel, parallel_result) = session(8);
    assert_eq!(
        serial_result.session.to_json(),
        parallel_result.session.to_json()
    );
    assert_eq!(
        serial, parallel,
        "pipeline telemetry must not depend on thread interleaving"
    );
    // The racing feature must actually have fired in this session, or the
    // determinism claim is vacuous.
    assert!(serial.contains("\"TrialAborted\""), "no aborts in stream");
    assert!(serial_result.session.aborted > 0);
}

/// Budget accounting at the session level: with the cache on, the charges
/// reported per trial still sum exactly to the session's spent budget
/// (cache hits charge their re-charge, duplicates charge zero).
#[test]
fn session_budget_accounting_holds_with_pipeline_features_on() {
    let ex = executor("serial");
    let opts = TunerOptions::builder()
        .budget(SimDuration::from_mins(2))
        .seed(9)
        .workers(4)
        .cache(CachePolicy { recharge: 0.25 })
        .racing(Racing::default())
        .build()
        .expect("valid options");
    let recorder = Arc::new(MemoryRecorder::new());
    let bus = TelemetryBus::new().with(recorder.clone());
    let _ = Tuner::new(opts).run(&ex, "serial", &bus);
    let mut total = 0.0;
    let mut finished = None;
    for e in recorder.events() {
        match e {
            TraceEvent::TrialEvaluated {
                cost_secs,
                budget_spent_secs,
                ..
            } => {
                total += cost_secs;
                assert!(
                    (total - budget_spent_secs).abs() < 1e-6,
                    "running charge mismatch: {total} vs {budget_spent_secs}"
                );
            }
            TraceEvent::SessionFinished { spent_secs, .. } => finished = Some(spent_secs),
            _ => {}
        }
    }
    let finished = finished.expect("SessionFinished event");
    assert!((finished - total).abs() < 1e-6);
}
