//! End-to-end telemetry contract tests: the event stream is
//! bit-deterministic for a given seed regardless of worker count, every
//! trial in the session record has a matching `TrialEvaluated` event, and
//! the budget charges in the stream account for the session's spent
//! budget exactly.

use std::sync::Arc;

use hotspot_autotuner::harness::SessionRecord;
use hotspot_autotuner::prelude::*;
use hotspot_autotuner::tuner::TuningResult;

/// Run one observed session and return (JSONL stream, events, result).
fn observed_session(workers: usize, seed: u64) -> (String, Vec<TraceEvent>, TuningResult) {
    let workload = workload_by_name("compress").expect("built-in workload");
    let executor = SimExecutor::new(workload);
    let opts = TunerOptions {
        budget: SimDuration::from_mins(2),
        seed,
        workers,
        batch: 8,
        ..TunerOptions::default()
    };
    let recorder = Arc::new(MemoryRecorder::new());
    let bus = TelemetryBus::new().with(recorder.clone());
    let result = Tuner::new(opts).run(&executor, "compress", &bus);
    (recorder.to_jsonl(), recorder.events(), result)
}

#[test]
fn event_stream_is_byte_identical_across_worker_counts() {
    let (serial, _, serial_result) = observed_session(1, 42);
    let (parallel, _, parallel_result) = observed_session(8, 42);
    assert_eq!(
        serial_result.session.to_json(),
        parallel_result.session.to_json()
    );
    assert_eq!(
        serial, parallel,
        "telemetry must not depend on thread interleaving"
    );
    assert!(!serial.is_empty());
}

#[test]
fn event_stream_is_byte_identical_across_reruns() {
    let (a, _, _) = observed_session(4, 7);
    let (b, _, _) = observed_session(4, 7);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_produce_different_streams() {
    let (a, _, _) = observed_session(1, 1);
    let (b, _, _) = observed_session(1, 2);
    assert_ne!(a, b);
}

/// Every trial in the session record has exactly one `TrialEvaluated`
/// event, with matching index, technique and score.
#[test]
fn every_trial_has_a_matching_evaluated_event() {
    let (_, events, result) = observed_session(2, 11);
    let session: &SessionRecord = &result.session;
    let evaluated: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TrialEvaluated {
                index,
                technique,
                score_secs,
                ..
            } => Some((*index, technique.clone(), *score_secs)),
            _ => None,
        })
        .collect();
    assert_eq!(evaluated.len() as u64, session.evaluations);
    assert!(!session.trials.is_empty());
    for trial in &session.trials {
        let hits: Vec<_> = evaluated
            .iter()
            .filter(|(i, _, _)| *i == trial.index)
            .collect();
        assert_eq!(hits.len(), 1, "trial #{} events", trial.index);
        let (_, technique, score) = hits[0];
        assert_eq!(technique, &trial.technique, "trial #{}", trial.index);
        assert_eq!(*score, trial.score_secs, "trial #{}", trial.index);
    }
}

/// The per-trial budget charges in the stream sum to the session's spent
/// budget: `cost_secs` accumulates to the final `budget_spent_secs` and
/// to `SessionFinished.spent_secs`.
#[test]
fn budget_charges_sum_to_session_spent() {
    let (_, events, _) = observed_session(4, 5);
    let mut total_cost = 0.0;
    let mut last_spent = 0.0;
    for e in &events {
        if let TraceEvent::TrialEvaluated {
            cost_secs,
            budget_spent_secs,
            ..
        } = e
        {
            total_cost += cost_secs;
            last_spent = *budget_spent_secs;
            assert!(
                (total_cost - budget_spent_secs).abs() < 1e-6,
                "running charge mismatch: {total_cost} vs {budget_spent_secs}"
            );
        }
    }
    let finished = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::SessionFinished { spent_secs, .. } => Some(*spent_secs),
            _ => None,
        })
        .expect("SessionFinished event");
    assert!((finished - last_spent).abs() < 1e-6);
    assert!(total_cost > 0.0);
}

/// Session boundaries are present and ordered; exhaustion is reported at
/// most once and only after the budget was actually crossed.
#[test]
fn session_lifecycle_events_are_well_formed() {
    let (_, events, _) = observed_session(2, 3);
    assert!(matches!(
        events.first(),
        Some(TraceEvent::SessionStarted { .. })
    ));
    assert!(matches!(
        events.last(),
        Some(TraceEvent::SessionFinished { .. })
    ));
    let exhausted: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::BudgetExhausted {
                spent_secs,
                total_secs,
                ..
            } => Some((*spent_secs, *total_secs)),
            _ => None,
        })
        .collect();
    assert!(
        exhausted.len() <= 1,
        "BudgetExhausted fired {} times",
        exhausted.len()
    );
    if let Some((spent, total)) = exhausted.first() {
        assert!(spent >= total);
    }
}

/// The in-memory stream and the JSONL file sink render the same bytes.
#[test]
fn jsonl_sink_matches_memory_recorder() {
    let workload = workload_by_name("serial").expect("built-in workload");
    let executor = SimExecutor::new(workload);
    let opts = TunerOptions {
        budget: SimDuration::from_secs(30),
        seed: 9,
        workers: 4,
        ..TunerOptions::default()
    };
    let dir = std::env::temp_dir().join(format!("jtune-telemetry-{}", std::process::id()));
    let path = dir.join("trace.jsonl");
    let recorder = Arc::new(MemoryRecorder::new());
    let sink = Arc::new(JsonlSink::create(&path).expect("create trace file"));
    let bus = TelemetryBus::new()
        .with(recorder.clone())
        .with(sink.clone());
    let _ = Tuner::new(opts).run(&executor, "serial", &bus);
    assert_eq!(sink.write_errors(), 0);
    let from_file = std::fs::read_to_string(&path).expect("read trace back");
    assert_eq!(from_file, recorder.to_jsonl());
    let _ = std::fs::remove_dir_all(&dir);
}
