//! Model-guided screening contract tests: with `--model` off the trial
//! stream is byte-identical to the legacy pipeline (no model events, no
//! extra RNG draws); with it on the stream is bit-deterministic at any
//! worker count and survives kill + resume with the same screening
//! decisions.

use std::sync::Arc;

use hotspot_autotuner::prelude::*;
use hotspot_autotuner::tuner::TuningResult;

fn base_opts(seed: u64, workers: usize) -> TunerOptions {
    TunerOptions {
        budget: SimDuration::from_mins(8),
        seed,
        workers,
        batch: 4,
        ..TunerOptions::default()
    }
}

/// Run one observed session and return (JSONL stream, result).
fn traced(opts: TunerOptions) -> (String, TuningResult) {
    let workload = workload_by_name("compress").expect("built-in workload");
    let executor = SimExecutor::new(workload);
    let recorder = Arc::new(MemoryRecorder::new());
    let bus = TelemetryBus::new().with(recorder.clone());
    let result = Tuner::new(opts).run(&executor, "compress", &bus);
    (recorder.to_jsonl(), result)
}

#[test]
fn model_off_leaves_the_legacy_stream_untouched() {
    // The screen is opt-in: a default-options session must not consume
    // any model RNG, emit any model events, or change its signature.
    let opts = base_opts(42, 4);
    assert!(opts.model.is_none());
    assert!(!opts.signature().contains("model="));
    let (trace, result) = traced(opts.clone());
    assert!(!trace.contains("\"ModelFit\""));
    assert!(!trace.contains("\"CandidateScreened\""));
    assert_eq!(result.session.screened, 0);
    assert_eq!(result.session.model_fits, 0);

    // Byte-stable across reruns, like every legacy session.
    let (again, _) = traced(opts);
    assert_eq!(trace, again);
}

#[test]
fn model_on_changes_the_stream_and_stays_deterministic_across_workers() {
    let mut narrow = base_opts(42, 1);
    narrow.model = Some(ModelPolicy::default());
    let (trace_1, result_1) = traced(narrow.clone());
    assert!(trace_1.contains("\"ModelFit\""));
    assert!(
        result_1.session.screened > 0,
        "screen never rejected a proposal"
    );

    let mut wide = narrow.clone();
    wide.workers = 8;
    let (trace_8, result_8) = traced(wide);
    assert_eq!(
        trace_1, trace_8,
        "screening decisions must not depend on thread interleaving"
    );
    assert_eq!(result_1.session.to_json(), result_8.session.to_json());

    // And the model genuinely alters the search: the screened stream
    // differs from the plain one with the same seed.
    let (plain, _) = traced(base_opts(42, 1));
    assert_ne!(trace_1, plain);
}

#[test]
fn killed_model_session_resumes_to_identical_screening_decisions() {
    let path =
        std::env::temp_dir().join(format!("jtune-model-resume-{}.jsonl", std::process::id()));
    let mut opts = base_opts(7, 4);
    opts.model = Some(ModelPolicy {
        warmup: 6,
        ..ModelPolicy::default()
    });
    opts.checkpoint = Some(path.clone());
    let (original_trace, original) = traced(opts.clone());
    assert!(original.session.screened > 0, "screen never fired");
    let full = std::fs::read_to_string(&path).unwrap();

    // Kill mid-run: truncate the journal to the header plus a prefix of
    // trials, as a `kill -9` between checkpoint flushes would.
    let prefix: Vec<&str> = full.lines().take(10).collect();
    std::fs::write(&path, prefix.join("\n") + "\n").unwrap();

    opts.resume = Some(path.clone());
    let (resumed_trace, resumed) = traced(opts);
    assert_eq!(resumed.session, original.session);
    assert_eq!(resumed.session.screened, original.session.screened);
    // The replayed prefix refits the surrogate to the same state, so
    // even the per-candidate screening events match byte-for-byte.
    let screened_lines = |trace: &str| -> Vec<String> {
        trace
            .lines()
            .filter(|l| l.contains("\"CandidateScreened\"") || l.contains("\"ModelFit\""))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        screened_lines(&resumed_trace),
        screened_lines(&original_trace)
    );
    // The rebuilt journal is byte-identical to the uninterrupted one.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn portfolio_stream_is_deterministic_and_registered() {
    let names = hotspot_autotuner::tuner::TechniqueSet::names();
    assert!(names.contains(&"portfolio"));

    let mut opts = base_opts(11, 2);
    opts.technique = "portfolio".to_string();
    let (a, result_a) = traced(opts.clone());
    opts.workers = 8;
    let (b, result_b) = traced(opts);
    assert_eq!(a, b);
    assert!(result_a.session.best_secs <= result_a.session.default_secs);
    assert_eq!(result_a.session.to_json(), result_b.session.to_json());
}
