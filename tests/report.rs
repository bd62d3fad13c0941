//! End-to-end reporting contract tests: `jtune report` output is
//! byte-deterministic (same input → same bytes, at any worker count),
//! and turning spans on changes nothing about the serialised trace —
//! the report pipeline observes sessions without perturbing them.

use std::path::PathBuf;
use std::sync::Arc;

use hotspot_autotuner::prelude::*;
use hotspot_autotuner::report;

/// A fresh temp directory whose *leaf* name is always `traces`, so the
/// report title (derived from the input path) is identical across
/// otherwise-identical runs.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("jtune-report-{}-{name}", std::process::id()))
        .join("traces");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Run one traced session into `dir/<program>.jsonl`.
fn traced_session(dir: &std::path::Path, program: &str, workers: usize, seed: u64, spans: bool) {
    let workload = workload_by_name(program).expect("built-in workload");
    let executor = SimExecutor::new(workload);
    let opts = TunerOptions {
        budget: SimDuration::from_mins(2),
        seed,
        workers,
        batch: 8,
        ..TunerOptions::default()
    };
    let sink = JsonlSink::create(dir.join(format!("{program}.jsonl"))).expect("trace file");
    let bus = TelemetryBus::new().with(Arc::new(sink)).with_spans(spans);
    Tuner::new(opts).run(&executor, program, &bus);
}

#[test]
fn report_is_byte_identical_across_runs() {
    let a = temp_dir("rerun-a");
    let b = temp_dir("rerun-b");
    traced_session(&a, "compress", 4, 42, false);
    traced_session(&b, "compress", 4, 42, false);
    let ra = report::load(&a).expect("report a");
    let rb = report::load(&b).expect("report b");
    for format in [
        report::Format::Markdown,
        report::Format::Html,
        report::Format::Json,
    ] {
        assert_eq!(
            report::render(&ra, format),
            report::render(&rb, format),
            "{format:?} must be byte-identical across identical runs"
        );
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn report_is_worker_count_independent() {
    let serial = temp_dir("workers-1");
    let parallel = temp_dir("workers-8");
    traced_session(&serial, "compress", 1, 7, false);
    traced_session(&parallel, "compress", 8, 7, false);
    let rs = report::load(&serial).expect("serial report");
    let rp = report::load(&parallel).expect("parallel report");
    assert_eq!(
        report::to_markdown(&rs),
        report::to_markdown(&rp),
        "reports must not depend on thread interleaving"
    );
    assert_eq!(report::to_html(&rs), report::to_html(&rp));
    let _ = std::fs::remove_dir_all(&serial);
    let _ = std::fs::remove_dir_all(&parallel);
}

#[test]
fn spans_do_not_change_the_serialised_trace() {
    let off = temp_dir("spans-off");
    let on = temp_dir("spans-on");
    traced_session(&off, "compress", 4, 42, false);
    traced_session(&on, "compress", 4, 42, true);
    let trace_off = std::fs::read(off.join("compress.jsonl")).expect("spans-off trace");
    let trace_on = std::fs::read(on.join("compress.jsonl")).expect("spans-on trace");
    assert!(!trace_off.is_empty());
    assert_eq!(
        trace_off, trace_on,
        "spans are ephemeral: the JSONL trace must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&off);
    let _ = std::fs::remove_dir_all(&on);
}

#[test]
fn experiment_dir_report_covers_every_session_in_name_order() {
    let dir = temp_dir("suite");
    traced_session(&dir, "serial", 4, 1, false);
    traced_session(&dir, "compress", 4, 2, false);
    let r = report::load(&dir).expect("suite report");
    let labels: Vec<&str> = r.sessions.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, ["compress", "serial"], "sessions sort by name");
    let md = report::to_markdown(&r);
    for section in [
        "## Overview",
        "### Convergence",
        "### Techniques",
        "### Counters",
        "### Flag impact",
    ] {
        assert!(md.contains(section), "markdown must contain {section:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_report_round_trips_through_the_parser() {
    let dir = temp_dir("json");
    traced_session(&dir, "compress", 4, 3, false);
    let r = report::load(&dir).expect("report");
    let json = report::to_json(&r);
    let parsed = hotspot_autotuner::util::json::parse(&json).expect("valid JSON");
    let sessions = parsed
        .get("sessions")
        .and_then(|v| v.as_array())
        .expect("sessions array");
    assert_eq!(sessions.len(), 1);
    assert_eq!(
        sessions[0].get("program").and_then(|v| v.as_str()),
        Some("compress")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The Markdown report of the failing-default session: its `null`
/// default and best scores read as 0.
const FAILING_DEFAULT_MD: &str = r#"# jtune report

Input: `traces` — 1 session(s)

## Overview

| session | program | technique | default (s) | best (s) | improvement | evals | spent (s) |
|---|---|---|---|---|---|---|---|
| compress | compress | ensemble | 0.000 | 0.000 | +0.0% | 1 | 2.207 |

## compress

Program `compress`, seed 7, budget 120.000 s; best delta: (default configuration)

### Convergence

| eval | spent (s) | best (s) |
|---|---|---|

### Techniques

| technique | proposals | failures | wins | reward (s) | best (s) |
|---|---|---|---|---|---|
| default | 1 | 1 | 0 | 0.000 | — |

### Counters

| counter | value |
|---|---|
| evaluations | 1 |
| failures | 1 |
| cache hits | 0 |
| duplicates suppressed | 0 |
| racing aborts | 0 |
| retries | 0 |
| quarantined | 0 |
| screened | 0 |
| model fits | 0 |
| checkpoints | 0 |
| budget saved (s) | 0.000 |

### Flag impact

No `-XX:` flags appeared in any trial delta.
"#;

#[test]
fn failing_default_session_renders_null_scores_as_zero() {
    // Live set far beyond the default heap: the default run OOMs, so the
    // trace's `SessionFinished.default_secs` is `null`.
    let dir = temp_dir("failing-default");
    let mut w = Workload::baseline("compress");
    w.total_work = 2e9;
    w.live_set = 3e9;
    w.nursery_survival = 0.6;
    w.alloc_rate = 10.0;
    let opts = TunerOptions {
        budget: SimDuration::from_mins(2),
        seed: 7,
        workers: 2,
        batch: 4,
        ..TunerOptions::default()
    };
    let sink = JsonlSink::create(dir.join("compress.jsonl")).expect("trace file");
    let bus = TelemetryBus::new().with(Arc::new(sink));
    Tuner::new(opts).run(&SimExecutor::new(w), "compress", &bus);
    drop(bus);
    let trace = std::fs::read_to_string(dir.join("compress.jsonl")).expect("trace");
    assert!(trace.contains("\"default_secs\":null"), "{trace}");
    let md = report::to_markdown(&report::load(&dir).expect("report"));
    assert_eq!(md, FAILING_DEFAULT_MD);
    let _ = std::fs::remove_dir_all(&dir);
}
