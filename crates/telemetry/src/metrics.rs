//! Metrics registry: counters and latency histograms over the event
//! stream.
//!
//! Aggregates what the JSONL trace records event-by-event, reusing
//! [`jtune_util::Histogram`] for the latency-shaped quantities (trial
//! scores, budget charges, GC pause totals, JIT stall time). Experiment
//! drivers render a snapshot at the end of a run; long-lived services
//! can poll it while a session runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

use jtune_util::json::JsonObject;
use jtune_util::{Histogram, SimDuration};

use crate::bus::TuningObserver;
use crate::event::TraceEvent;

/// Bucket upper bounds (seconds) for [`FixedHistogram`]: decades from
/// 1 µs to 100 s. A final implicit overflow bucket catches everything
/// above the last bound.
pub const WALL_BUCKETS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// A fixed-bucket histogram for wall-clock seconds.
///
/// Unlike [`jtune_util::Histogram`] (log-scaled, sized for virtual-time
/// quantities), the bucket bounds here are a compile-time constant
/// ([`WALL_BUCKETS`]), so two histograms fed the same samples are always
/// structurally identical — which keeps snapshots and the server `stats`
/// payload shape stable across runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FixedHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl FixedHistogram {
    /// Empty histogram.
    pub fn new() -> FixedHistogram {
        FixedHistogram {
            buckets: vec![0; WALL_BUCKETS.len() + 1],
            ..FixedHistogram::default()
        }
    }

    /// Record one sample (seconds). Negative / non-finite samples are
    /// clamped to zero so a clock hiccup cannot corrupt the aggregate.
    pub fn record(&mut self, secs: f64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; WALL_BUCKETS.len() + 1];
        }
        let secs = if secs.is_finite() && secs > 0.0 {
            secs
        } else {
            0.0
        };
        let idx = WALL_BUCKETS
            .iter()
            .position(|&bound| secs <= bound)
            .unwrap_or(WALL_BUCKETS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += secs;
        if secs > self.max {
            self.max = secs;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (seconds).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Per-bucket counts, aligned with [`WALL_BUCKETS`] plus one final
    /// overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &FixedHistogram) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; WALL_BUCKETS.len() + 1];
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Render as a JSON object (`count`/`sum`/`mean`/`max`/`buckets`).
    pub fn to_json(&self) -> String {
        let counts: Vec<u64> = if self.buckets.is_empty() {
            vec![0; WALL_BUCKETS.len() + 1]
        } else {
            self.buckets.clone()
        };
        JsonObject::new()
            .u64("count", self.count)
            .f64("sum", self.sum)
            .f64("mean", self.mean())
            .f64("max", self.max)
            .u64_array("buckets", &counts)
            .finish()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    wall: BTreeMap<String, FixedHistogram>,
}

impl Inner {
    fn bump(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    fn observe(&mut self, name: &'static str, d: SimDuration) {
        self.histograms.entry(name).or_default().record(d);
    }

    fn observe_wall(&mut self, name: &str, secs: f64) {
        self.wall.entry(name.to_string()).or_default().record(secs);
    }
}

/// Map a span phase name to its wall-histogram name.
fn wall_metric_for(phase: &str) -> String {
    match phase {
        crate::bus::phase::TRIAL => "trial_wall".to_string(),
        crate::bus::phase::MEASURE => "batch_wall".to_string(),
        crate::bus::phase::FRAME => "frame_wall".to_string(),
        other => format!("phase_{other}"),
    }
}

/// Thread-safe counters + histograms fed by trace events.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Lock the registry, recovering from poison: a panicking observer
    /// thread must not take the metrics (or anything draining them at
    /// shutdown) down with it — partial aggregates beat none.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of a histogram (`None` if it has no samples yet).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Record one wall-clock sample directly (bypassing the event
    /// stream) — used by code that times work the bus never sees, e.g.
    /// the server's per-frame handling histogram.
    pub fn record_wall(&self, name: &str, secs: f64) {
        self.lock().observe_wall(name, secs);
    }

    /// Snapshot of a wall-clock histogram (`None` if never recorded).
    pub fn wall_histogram(&self, name: &str) -> Option<FixedHistogram> {
        self.lock().wall.get(name).cloned()
    }

    /// A registry holding only this one's wall-clock histograms: what an
    /// owner keeps once the rest has been rendered for good.
    pub fn wall_only(&self) -> MetricsRegistry {
        let wall = self.lock().wall.clone();
        MetricsRegistry {
            inner: Mutex::new(Inner {
                wall,
                ..Inner::default()
            }),
        }
    }

    /// Names of all wall-clock histograms with at least one sample, in
    /// sorted order.
    pub fn wall_names(&self) -> Vec<String> {
        self.lock().wall.keys().cloned().collect()
    }

    /// Render a compact plain-text report of all non-zero metrics.
    pub fn render(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let _ = writeln!(out, "counters:");
        for (name, v) in &inner.counters {
            let _ = writeln!(out, "  {name:<24} {v}");
        }
        let _ = writeln!(out, "histograms:");
        for (name, h) in &inner.histograms {
            let _ = writeln!(
                out,
                "  {name:<24} n={} mean={} p50={} p99={} max={}",
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.max(),
            );
        }
        if !inner.wall.is_empty() {
            let _ = writeln!(out, "wall:");
            for (name, h) in &inner.wall {
                let _ = writeln!(
                    out,
                    "  {name:<24} n={} mean={:.6}s max={:.6}s",
                    h.count(),
                    h.mean(),
                    h.max(),
                );
            }
        }
        out
    }

    /// Render the full registry as one JSON object:
    /// `{"counters":{...},"histograms":{...},"wall":{...}}`. Counter and
    /// histogram keys appear in sorted (BTreeMap) order, so the payload
    /// is deterministic for a given event sequence.
    pub fn to_json(&self) -> String {
        let inner = self.lock();
        let mut counters = JsonObject::new();
        for (name, v) in &inner.counters {
            counters = counters.u64(name, *v);
        }
        let mut hists = JsonObject::new();
        for (name, h) in &inner.histograms {
            let body = JsonObject::new()
                .u64("count", h.count())
                .str("mean", &h.mean().to_string())
                .str("p50", &h.percentile(50.0).to_string())
                .str("p99", &h.percentile(99.0).to_string())
                .str("max", &h.max().to_string())
                .finish();
            hists = hists.raw(name, &body);
        }
        let mut wall = JsonObject::new();
        for (name, h) in &inner.wall {
            wall = wall.raw(name, &h.to_json());
        }
        JsonObject::new()
            .raw("counters", &counters.finish())
            .raw("histograms", &hists.finish())
            .raw("wall", &wall.finish())
            .finish()
    }
}

impl TuningObserver for MetricsRegistry {
    fn on_event(&self, event: &TraceEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match event {
            TraceEvent::SessionStarted { .. } => inner.bump("sessions_started"),
            TraceEvent::RoundProposed { .. } => inner.bump("rounds_proposed"),
            TraceEvent::TrialMeasured { .. } => inner.bump("trials_measured"),
            TraceEvent::CacheHit { saved_secs, .. } => {
                inner.bump("cache_hits");
                inner.observe("budget_saved", SimDuration::from_secs_f64(*saved_secs));
            }
            TraceEvent::DuplicateSuppressed { .. } => inner.bump("duplicates_suppressed"),
            TraceEvent::TrialAborted { saved_secs, .. } => {
                inner.bump("trials_aborted");
                inner.observe("budget_saved", SimDuration::from_secs_f64(*saved_secs));
            }
            TraceEvent::TrialEvaluated {
                score_secs,
                cost_secs,
                gc_pause_total_ms,
                jit_compile_ms,
                ..
            } => {
                inner.bump("trials_evaluated");
                match score_secs {
                    Some(s) => inner.observe("trial_score", SimDuration::from_secs_f64(*s)),
                    None => inner.bump("trials_failed"),
                }
                inner.observe("trial_cost", SimDuration::from_secs_f64(*cost_secs));
                if let Some(ms) = gc_pause_total_ms {
                    inner.observe("gc_pause_total", SimDuration::from_millis_f64(*ms));
                }
                if let Some(ms) = jit_compile_ms {
                    inner.observe("jit_compile", SimDuration::from_millis_f64(*ms));
                }
            }
            TraceEvent::TrialRetried { cost_secs, .. } => {
                inner.bump("trials_retried");
                inner.observe("retry_cost", SimDuration::from_secs_f64(*cost_secs));
            }
            TraceEvent::Quarantined { .. } => inner.bump("quarantined"),
            TraceEvent::ModelFit { refit, .. } => {
                if *refit {
                    inner.bump("model_fits");
                }
            }
            TraceEvent::CandidateScreened { .. } => inner.bump("candidates_screened"),
            TraceEvent::CheckpointWritten { .. } => inner.bump("checkpoints_written"),
            TraceEvent::SessionResumed { .. } => inner.bump("sessions_resumed"),
            TraceEvent::WorkerRegistered { .. } => inner.bump("workers_registered"),
            TraceEvent::TrialLeased { .. } => inner.bump("trials_leased"),
            TraceEvent::LeaseExpired { .. } => inner.bump("leases_expired"),
            TraceEvent::ConnectionRejected { .. } => inner.bump("connections_rejected"),
            TraceEvent::FrameRejected { .. } => inner.bump("frames_rejected"),
            TraceEvent::ClientRetried { .. } => inner.bump("clients_retried"),
            TraceEvent::WorkerReconnected { .. } => inner.bump("workers_reconnected"),
            TraceEvent::PhaseStarted { .. } => {}
            TraceEvent::PhaseEnded {
                phase,
                elapsed_secs,
                ..
            } => inner.observe_wall(&wall_metric_for(phase), *elapsed_secs),
            TraceEvent::BestImproved { .. } => inner.bump("best_improvements"),
            TraceEvent::TechniqueSwitched { .. } => inner.bump("technique_switches"),
            TraceEvent::BudgetExhausted { .. } => inner.bump("budget_exhausted"),
            TraceEvent::SessionFinished { .. } => inner.bump("sessions_finished"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(score: Option<f64>) -> TraceEvent {
        TraceEvent::TrialEvaluated {
            index: 0,
            technique: "random".into(),
            delta: vec![],
            repeat_secs: vec![],
            score_secs: score,
            cost_secs: 2.0,
            budget_spent_secs: 2.0,
            gc_pause_total_ms: Some(10.0),
            gc_collections: Some(2),
            jit_compile_ms: Some(5.0),
            jit_compiles: Some(100),
            error: None,
            error_kind: None,
        }
    }

    #[test]
    fn counts_trials_and_failures() {
        let m = MetricsRegistry::new();
        m.on_event(&trial(Some(1.0)));
        m.on_event(&trial(Some(2.0)));
        m.on_event(&trial(None));
        assert_eq!(m.counter("trials_evaluated"), 3);
        assert_eq!(m.counter("trials_failed"), 1);
        assert_eq!(m.counter("nonexistent"), 0);
        let scores = m.histogram("trial_score").unwrap();
        assert_eq!(scores.count(), 2);
        assert_eq!(m.histogram("trial_cost").unwrap().count(), 3);
        assert_eq!(m.histogram("gc_pause_total").unwrap().count(), 3);
    }

    #[test]
    fn counts_pipeline_savings() {
        let m = MetricsRegistry::new();
        m.on_event(&TraceEvent::CacheHit {
            slot: 0,
            fingerprint: 1,
            score_secs: Some(1.0),
            cost_secs: 0.0,
            saved_secs: 3.5,
        });
        m.on_event(&TraceEvent::DuplicateSuppressed {
            slot: 1,
            of_slot: 0,
        });
        m.on_event(&TraceEvent::TrialAborted {
            slot: 2,
            after_runs: 2,
            p_value: 0.1,
            effect: 1.0,
            saved_secs: 1.5,
        });
        assert_eq!(m.counter("cache_hits"), 1);
        assert_eq!(m.counter("duplicates_suppressed"), 1);
        assert_eq!(m.counter("trials_aborted"), 1);
        assert_eq!(m.histogram("budget_saved").unwrap().count(), 2);
    }

    #[test]
    fn counts_fault_tolerance_events() {
        let m = MetricsRegistry::new();
        m.on_event(&TraceEvent::TrialRetried {
            slot: 0,
            rep: 0,
            attempt: 0,
            error: "injected".into(),
            error_kind: "timeout".into(),
            cost_secs: 2.0,
        });
        m.on_event(&TraceEvent::Quarantined {
            fingerprint: 9,
            failures: 3,
            error_kind: "oom".into(),
        });
        m.on_event(&TraceEvent::CheckpointWritten {
            trials: 4,
            spent_secs: 8.0,
        });
        m.on_event(&TraceEvent::SessionResumed { trials_replayed: 4 });
        assert_eq!(m.counter("trials_retried"), 1);
        assert_eq!(m.counter("quarantined"), 1);
        assert_eq!(m.counter("checkpoints_written"), 1);
        assert_eq!(m.counter("sessions_resumed"), 1);
        assert_eq!(m.histogram("retry_cost").unwrap().count(), 1);
    }

    #[test]
    fn counts_overload_events() {
        let m = MetricsRegistry::new();
        m.on_event(&TraceEvent::ConnectionRejected {
            reason: "overloaded".into(),
            retry_after_ms: 250,
        });
        m.on_event(&TraceEvent::ConnectionRejected {
            reason: "conn-limit".into(),
            retry_after_ms: 0,
        });
        m.on_event(&TraceEvent::FrameRejected {
            code: "frame-too-large".into(),
            bytes: 1 << 20,
        });
        m.on_event(&TraceEvent::ClientRetried {
            attempt: 0,
            delay_ms: 80,
        });
        m.on_event(&TraceEvent::WorkerReconnected {
            wid: 2,
            attempts: 1,
        });
        assert_eq!(m.counter("connections_rejected"), 2);
        assert_eq!(m.counter("frames_rejected"), 1);
        assert_eq!(m.counter("clients_retried"), 1);
        assert_eq!(m.counter("workers_reconnected"), 1);
    }

    #[test]
    fn counts_model_events() {
        let m = MetricsRegistry::new();
        m.on_event(&TraceEvent::ModelFit {
            round: 3,
            samples: 20,
            refit: true,
        });
        m.on_event(&TraceEvent::ModelFit {
            round: 4,
            samples: 20,
            refit: false,
        });
        m.on_event(&TraceEvent::CandidateScreened {
            round: 3,
            fingerprint: 7,
            predicted_secs: 2.0,
            acquisition: 1.8,
        });
        assert_eq!(m.counter("model_fits"), 1);
        assert_eq!(m.counter("candidates_screened"), 1);
    }

    #[test]
    fn fixed_histogram_buckets_and_stats() {
        let mut h = FixedHistogram::new();
        h.record(0.5e-6); // bucket 0 (≤1µs)
        h.record(0.05); // ≤0.1s
        h.record(2.0); // ≤10s
        h.record(500.0); // overflow
        h.record(f64::NAN); // clamped to 0 → bucket 0
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 500.0);
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), WALL_BUCKETS.len() + 1);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[5], 1);
        assert_eq!(counts[7], 1);
        assert_eq!(counts[WALL_BUCKETS.len()], 1);
        let mut other = FixedHistogram::new();
        other.record(2.0);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert!(h.to_json().contains("\"count\":6"));
    }

    #[test]
    fn phase_ended_feeds_wall_histograms() {
        let m = MetricsRegistry::new();
        m.on_event(&TraceEvent::PhaseEnded {
            phase: "trial".into(),
            round: 0,
            elapsed_secs: 0.25,
        });
        m.on_event(&TraceEvent::PhaseEnded {
            phase: "measure".into(),
            round: 1,
            elapsed_secs: 1.5,
        });
        m.on_event(&TraceEvent::PhaseEnded {
            phase: "propose".into(),
            round: 1,
            elapsed_secs: 0.001,
        });
        m.on_event(&TraceEvent::PhaseStarted {
            phase: "fit".into(),
            round: 1,
        });
        m.record_wall("frame_wall", 0.002);
        assert_eq!(m.wall_histogram("trial_wall").unwrap().count(), 1);
        assert_eq!(m.wall_histogram("batch_wall").unwrap().count(), 1);
        assert_eq!(m.wall_histogram("phase_propose").unwrap().count(), 1);
        assert_eq!(m.wall_histogram("frame_wall").unwrap().count(), 1);
        assert!(m.wall_histogram("phase_fit").is_none());
        assert_eq!(
            m.wall_names(),
            vec!["batch_wall", "frame_wall", "phase_propose", "trial_wall"]
        );
        let json = m.to_json();
        assert!(json.contains("\"wall\":{"));
        assert!(json.contains("\"trial_wall\""));
        let parsed = jtune_util::json::parse(&json).unwrap();
        assert!(parsed.get("counters").is_some());
    }

    #[test]
    fn survives_mutex_poison() {
        use std::sync::Arc;
        let m = Arc::new(MetricsRegistry::new());
        m.on_event(&trial(Some(1.0)));
        let m2 = m.clone();
        // Poison the mutex by panicking while the guard is held.
        let _ = std::thread::spawn(move || {
            let _guard = m2.inner.lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(m.inner.lock().is_err(), "mutex should be poisoned");
        assert_eq!(m.counter("trials_evaluated"), 1);
        m.on_event(&trial(Some(2.0)));
        assert_eq!(m.counter("trials_evaluated"), 2);
        assert!(!m.render().is_empty());
        assert!(!m.to_json().is_empty());
    }

    #[test]
    fn render_mentions_all_recorded_metrics() {
        let m = MetricsRegistry::new();
        m.on_event(&trial(Some(1.0)));
        m.on_event(&TraceEvent::BudgetExhausted {
            spent_secs: 1.0,
            total_secs: 1.0,
            evaluations: 1,
        });
        let r = m.render();
        assert!(r.contains("trials_evaluated"));
        assert!(r.contains("budget_exhausted"));
        assert!(r.contains("trial_score"));
    }
}
