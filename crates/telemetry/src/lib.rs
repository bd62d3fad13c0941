//! # jtune-telemetry
//!
//! Structured observability for the tuning stack: a typed trial-event
//! model ([`TraceEvent`]), an observer trait ([`TuningObserver`]) with a
//! fan-out bus ([`TelemetryBus`]), and these built-in sinks:
//!
//! - [`MemoryRecorder`] — in-memory event log (tests, post-run analysis);
//! - [`JsonlSink`] — JSON Lines trace file (the `--trace` surface);
//! - [`MetricsRegistry`] — counters + latency histograms over the stream;
//! - [`ProgressReporter`] — live human-readable progress on stderr
//!   (the `--progress` surface).
//!
//! ## Timing spans
//!
//! With [`TelemetryBus::with_spans`] enabled, instrumented code emits
//! paired [`TraceEvent::PhaseStarted`] / [`TraceEvent::PhaseEnded`]
//! events around each tuner phase (see [`bus::phase`] for the canonical
//! names) carrying real wall-clock elapsed time. Span events are
//! *ephemeral* — live sinks see them, but [`JsonlSink`] never serialises
//! them — so the JSONL trace stays byte-identical whether spans are on
//! or off. [`MetricsRegistry`] folds them into deterministic
//! fixed-bucket wall histograms ([`FixedHistogram`]).
//!
//! ## Determinism contract
//!
//! A traced tuning session is *bit-deterministic given its seed*: the
//! emitting side (the tuner and the evaluation pool) delivers events in
//! candidate order regardless of worker count — parallel workers buffer
//! per-slot and the batch flushes in order after it joins — so the JSONL
//! bytes of a `workers = 1` run equal those of a `workers = 8` run. The
//! evaluation-pipeline events ([`TraceEvent::CacheHit`],
//! [`TraceEvent::DuplicateSuppressed`], [`TraceEvent::TrialAborted`])
//! follow the same slot-ordered contract. The integration tests
//! `tests/telemetry.rs` and `tests/pipeline.rs` lock this in.
//!
//! ## Auditability
//!
//! Every candidate evaluation appears exactly once as
//! [`TraceEvent::TrialEvaluated`] carrying its budget charge; summing
//! the charges reproduces the session's spent budget exactly. This is
//! what makes the paper-style headline numbers (19 % / 26 % average
//! improvement within a 200-minute budget) auditable from a trace alone.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bus;
pub mod event;
pub mod jsonl;
pub mod metrics;
pub mod progress;
pub mod recorder;
pub mod stream;

pub use bus::{phase, SpanGuard, TelemetryBus, TuningObserver};
pub use event::TraceEvent;
pub use jsonl::JsonlSink;
pub use metrics::{FixedHistogram, MetricsRegistry, WALL_BUCKETS};
pub use progress::ProgressReporter;
pub use recorder::MemoryRecorder;
pub use stream::EventStreamSink;
