//! # jtune-harness
//!
//! The execution harness between the auto-tuner and the JVM being tuned:
//!
//! - [`executor`] — the [`Executor`] abstraction: *something that can run a
//!   configuration and hand back a time*. Two implementations:
//!   [`SimExecutor`] (in-process `jtune-jvmsim`, what every experiment in
//!   the reproduction uses) and [`ProcessExecutor`] (spawns a real `java`
//!   binary and measures wall-clock time, used automatically by the
//!   examples when a JDK is on `PATH` — the paper's actual mode of
//!   operation).
//! - [`protocol`] — the measurement protocol: run each candidate N times,
//!   score by median (run times are noisy and right-skewed), compare
//!   candidate vs. default with a Mann-Whitney U test; optional
//!   sequential racing ([`protocol::Racing`]) abandons statistically
//!   hopeless candidates early.
//! - [`error`] — typed trial failures ([`TrialError`]: crash / OOM /
//!   timeout / flag-conflict) so techniques and traces can distinguish
//!   failure modes, plus the transient-vs-deterministic split the
//!   failure policy (retry, cache, quarantine) is built on.
//! - [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   and the [`FaultyExecutor`] wrapper inject transient crashes, hangs
//!   and measurement-noise spikes bit-reproducibly, so the robustness
//!   layer is testable.
//! - [`journal`] — the crash-safe trial journal: write-ahead JSONL
//!   records of completed evaluations plus replay, so a killed session
//!   resumes into a byte-identical trace.
//! - [`memo`] — cross-session measurement memoization: an Arc-shared
//!   [`MeasurementCache`] keyed by `(executor, config, seed)` and the
//!   [`MemoExecutor`] wrapper, so a multi-session service reuses paid-for
//!   simulator runs without perturbing any session's deterministic trace.
//! - [`cache`] + [`pipeline`] — the adaptive evaluation pipeline: trial
//!   memoization keyed by configuration fingerprint, within-batch
//!   duplicate suppression, and racing, all budget-accounted.
//! - [`budget`] — the paper's tuning-time budget: every candidate
//!   evaluation is charged (JVM start-up + run time × repeats) against a
//!   virtual wall clock, so "200 minutes of tuning" has the same economics
//!   as in the paper while completing in seconds of host time.
//! - [`pool`] — parallel candidate evaluation on scoped threads with
//!   deterministic seed derivation (results do not depend on thread
//!   interleaving), including order-preserving telemetry emission.
//! - [`results`] — the finished-session record and its JSON form.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod budget;
pub mod cache;
pub mod error;
pub mod executor;
pub mod fault;
pub mod journal;
pub mod memo;
pub mod objective;
pub mod pipeline;
pub mod pool;
pub mod protocol;
pub mod results;

pub use budget::{Budget, ChargeOutcome};
pub use cache::{CachePolicy, TrialCache};
pub use error::{QuarantinePolicy, TrialError};
pub use executor::{
    Executor, ExecutorKind, ExecutorSpec, Measurement, ProcessExecutor, RunCounters, SimExecutor,
    EXECUTOR_OPTIONS,
};
pub use fault::{Fault, FaultPlan, FaultyExecutor};
pub use journal::{JournalError, JournalWriter, ReplayLog, SessionHeader, TrialLine};
/// The event type the pipeline emits, re-exported so a crate that only
/// reads traces (the report) needs no telemetry dependency of its own.
pub use jtune_telemetry::TraceEvent;
pub use memo::{MeasurementCache, MemoExecutor};
pub use objective::Objective;
pub use pipeline::{BatchReport, EvalPipeline, PipelineStats, Provenance};
pub use pool::evaluate_batch;
pub use protocol::{
    BackoffPolicy, Evaluation, Protocol, RaceAbort, Racing, RetryPolicy, RetryRecord,
    BACKOFF_OPTIONS,
};
pub use results::{SessionRecord, TrialRecord};
