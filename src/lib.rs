//! # hotspot-autotuner
//!
//! A search-based **whole-JVM auto-tuner** with a flag hierarchy — a
//! from-scratch Rust reproduction of *Auto-Tuning the Java Virtual
//! Machine* (Jayasena, Fernando, Rusira Patabandi, Perera, Philips;
//! IPDPSW 2015).
//!
//! This crate is the facade: it re-exports the public API of the workspace
//! crates so downstream users depend on one name. See `DESIGN.md` for the
//! architecture and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## The pieces
//!
//! - [`flags`] — the HotSpot JDK-7 flag model: 750+ typed flags with
//!   domains, defaults, validation and `-XX:` command-line round-tripping.
//! - [`flagtree`] — the paper's flag hierarchy: selectors (mutually
//!   exclusive collector choice), gates (feature flags enabling dependent
//!   parameters), activation resolution and search-space statistics.
//! - [`jvmsim`] — a flag-sensitive HotSpot performance simulator
//!   (generational heap, five GC algorithms, tiered JIT, runtime effects,
//!   measurement noise) so tuning sessions run without a real JVM.
//! - [`workloads`] — SPECjvm2008-startup and DaCapo workload models plus a
//!   synthetic generator.
//! - [`harness`] — executors (simulator or a real `java` process),
//!   measurement protocol, budget accounting, parallel evaluation, and
//!   the adaptive evaluation pipeline (trial memoization, duplicate
//!   suppression, sequential racing), plus fault tolerance: transient
//!   retry, deterministic fault injection, trial watchdogs and the
//!   crash-safe trial journal.
//! - [`telemetry`] — session observability: a typed trial-event stream
//!   ([`telemetry::TraceEvent`]) published on a [`telemetry::TelemetryBus`]
//!   to pluggable sinks (JSONL traces, metrics registry, live progress).
//! - [`model`] — surrogate-guided search: a feature encoder over the
//!   flag hierarchy, an online bagged-tree + ridge surrogate, and
//!   acquisition-ranked candidate screening.
//! - [`tuner`] — the auto-tuner: search techniques, the AUC-bandit
//!   ensemble and the bandit portfolio over the full technique set, and
//!   hierarchical/flat/subset manipulators.
//! - [`server`] — the multi-session tuning daemon: concurrent sessions
//!   over a typed line-delimited JSON TCP protocol, fair-share
//!   measurement scheduling, cross-session measurement sharing, remote
//!   trial leasing to `jtune worker` processes, and graceful
//!   drain/resume — with every session byte-identical to its one-shot
//!   equivalent.
//! - [`report`] — post-hoc analytics: replay traces and server state
//!   directories into deterministic Markdown / HTML / JSON reports
//!   (`jtune report`).
//! - [`experiments`] — the suite loop behind the paper's tables, with
//!   its one per-program seed rule ([`experiments::suite_sessions`]),
//!   the session runner the drivers hand their sessions to
//!   ([`experiments::Experiment::run`]), and the paper-style table
//!   ([`experiments::render_suite_table`]), shared by `jtune suite`,
//!   the experiment drivers and the examples.
//!
//! ## Quickstart
//!
//! ```
//! use hotspot_autotuner::prelude::*;
//!
//! // Tune the SPECjvm2008 "compress" startup workload for 2 virtual
//! // minutes (the paper uses 200).
//! let workload = workload_by_name("compress").expect("built-in workload");
//! let executor = SimExecutor::new(workload);
//! let opts = TunerOptions::builder()
//!     .budget(SimDuration::from_mins(2))
//!     .build()
//!     .expect("valid options");
//! let result = Tuner::new(opts).run(&executor, "compress", &TelemetryBus::disabled());
//!
//! println!(
//!     "default {:.2}s -> tuned {:.2}s ({:+.1}%) via {:?}",
//!     result.session.default_secs,
//!     result.session.best_secs,
//!     result.improvement_percent(),
//!     result.session.best_delta,
//! );
//! assert!(result.session.best_secs <= result.session.default_secs);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use autotuner_core as tuner;
pub use jtune_experiments as experiments;
pub use jtune_flags as flags;
pub use jtune_flagtree as flagtree;
pub use jtune_harness as harness;
pub use jtune_jvmsim as jvmsim;
pub use jtune_model as model;
pub use jtune_report as report;
pub use jtune_server as server;
pub use jtune_telemetry as telemetry;
pub use jtune_util as util;
pub use jtune_workloads as workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use autotuner_core::{
        tuner::ManipulatorKind, ModelPolicy, OptionsError, SessionError, Tuner, TunerOptions,
        TunerOptionsBuilder, TuningResult,
    };
    pub use jtune_flags::{hotspot_registry, FlagValue, JvmConfig};
    pub use jtune_flagtree::hotspot_tree;
    pub use jtune_harness::{
        CachePolicy, EvalPipeline, Executor, ExecutorSpec, FaultPlan, FaultyExecutor,
        JournalWriter, ProcessExecutor, Protocol, QuarantinePolicy, Racing, ReplayLog, RetryPolicy,
        SessionHeader, SimExecutor, TrialCache, TrialError,
    };
    pub use jtune_jvmsim::{JvmSim, Machine, Workload};
    pub use jtune_report::{Report, SessionSummary};
    pub use jtune_server::{Client, ServerConfig, SessionSpec, SessionState, TuneServer};
    pub use jtune_telemetry::{
        JsonlSink, MemoryRecorder, MetricsRegistry, ProgressReporter, TelemetryBus, TraceEvent,
        TuningObserver,
    };
    pub use jtune_util::SimDuration;
    pub use jtune_workloads::{dacapo, specjvm2008_startup, workload_by_name};
}
