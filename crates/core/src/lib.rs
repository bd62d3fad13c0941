//! # autotuner-core
//!
//! The HotSpot Auto-tuner itself — the paper's primary contribution.
//!
//! ## Architecture
//!
//! - [`manipulator`] — how the search moves through configuration space.
//!   [`HierarchicalManipulator`] is the paper's approach: structural
//!   choices (collector, JIT mode) are mutated through the flag tree's
//!   selectors, parameter mutations only touch flags *active* under the
//!   current structure, and every point is canonicalised so dead flags
//!   never masquerade as distinct configurations. [`FlatManipulator`]
//!   (whole space, no structure) and [`SubsetManipulator`] (GC+heap flags
//!   only — the prior-work baseline the paper contrasts with) exist for
//!   experiment E5.
//! - [`techniques`] — the search techniques: random sampling, greedy
//!   hill-climbing with restarts, simulated annealing, a genetic
//!   algorithm, differential evolution and Nelder-Mead on the numeric
//!   subspace, and the [`Bandit`] meta-technique that allocates proposals
//!   to whichever technique is currently paying off: the OpenTuner-style
//!   AUC ensemble the paper's tuner embodies, or the Exp3 portfolio over
//!   the solo techniques plus an ensemble. [`TechniqueSet`] names every
//!   technique once.
//! - [`tuner`] — the driver: evaluate the default, then propose/evaluate/
//!   learn in parallel batches until the tuning-time budget is exhausted,
//!   recording every trial for the convergence experiments.
//!
//! ## Quick start
//!
//! ```
//! use autotuner_core::{Tuner, TunerOptions};
//! use jtune_harness::SimExecutor;
//! use jtune_telemetry::TelemetryBus;
//! use jtune_workloads::workload_by_name;
//! use jtune_util::SimDuration;
//!
//! let workload = workload_by_name("compress").unwrap();
//! let executor = SimExecutor::new(workload);
//! let opts = TunerOptions::builder()
//!     .budget(SimDuration::from_mins(5)) // paper uses 200
//!     .build()
//!     .unwrap();
//! let result = Tuner::new(opts).run(&executor, "compress", &TelemetryBus::disabled());
//! assert!(result.session.best_secs <= result.session.default_secs);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod manipulator;
pub mod techniques;
pub mod tuner;

pub use analysis::{flag_impact, FlagImpact, ImpactOptions};
pub use jtune_model::ModelPolicy;
pub use manipulator::{
    ConfigManipulator, FlatManipulator, HierarchicalManipulator, SubsetManipulator,
};
pub use techniques::bandit::Bandit;
pub use techniques::{Technique, TechniqueSet};
pub use tuner::{
    ManipulatorKind, OptionsError, SessionError, TracedSession, Tuner, TunerOptions,
    TunerOptionsBuilder, TuningResult, TUNER_OPTIONS,
};
