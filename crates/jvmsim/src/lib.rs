//! # jtune-jvmsim
//!
//! A **flag-sensitive HotSpot JVM performance simulator** — the substrate
//! standing in for Oracle's JVM in this reproduction (see DESIGN.md for the
//! substitution argument). Given a [`jtune_flags::JvmConfig`] and a
//! [`Workload`], [`JvmSim::run`] produces a [`RunOutcome`]: total run time
//! with a breakdown into mutator execution, GC pauses, JIT compilation and
//! startup, plus GC/JIT statistics. A caller that runs one workload many
//! times prepares it once ([`JvmSim::prepare`]) and calls
//! [`PreparedRun::run`], which gives the same bits.
//!
//! The simulator is *mechanistic*, not a lookup table. A run advances a
//! virtual clock through an epoch loop in which
//!
//! - the **JIT model** ([`jit`]) promotes methods through interpreter → C1
//!   → C2 tiers according to the compilation-policy flags, with a compile
//!   queue served by background compiler threads, inlining effectiveness
//!   derived from the inlining flags vs. the workload's call profile, and a
//!   code-cache capacity constraint;
//! - the **heap model** ([`heap`], [`gc`]) fills eden at the workload's
//!   allocation rate, triggers young collections, ages and promotes
//!   survivors, and runs one of five collector models (serial, parallel,
//!   parallel-old, CMS, G1) with distinct pause/throughput/concurrency
//!   behaviour;
//! - the **runtime model** ([`runtime`]) applies multiplicative mutator
//!   effects: TLAB allocation, biased locking vs. contention, compressed
//!   oops, large pages, allocation prefetch, safepoint overhead;
//! - the **noise model** ([`noise`]) applies seeded log-normal measurement
//!   noise so that repeat-and-take-median protocols are load-bearing.
//!
//! Roughly 60 flags move the needle; the remaining ~640 registry flags are
//! inert — matching the real JVM, where most flags are irrelevant to any
//! given workload.
//!
//! Invalid configurations behave like the real JVM too: a heap smaller than
//! the live set ends in [`RunFailure::OutOfMemory`], a saturated code cache
//! stops compilation, and `-Xms > -Xmx` is corrected with a warning flag in
//! the outcome.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod flagview;
pub mod gc;
pub mod gclog;
pub mod heap;
pub mod jit;
pub mod machine;
pub mod noise;
pub mod outcome;
pub mod runtime;
pub mod workload;

pub use engine::{JvmSim, PreparedRun};
pub use flagview::{CollectorKind, FlagView};
pub use machine::Machine;
pub use noise::NoiseModel;
pub use outcome::{RunFailure, RunOutcome, TimeBreakdown};
pub use workload::Workload;
