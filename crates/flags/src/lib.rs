//! # jtune-flags
//!
//! The HotSpot JVM flag model: typed flag specifications, a registry of
//! **600+ JDK-7-era HotSpot flags** (the paper's "over 600 flags to choose
//! from"), configuration values, and `-XX:` command-line rendering/parsing.
//!
//! ## Structure
//!
//! - [`value`] — [`FlagValue`] (a runtime value) and [`Domain`] (the set of
//!   values a flag may take: bool, integer range with a log-scaling hint,
//!   or double range).
//! - [`spec`] — [`FlagSpec`] (one flag's static description), [`FlagId`]
//!   (dense index), [`Category`] and [`FlagKind`].
//! - [`registry`] — [`Registry`]: a validated flag table with name lookup,
//!   plus [`hotspot_registry`] returning the shared JDK-7 table.
//! - [`config`] — [`JvmConfig`]: a complete assignment of values to every
//!   flag, diffing against defaults, and command-line round-tripping.
//! - `data/hotspot7.tsv` — the JDK-7 table itself, one tab-separated row
//!   per flag (name, category, shape `bool|int|int-log|size|double`,
//!   bounds, default, kind, perf marker, description), parsed once by
//!   [`hotspot_registry`].
//!
//! ## Design notes
//!
//! Configurations are flat `Vec<FlagValue>` indexed by [`FlagId`] — never
//! string maps — so the tuner's hot paths (hashing, mutation, crossover)
//! are cache-friendly and allocation-free per flag. Roughly 60 flags are
//! *performance-relevant* (`perf = true`): the simulator reads them. The
//! rest parse, validate and render but do not move the needle for any
//! workload — mirroring the real JVM and making whole-space search
//! genuinely wasteful, which is the problem the paper's flag hierarchy
//! exists to solve.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
mod data;
pub mod registry;
pub mod spec;
pub mod value;

pub use config::{ConfigDelta, JvmConfig, ParseError};
pub use registry::{hotspot_registry, Registry, ValidationError};
pub use spec::{Category, FlagId, FlagKind, FlagSpec};
pub use value::{Domain, FlagValue};
