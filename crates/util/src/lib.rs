//! # jtune-util
//!
//! Foundation utilities shared by every crate in the HotSpot auto-tuner
//! workspace:
//!
//! - [`rng`] — deterministic, seedable pseudo-random number generators
//!   (SplitMix64 for seeding, Xoshiro256++ as the workhorse). Determinism is
//!   a hard requirement: every experiment in the reproduction must print the
//!   same table on every run, and parallel candidate evaluation must not
//!   depend on thread scheduling.
//! - [`stats`] — the statistics the measurement protocol needs: mean /
//!   median / variance, percentiles, and the Mann-Whitney U test used to
//!   decide whether a tuned configuration is *significantly* better than
//!   the default.
//! - [`simtime`] — a nanosecond-resolution simulated-time type (`SimTime`,
//!   `SimDuration`) used by the JVM simulator's virtual clock and by the
//!   tuner's budget accounting.
//! - [`histogram`] — fixed-bucket latency histograms for GC-pause
//!   distributions.
//! - [`table`] — plain-text table rendering for experiment output.
//! - [`cli`] — the one strict command-line parser: options described
//!   once as table rows, from which parsing, environment overrides and
//!   help text are all derived.
//! - [`json`] — minimal, byte-deterministic JSON emission for the
//!   telemetry trace stream and the CLI's `--json` surface.
//! - [`rows`] — every JSON line format declared once, as rows, with
//!   [`json_rows!`]: the type, its encoder and its typed decoder.
//!
//! The RNG and statistics are implemented here rather than pulled from
//! crates so the numerical core of the reproduction is auditable and
//! dependency-free.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
pub mod histogram;
pub mod json;
pub mod rng;
pub mod rows;
pub mod simtime;
pub mod stats;
pub mod table;

pub use histogram::Histogram;
pub use rng::{Rng, SplitMix64, Xoshiro256pp};
pub use simtime::{SimDuration, SimTime};
