//! # jtune-flagtree
//!
//! The **flag hierarchy** — the structural contribution of *Auto-Tuning the
//! Java Virtual Machine* (Jayasena et al., IPDPSW'15). The paper organises
//! HotSpot's 600+ flags into a tree that
//!
//! 1. **resolves dependencies**: the five `Use*GC` collector-selection
//!    flags are mutually exclusive, and every collector owns a family of
//!    flags that are meaningless unless that collector is selected
//!    (likewise `TieredCompilation` vs. the `Tier*` thresholds, `UseTLAB`
//!    vs. the TLAB sizing flags, and so on); and
//! 2. **shrinks the search space**: a tuner that understands the tree never
//!    wastes evaluations mutating flags that cannot matter under the
//!    current structural choices.
//!
//! This crate models the tree with three node flavours:
//!
//! - **Group** — structural organisation only (`heap`, `gc`, `jit`, …).
//! - **Selector** — a one-of-N choice (e.g. *which collector*). Each option
//!   carries flag *assignments* (setting `UseG1GC` and clearing the other
//!   four) and owns a subtree active only while chosen.
//! - **Gate** — a boolean flag that activates its subtree when set to a
//!   given polarity (e.g. `UseTLAB` gating `TLABSize`).
//!
//! Plain **leaves** are tunable flags, active whenever every ancestor is.
//!
//! [`FlagTree::enforce`] canonicalises a configuration in one walk: each
//! live selector's chosen assignments are applied and every *inactive*
//! flag is reset to its default. Canonical
//! configs make deduplication exact (two configs differing only in dead
//! flags are the same point) — this is where the measured search-space
//! reduction of experiment E3 comes from.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod build;
pub mod space;
pub mod tree;

pub use build::hotspot_tree;
pub use space::{SpaceStats, StratumStats};
pub use tree::{FlagTree, NodeData, NodeId, Selector, SelectorId, SelectorOption, TreeBuilder};
