//! `jtune-server`: a concurrent multi-session tuning service.
//!
//! The one-shot `jtune tune` command runs a single tuning session to
//! completion in the foreground. This crate turns the same machinery
//! into a long-running daemon that many clients share:
//!
//! - **Session manager** ([`TuneServer`]): owns any number of
//!   concurrent tuning sessions, each with its own seed, budget,
//!   checkpoint journal and telemetry trace, addressed by a stable
//!   session ID and persisted under a state directory.
//! - **Fair-share scheduler** ([`FairScheduler`]): multiplexes a fixed
//!   pool of measurement slots across sessions round-robin, with
//!   per-session accounting, so one greedy session cannot starve the
//!   rest.
//! - **Wire protocol** ([`wire`]): versioned line-delimited JSON over
//!   TCP, spoken through one typed [`Request`]/[`Response`] pair —
//!   `submit`, `status`, `watch` (streamed events), `result`, `cancel`,
//!   `shutdown` with graceful drain, and the worker plane (`register`,
//!   `lease`, `complete`, `fail`, `heartbeat`, `deregister`) — built
//!   entirely on `jtune-util`'s deterministic JSON support (no external
//!   deps).
//! - **Remote trial leasing** ([`worker`]): `jtune worker` processes
//!   register capabilities, long-poll for leases and stream outcomes
//!   back; a [`WorkerRegistry`] reissues lost leases (dead connection,
//!   missed deadline) to surviving workers or the local pool, so a
//!   session always finishes.
//! - **Overload hardening** ([`net`]): bounded frame reads with a
//!   stable `frame-too-large` code, per-connection socket deadlines, a
//!   connection limit, an admission queue that sheds excess submits
//!   with `overloaded` + a `retry_after_ms` hint, and a seeded
//!   [`NetFaultPlan`] chaos schedule for drop/delay/garble/disconnect
//!   injection — all off by default, leaving the wire byte-identical.
//! - **Cross-session sharing**: all sessions measure through one shared
//!   [`MeasurementCache`](jtune_harness::MeasurementCache), so a
//!   `(program, config, seed)` measured by one session — on any worker —
//!   is free for every other; per-session hit counts appear in `status`
//!   replies.
//!
//! Determinism is the contract throughout: a session's trace and result
//! are a pure function of its spec, byte-identical to the one-shot
//! `jtune tune` run with the same flags, no matter how many sessions
//! run beside it, how the scheduler interleaves them, which workers
//! measured its trials, or whether the daemon was drained and restarted
//! mid-session.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod net;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod wire;
pub mod worker;

pub use client::{with_retries, Client};
pub use net::{read_frame, ChaosWriter, FrameReadError, NetFault, NetFaultPlan, NET_FAULT_OPTIONS};
pub use scheduler::{FairScheduler, GatedExecutor, SchedPermit};
pub use server::{ServerConfig, SessionHandle, TuneServer, SERVER_OPTIONS};
pub use session::{ProgressProbe, SessionSpec, SessionState, SESSION_OPTIONS};
pub use wire::{LeaseOffer, Reconnect, Request, Response, TrialOutcome, WireError};
pub use worker::{
    run_worker, LeaseGrant, RemoteExecutor, WorkerOptions, WorkerRegistry, WorkerStats,
    WORKER_OPTIONS,
};
