//! The worker plane: distributed trial leasing over the wire protocol.
//!
//! Three pieces live here:
//!
//! - [`WorkerRegistry`] — the daemon-side ledger of registered workers,
//!   queued jobs, and outstanding leases, with heartbeat-based expiry.
//! - [`RemoteExecutor`] — an [`Executor`] that offers each measurement
//!   to the registry and falls back to its local inner executor when no
//!   worker can (or does) serve it.
//! - [`run_worker`] — the worker-side agent behind
//!   `jtune worker --connect`, pumping lease loops: one `lease` poll,
//!   then each `complete`/`fail` asks for the next lease.
//!
//! # Lease state machine
//!
//! ```text
//!              submit()                lease op
//!   (created) ────────────▶ QUEUED ──────────────▶ ISSUED
//!                             ▲  │                  │  │ complete op
//!        deadline/worker-gone │  │ no eligible      │  └───────▶ DONE
//!        (reissues left)      │  │ worker/draining  │
//!                             └──┼──────────────────┘
//!                                │      deadline/worker-gone/fail
//!                                ▼      (reissue budget exhausted)
//!                            ABANDONED ──▶ measured by the local pool
//! ```
//!
//! A `complete`/`fail` carrying `wait_ms` is the complete (or fail) op
//! followed by a lease op for the same worker: two transitions, each
//! under the lock, in that order.
//!
//! Every transition happens under one registry lock. A lease id is
//! issued once and never reused, so a `complete` for an expired lease
//! identifies itself: the id is no longer in the ledger and the result
//! is discarded (the slot was already reissued — first finisher wins,
//! and both finishers compute the identical pure-function measurement
//! anyway).
//!
//! # Determinism
//!
//! Remote execution preserves the byte-identical-trace contract because
//! nothing about *where* a trial ran enters the session's data path:
//! the seed is the positional slot seed, the configuration travels as
//! its canonical flag delta, and the worker runs the same pure
//! simulator function the local pool would. Results re-enter through
//! [`RemoteExecutor::measure`]'s return value exactly where a local
//! measurement would, and the evaluation pool already merges slot
//! results in slot order. Worker-plane telemetry
//! ([`TraceEvent::WorkerRegistered`] and friends) is ephemeral and
//! never serialised.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use jtune_flags::{JvmConfig, Registry};
use jtune_harness::{BackoffPolicy, Executor, ExecutorSpec, Measurement};
use jtune_telemetry::{TelemetryBus, TraceEvent};
use jtune_util::cli::{self, Opt};
use jtune_util::SimDuration;

use crate::client::Client;
use crate::net::NetFaultPlan;
use crate::wire::{LeaseOffer, Reconnect, Request, Response, TrialOutcome, WireError};

/// How many times a lost lease is reoffered to workers before the job
/// is abandoned to the local pool.
const MAX_REISSUES: u32 = 2;

/// Granularity of the expiry sweep: waiters re-check deadlines at least
/// this often while blocked.
const REAP_TICK: Duration = Duration::from_millis(100);

/// How long [`WorkerRegistry::drain`] waits for workers to acknowledge
/// the drain (deregister and disconnect) before giving up on them. Keeps
/// daemon shutdown from outliving a wedged worker.
const DRAIN_WAIT: Duration = Duration::from_secs(5);

/// What a `lease` request came back with.
#[derive(Debug)]
pub enum LeaseGrant {
    /// Work: run it and `complete`/`fail` before the deadline.
    Offer(LeaseOffer),
    /// No eligible work right now; poll again.
    Idle,
    /// The daemon is draining; finish in-flight work and disconnect.
    Draining,
}

#[derive(Debug)]
enum JobState {
    Queued,
    // The holding lease id lives in `Ledger::leases` (lease → job); the
    // job side only needs who holds it and until when.
    Issued { wid: u64, deadline: Instant },
    Done(Measurement),
    Abandoned,
}

struct Job {
    sid: u64,
    slot: u64,
    executor: String,
    config: Vec<String>,
    fingerprint: u64,
    seed: u64,
    reissues: u32,
    state: JobState,
}

struct WorkerEntry {
    executor: String,
    slots: u64,
    inflight: u64,
}

impl WorkerEntry {
    /// Can this worker run a job whose executor tag is `tag`?
    fn serves(&self, tag: &str) -> bool {
        tag.strip_prefix(&self.executor)
            .is_some_and(|rest| rest.starts_with(':'))
    }
}

#[derive(Default)]
struct Ledger {
    workers: HashMap<u64, WorkerEntry>,
    jobs: HashMap<u64, Job>,
    /// Job ids awaiting a worker, oldest first.
    queue: VecDeque<u64>,
    /// Outstanding lease id → job id.
    leases: HashMap<u64, u64>,
    draining: bool,
}

impl Ledger {
    fn any_worker_serves(&self, tag: &str) -> bool {
        self.workers.values().any(|w| w.serves(tag))
    }

    /// Is `lease` outstanding and issued to worker `wid`?
    fn holds(&self, wid: u64, lease: u64) -> bool {
        self.leases.get(&lease).is_some_and(|jid| {
            matches!(self.jobs.get(jid).map(|j| &j.state),
                     Some(JobState::Issued { wid: w, .. }) if *w == wid)
        })
    }
}

/// The daemon-side ledger of workers, queued jobs, and outstanding
/// leases. All state sits behind one mutex; two condvars signal the two
/// kinds of waiter (long-polling `lease` requests, and
/// [`RemoteExecutor`]s blocked on a result). Expiry needs no reaper
/// thread: every blocked waiter sweeps due deadlines each time it wakes.
pub struct WorkerRegistry {
    ledger: Mutex<Ledger>,
    /// Wakes long-polling `lease` requests when work arrives or the
    /// registry drains.
    work: Condvar,
    /// Wakes result waiters when a job finishes or is abandoned.
    done: Condvar,
    next_wid: AtomicU64,
    next_lease: AtomicU64,
    next_job: AtomicU64,
    lease_timeout: Duration,
    bus: TelemetryBus,
    completed: AtomicU64,
    expired: AtomicU64,
}

impl WorkerRegistry {
    /// A registry issuing leases that expire `lease_timeout` after
    /// issue (extended by heartbeats). Worker-plane events go to `bus`
    /// (they are all ephemeral).
    pub fn new(lease_timeout: Duration, bus: TelemetryBus) -> WorkerRegistry {
        WorkerRegistry {
            ledger: Mutex::new(Ledger::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            next_wid: AtomicU64::new(1),
            next_lease: AtomicU64::new(1),
            next_job: AtomicU64::new(1),
            lease_timeout,
            bus,
            completed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register a worker's capabilities; returns its worker id.
    pub fn register(&self, executor: &str, slots: u64) -> u64 {
        let wid = self.next_wid.fetch_add(1, Ordering::SeqCst);
        self.lock().workers.insert(
            wid,
            WorkerEntry {
                executor: executor.to_string(),
                slots: slots.max(1),
                inflight: 0,
            },
        );
        self.bus.emit(&TraceEvent::WorkerRegistered {
            wid,
            executor: executor.to_string(),
            slots: slots.max(1),
        });
        wid
    }

    /// Remove a worker (graceful `deregister`, or its connection died).
    /// Its outstanding leases are reissued immediately.
    pub fn deregister(&self, wid: u64) {
        let mut ledger = self.lock();
        if ledger.workers.remove(&wid).is_none() {
            return;
        }
        let lost: Vec<u64> = ledger
            .leases
            .keys()
            .copied()
            .filter(|lease| ledger.holds(wid, *lease))
            .collect();
        for lease in lost {
            self.expire_lease(&mut ledger, lease, "worker-gone");
        }
        self.work.notify_all();
        self.done.notify_all();
    }

    /// Reissue (or abandon) the job behind one outstanding lease.
    /// Caller holds the ledger lock.
    fn expire_lease(&self, ledger: &mut Ledger, lease: u64, reason: &str) {
        let Some(jid) = ledger.leases.remove(&lease) else {
            return;
        };
        let can_requeue = !ledger.draining && {
            let job = &ledger.jobs[&jid];
            job.reissues < MAX_REISSUES && ledger.any_worker_serves(&job.executor)
        };
        let Some(job) = ledger.jobs.get_mut(&jid) else {
            return;
        };
        let wid = match job.state {
            JobState::Issued { wid, .. } => wid,
            _ => return,
        };
        if let Some(worker) = ledger.workers.get_mut(&wid) {
            worker.inflight = worker.inflight.saturating_sub(1);
        }
        job.reissues += 1;
        if can_requeue {
            job.state = JobState::Queued;
            ledger.queue.push_front(jid);
        } else {
            job.state = JobState::Abandoned;
        }
        self.expired.fetch_add(1, Ordering::SeqCst);
        self.bus.emit(&TraceEvent::LeaseExpired {
            lease,
            wid,
            reason: reason.to_string(),
        });
    }

    /// Sweep due deadlines. Caller holds the ledger lock.
    fn reap(&self, ledger: &mut Ledger, now: Instant) {
        let due: Vec<u64> = ledger
            .leases
            .iter()
            .filter(|(_, jid)| {
                matches!(ledger.jobs.get(jid).map(|j| &j.state),
                         Some(JobState::Issued { deadline, .. }) if *deadline <= now)
            })
            .map(|(lease, _)| *lease)
            .collect();
        if due.is_empty() {
            return;
        }
        for lease in due {
            self.expire_lease(ledger, lease, "deadline");
        }
        self.work.notify_all();
        self.done.notify_all();
    }

    /// Serve a worker's `lease` request, long-polling up to `wait`.
    pub fn lease(&self, wid: u64, wait: Duration) -> Result<LeaseGrant, WireError> {
        let poll_deadline = Instant::now() + wait;
        let mut ledger = self.lock();
        loop {
            let now = Instant::now();
            self.reap(&mut ledger, now);
            if ledger.draining {
                return Ok(LeaseGrant::Draining);
            }
            let Some(entry) = ledger.workers.get(&wid) else {
                return Err(WireError::new(
                    "unknown-worker",
                    format!("no worker {wid} (register first)"),
                ));
            };
            if entry.inflight < entry.slots {
                let position = ledger
                    .queue
                    .iter()
                    .position(|jid| entry.serves(&ledger.jobs[jid].executor));
                if let Some(position) = position {
                    let jid = ledger.queue.remove(position).expect("position is valid");
                    let lease = self.next_lease.fetch_add(1, Ordering::SeqCst);
                    let deadline = now + self.lease_timeout;
                    ledger.leases.insert(lease, jid);
                    ledger
                        .workers
                        .get_mut(&wid)
                        .expect("checked above")
                        .inflight += 1;
                    let job = ledger.jobs.get_mut(&jid).expect("queued job exists");
                    job.state = JobState::Issued { wid, deadline };
                    let offer = LeaseOffer {
                        lease,
                        sid: job.sid,
                        slot: job.slot,
                        seed: job.seed,
                        fingerprint: job.fingerprint,
                        executor: job.executor.clone(),
                        deadline_ms: self.lease_timeout.as_millis() as u64,
                        config: job.config.clone(),
                    };
                    self.bus.emit(&TraceEvent::TrialLeased {
                        lease,
                        sid: offer.sid,
                        wid,
                        fingerprint: offer.fingerprint,
                    });
                    return Ok(LeaseGrant::Offer(offer));
                }
            }
            let now = Instant::now();
            if now >= poll_deadline {
                return Ok(LeaseGrant::Idle);
            }
            let tick = (poll_deadline - now).min(REAP_TICK);
            ledger = self
                .work
                .wait_timeout(ledger, tick)
                .map(|(g, _)| g)
                .unwrap_or_else(|p| {
                    let (g, _) = p.into_inner();
                    g
                });
        }
    }

    /// Accept a finished trial. Only the lease's current holder may
    /// complete it: a stale lease (already expired and reissued), or one
    /// another worker holds, is acknowledged and discarded — first
    /// finisher wins.
    pub fn complete(&self, wid: u64, lease: u64, measurement: Measurement) {
        let mut ledger = self.lock();
        if !ledger.holds(wid, lease) {
            return;
        }
        let jid = ledger
            .leases
            .remove(&lease)
            .expect("a held lease is outstanding");
        if let Some(worker) = ledger.workers.get_mut(&wid) {
            worker.inflight = worker.inflight.saturating_sub(1);
        }
        if let Some(job) = ledger.jobs.get_mut(&jid) {
            job.state = JobState::Done(measurement);
        }
        self.completed.fetch_add(1, Ordering::SeqCst);
        self.done.notify_all();
    }

    /// A worker returned a lease it cannot run; reissue it right away
    /// (counts against the job's reissue budget).
    pub fn fail(&self, wid: u64, lease: u64, _reason: &str) {
        let mut ledger = self.lock();
        // Only the current holder may fail its lease.
        if ledger.holds(wid, lease) {
            self.expire_lease(&mut ledger, lease, "failed");
            self.work.notify_all();
            self.done.notify_all();
        }
    }

    /// Extend the deadlines of a worker's in-flight leases; returns how
    /// many were extended (stale ids are skipped).
    pub fn heartbeat(&self, wid: u64, leases: &[u64]) -> u64 {
        let mut ledger = self.lock();
        let now = Instant::now();
        let mut extended = 0;
        for lease in leases {
            let Some(jid) = ledger.leases.get(lease).copied() else {
                continue;
            };
            if let Some(job) = ledger.jobs.get_mut(&jid) {
                if let JobState::Issued {
                    wid: w, deadline, ..
                } = &mut job.state
                {
                    if *w == wid {
                        *deadline = now + self.lease_timeout;
                        extended += 1;
                    }
                }
            }
        }
        extended
    }

    /// Stop offering work: queued jobs fall back to the local pool
    /// immediately; in-flight leases may still complete (graceful), and
    /// long-polling workers are told to disconnect. Blocks (bounded by
    /// `DRAIN_WAIT`) until every worker has acknowledged the drain by
    /// deregistering — so by the time this returns, their `Draining`
    /// replies are on the wire and shutdown cannot race them.
    pub fn drain(&self) {
        let mut ledger = self.lock();
        ledger.draining = true;
        while let Some(jid) = ledger.queue.pop_front() {
            if let Some(job) = ledger.jobs.get_mut(&jid) {
                job.state = JobState::Abandoned;
            }
        }
        self.work.notify_all();
        self.done.notify_all();
        let give_up = Instant::now() + DRAIN_WAIT;
        while !ledger.workers.is_empty() {
            let now = Instant::now();
            if now >= give_up {
                break;
            }
            let (guard, _) = self
                .done
                .wait_timeout(ledger, (give_up - now).min(REAP_TICK))
                .unwrap_or_else(|p| p.into_inner());
            ledger = guard;
        }
    }

    /// Offer a trial to the worker pool. `None` when no registered
    /// worker can serve `executor` (or the registry is draining) — the
    /// caller measures locally.
    fn submit(
        &self,
        sid: u64,
        slot: u64,
        executor: String,
        config: Vec<String>,
        fingerprint: u64,
        seed: u64,
    ) -> Option<u64> {
        let mut ledger = self.lock();
        if ledger.draining || !ledger.any_worker_serves(&executor) {
            return None;
        }
        let jid = self.next_job.fetch_add(1, Ordering::SeqCst);
        ledger.jobs.insert(
            jid,
            Job {
                sid,
                slot,
                executor,
                config,
                fingerprint,
                seed,
                reissues: 0,
                state: JobState::Queued,
            },
        );
        ledger.queue.push_back(jid);
        self.work.notify_all();
        Some(jid)
    }

    /// Block until job `jid` finishes remotely (`Some`) or is abandoned
    /// to the local pool (`None`). Each wakeup sweeps due deadlines, so
    /// waiters double as the expiry reaper.
    fn await_result(&self, jid: u64) -> Option<Measurement> {
        let mut ledger = self.lock();
        loop {
            self.reap(&mut ledger, Instant::now());
            let job = ledger.jobs.get(&jid)?;
            match &job.state {
                JobState::Done(_) | JobState::Abandoned => break,
                JobState::Queued => {
                    // The worker pool shrank (or drained) under us.
                    if ledger.draining || !ledger.any_worker_serves(&job.executor) {
                        if let Some(position) = ledger.queue.iter().position(|q| *q == jid) {
                            ledger.queue.remove(position);
                        }
                        ledger.jobs.get_mut(&jid).expect("checked above").state =
                            JobState::Abandoned;
                        break;
                    }
                }
                JobState::Issued { .. } => {}
            }
            ledger = self
                .done
                .wait_timeout(ledger, REAP_TICK)
                .map(|(g, _)| g)
                .unwrap_or_else(|p| {
                    let (g, _) = p.into_inner();
                    g
                });
        }
        match ledger.jobs.remove(&jid)?.state {
            JobState::Done(measurement) => Some(measurement),
            _ => None,
        }
    }

    /// Registered workers right now.
    pub fn workers(&self) -> usize {
        self.lock().workers.len()
    }

    /// Trials completed by remote workers since start.
    pub fn leases_completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }

    /// Leases expired/reissued (deadline, worker death, or `fail`).
    pub fn leases_expired(&self) -> u64 {
        self.expired.load(Ordering::SeqCst)
    }
}

/// An [`Executor`] that drains measurements into the worker pool.
///
/// Wraps the local executor the session would otherwise run on. Each
/// `measure` call offers the trial to the [`WorkerRegistry`]; if no
/// worker can serve it — or every lease for it is lost — the inner
/// executor measures locally, so a daemon with zero workers behaves
/// exactly like before. `describe`/`registry`/`fixed_overhead` delegate
/// to the inner executor: the memo tag, the journal resume signature,
/// and the budget economics are identical wherever the trial runs.
pub struct RemoteExecutor {
    inner: Box<dyn Executor>,
    registry: Arc<WorkerRegistry>,
    sid: u64,
    /// Monotonic per-session trial counter, used as the lease's
    /// diagnostic `slot` field.
    trials: AtomicU64,
}

impl RemoteExecutor {
    /// Wrap `inner`, offering trials for session `sid` to `registry`.
    pub fn new(
        inner: Box<dyn Executor>,
        registry: Arc<WorkerRegistry>,
        sid: u64,
    ) -> RemoteExecutor {
        RemoteExecutor {
            inner,
            registry,
            sid,
            trials: AtomicU64::new(0),
        }
    }
}

impl Executor for RemoteExecutor {
    fn measure(&self, config: &JvmConfig, seed: u64) -> Measurement {
        let slot = self.trials.fetch_add(1, Ordering::SeqCst);
        let offered = self.registry.submit(
            self.sid,
            slot,
            self.inner.describe(),
            config.to_args(self.inner.registry()),
            config.fingerprint(),
            seed,
        );
        match offered.and_then(|jid| self.registry.await_result(jid)) {
            Some(measurement) => measurement,
            None => self.inner.measure(config, seed),
        }
    }

    fn registry(&self) -> &Registry {
        self.inner.registry()
    }

    fn fixed_overhead(&self) -> SimDuration {
        self.inner.fixed_overhead()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Options for the worker agent (`jtune worker`).
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Daemon address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Concurrent trial slots to offer (each runs its own lease loop).
    pub slots: usize,
    /// Long-poll bound of each request for a lease (a `lease`, or a
    /// `complete`/`fail` asking for the next one), milliseconds.
    pub wait_ms: u64,
    /// Executor capability tag to register (only `"sim"` today).
    pub capability: String,
    /// Reconnect backoff: attempts per outage before giving up and the
    /// cap on one delay. Each successful registration refreshes the
    /// budget, so a worker under recurring connection loss (chaos, flaky
    /// network) keeps coming back instead of exiting on the first drop.
    /// The jitter is seeded from `net_faults.seed`, whatever `seed`
    /// says here.
    pub backoff: BackoffPolicy,
    /// Seeded network-fault plan applied to this worker's outbound
    /// frames (chaos testing); inactive by default.
    pub net_faults: NetFaultPlan,
}

impl WorkerOptions {
    /// Defaults: 1 slot, 500 ms long-poll, `sim` capability, 5
    /// reconnect attempts backing off to 5 s, chaos off.
    pub fn new(addr: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            addr: addr.into(),
            slots: 1,
            wait_ms: 500,
            capability: "sim".into(),
            backoff: BackoffPolicy::default(),
            net_faults: NetFaultPlan::inactive(),
        }
    }
}

/// The options of `jtune worker`, besides the shared
/// [`BACKOFF_OPTIONS`](jtune_harness::BACKOFF_OPTIONS) on `backoff` and
/// [`NET_FAULT_OPTIONS`](crate::net::NET_FAULT_OPTIONS) on `net_faults`.
#[rustfmt::skip]
pub const WORKER_OPTIONS: &[Opt<WorkerOptions>] = &[
    Opt::new("--connect HOST:PORT", "required", "the daemon to lease trials from",
        |w, v| { w.addr = v.to_string(); Ok(()) }),
    Opt::new("--slots N", "1", "concurrent trial slots, each its own lease loop",
        |w, v| match cli::int(v)? { 0 => Err("must be at least 1".into()), n => { w.slots = n; Ok(()) } }),
    Opt::new("--wait-ms MS", "500", "long-poll bound of one lease request",
        |w, v| cli::int(v).map(|ms| w.wait_ms = ms)),
];

/// What a worker did before draining.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// The worker id the daemon issued.
    pub wid: u64,
    /// Trials measured and streamed back.
    pub completed: u64,
    /// Leases returned with `fail`.
    pub failed: u64,
}

/// Run a worker until the daemon drains or stays away.
///
/// Registers, then runs `slots` lease loops, each on its own connection
/// (frames on one connection are strictly request/reply). A lease whose
/// executor tag the worker cannot rebuild is returned with `fail`;
/// everything else is measured with the executor stack
/// [`ExecutorSpec::named`] builds from the tag — the same pure function
/// the daemon's local pool runs — and streamed back losslessly.
///
/// Exits cleanly (returning stats) when the daemon answers `draining`;
/// on the way out it deregisters so in-flight bookkeeping is released
/// immediately. A *lost* connection is not an exit: the worker
/// reconnects with jittered exponential backoff (per
/// [`WorkerOptions::backoff`]),
/// re-registering with its previous worker id so the daemon releases
/// the dead identity's leases at once and counts the reconnect. The
/// retry budget refreshes on every successful registration; only an
/// outage that exhausts a whole budget makes the worker give up.
pub fn run_worker(options: &WorkerOptions) -> Result<WorkerStats, WireError> {
    let completed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let policy = BackoffPolicy {
        seed: options.net_faults.seed,
        ..options.backoff
    };
    let mut prev_wid: Option<u64> = None;
    // Connection index into the fault plan's schedule, monotonic across
    // reconnects so each fresh connection draws a fresh fault sequence.
    let mut conn_seq: u64 = 0;
    let mut outage_attempt: u32 = 0;
    loop {
        match run_worker_session(
            options,
            prev_wid,
            outage_attempt,
            &completed,
            &failed,
            &mut conn_seq,
        ) {
            Ok((wid, true)) => {
                return Ok(WorkerStats {
                    wid,
                    completed: completed.load(Ordering::SeqCst),
                    failed: failed.load(Ordering::SeqCst),
                })
            }
            Ok((wid, false)) => {
                // Connection lost mid-run: reconnect as a successor of
                // this identity, with a fresh outage budget.
                prev_wid = Some(wid);
                outage_attempt = 0;
            }
            Err(e) => {
                if !policy.retry.allows(outage_attempt) {
                    return Err(e);
                }
            }
        }
        let delay = policy.delay_ms(outage_attempt, None);
        outage_attempt += 1;
        std::thread::sleep(Duration::from_millis(delay));
    }
}

/// One connected stretch of a worker's life: register (naming the
/// previous identity when reconnecting), run the lease loops until
/// drain or connection loss. Returns `(wid, drained)` — `drained` false
/// means the connection died and the caller should reconnect.
fn run_worker_session(
    options: &WorkerOptions,
    prev_wid: Option<u64>,
    outage_attempt: u32,
    completed: &AtomicU64,
    failed: &AtomicU64,
    conn_seq: &mut u64,
) -> Result<(u64, bool), WireError> {
    let mut connect = || -> Result<Client, WireError> {
        let conn = *conn_seq;
        *conn_seq += 1;
        let mut client = Client::connect_chaotic(&options.addr, options.net_faults, conn)
            .map_err(|e| WireError::new("connect-error", format!("cannot connect: {e}")))?;
        // A reply the network ate must surface as an error (and a
        // reconnect), not block this slot forever. The daemon answers a
        // lease poll within `wait_ms`; everything else is immediate.
        client
            .set_io_timeout(Duration::from_millis(options.wait_ms + 5_000))
            .map_err(|e| WireError::new("connect-error", format!("cannot set deadline: {e}")))?;
        Ok(client)
    };
    let mut control = connect()?;
    let reconnect = prev_wid.map(|p| Reconnect {
        prev_wid: p,
        attempts: outage_attempt as u64 + 1,
    });
    let wid = match control.request(&Request::Register {
        executor: options.capability.clone(),
        slots: options.slots.max(1) as u64,
        reconnect,
    })? {
        Response::WorkerAck { wid } => wid,
        other => {
            return Err(WireError::new(
                "bad-frame",
                format!("unexpected register reply: {other:?}"),
            ))
        }
    };
    // Slot 0's loop runs on the registering connection — the daemon
    // ties the worker's lifetime to it, so a killed worker process is
    // deregistered (and its leases reissued) the moment the socket
    // drops. Extra slots each get their own connection: frames on one
    // connection are strictly request/reply.
    let mut extra: Vec<Client> = Vec::new();
    for _ in 1..options.slots.max(1) {
        extra.push(connect()?);
    }
    let drained = AtomicBool::new(false);
    let pulse = Pulse::default();
    std::thread::scope(|scope| {
        scope.spawn(|| pulse.run(&options.addr, wid));
        // Stops the heartbeat thread once the slot loops are done, or as
        // a panic in one of them unwinds this scope.
        let _stop = StopPulse(&pulse);
        let slots: Vec<_> = extra
            .drain(..)
            .map(|mut client| {
                let (completed, failed, drained, pulse) = (&completed, &failed, &drained, &pulse);
                scope.spawn(move || {
                    run_lease_loop(&mut client, wid, options, completed, failed, drained, pulse);
                })
            })
            .collect();
        run_lease_loop(
            &mut control,
            wid,
            options,
            completed,
            failed,
            &drained,
            &pulse,
        );
        for slot in slots {
            if let Err(panic) = slot.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    if drained.load(Ordering::SeqCst) {
        let _ = control.request(&Request::Deregister { wid });
        return Ok((wid, true));
    }
    Ok((wid, false))
}

/// One slot's lease loop: poll, execute, stream back; stop on drain
/// (flagging `drained`) or a dead connection.
///
/// Only the first poll is a plain `lease`. Each `complete`/`fail` then
/// carries `wait_ms`, and its reply is the next grant, so a busy slot
/// pays one round trip per trial. A `lease` ack in its place comes from
/// a daemon that ignores `wait_ms`; the slot then polls with a plain
/// `lease`, as it does after an `idle` reply.
fn run_lease_loop(
    client: &mut Client,
    wid: u64,
    options: &WorkerOptions,
    completed: &AtomicU64,
    failed: &AtomicU64,
    drained: &AtomicBool,
    pulse: &Pulse,
) {
    // Executors are rebuilt only when the tag changes (one session's
    // leases all share a tag).
    let mut cache: Option<(String, Box<dyn Executor>)> = None;
    let poll = Request::Lease {
        wid,
        wait_ms: options.wait_ms,
    };
    let mut reply = client.request(&poll);
    loop {
        let grant = match reply {
            Ok(Response::Leased(offer)) => offer,
            Ok(Response::Idle { draining: false } | Response::LeaseAck { .. }) => {
                reply = client.request(&poll);
                continue;
            }
            Ok(Response::Idle { draining: true }) => {
                drained.store(true, Ordering::SeqCst);
                return;
            }
            Err(e) if e.code == "unknown-worker" => {
                // The daemon forgot us (restart, lease-side deregister):
                // treat like a dead connection so the reconnect loop
                // re-registers.
                return;
            }
            Ok(_) | Err(_) => return, // daemon gone or confused: reconnect
        };
        pulse.start(grant.lease, grant.deadline_ms);
        let outcome = execute_lease(&grant, &mut cache);
        pulse.finish(grant.lease);
        let done = match outcome {
            Ok(outcome) => {
                completed.fetch_add(1, Ordering::SeqCst);
                Request::Complete {
                    wid,
                    lease: grant.lease,
                    outcome,
                    wait_ms: Some(options.wait_ms),
                }
            }
            Err(reason) => {
                failed.fetch_add(1, Ordering::SeqCst);
                Request::Fail {
                    wid,
                    lease: grant.lease,
                    reason,
                    wait_ms: Some(options.wait_ms),
                }
            }
        };
        reply = client.request(&done);
    }
}

/// Rebuild the lease's executor and configuration, measure, and wrap
/// the result for the wire. Errors become `fail` reasons.
fn execute_lease(
    offer: &LeaseOffer,
    cache: &mut Option<(String, Box<dyn Executor>)>,
) -> Result<TrialOutcome, String> {
    if cache.as_ref().map(|(tag, _)| tag.as_str()) != Some(offer.executor.as_str()) {
        let spec = ExecutorSpec::named(&offer.executor)?;
        let built = spec.build();
        if built.describe() != offer.executor {
            return Err(format!(
                "rebuilt executor tag {:?} does not match lease tag {:?}",
                built.describe(),
                offer.executor
            ));
        }
        *cache = Some((offer.executor.clone(), built));
    }
    let (_, executor) = cache.as_ref().expect("just populated");
    let config = JvmConfig::parse_args(executor.registry(), &offer.config)
        .map_err(|e| format!("bad config args: {e:?}"))?;
    if config.fingerprint() != offer.fingerprint {
        return Err(format!(
            "config fingerprint mismatch: rebuilt {:#x}, leased {:#x}",
            config.fingerprint(),
            offer.fingerprint
        ));
    }
    let measurement = executor.measure(&config, offer.seed);
    Ok(TrialOutcome::from_measurement(&measurement))
}

/// How often an in-flight lease is heartbeated: a third of its
/// deadline, at most 250 ms. Leases under 2 s are never beaten: they
/// run on the simulator, which finishes in microseconds. Long trials (a
/// real JVM under `ProcessExecutor`) would outlive their deadline
/// without beats.
fn beat_interval(deadline_ms: u64) -> Option<Duration> {
    (deadline_ms >= 2_000).then(|| Duration::from_millis((deadline_ms / 3).min(250)))
}

/// Stops a [`Pulse`]'s heartbeat thread when dropped.
struct StopPulse<'a>(&'a Pulse);

impl Drop for StopPulse<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// The leases a worker's slots are measuring, as its heartbeat thread
/// sees them.
#[derive(Debug, Default)]
struct PulseTable {
    /// In-flight lease → (beat interval, last beat or lease start).
    leases: HashMap<u64, (Duration, Instant)>,
    /// The heartbeat thread waits with nothing in flight: a new lease
    /// must wake it.
    idle: bool,
    /// The slot loops are done: the heartbeat thread exits.
    stopped: bool,
}

impl PulseTable {
    /// Track `lease` from `now` if its deadline calls for beats; returns
    /// whether the heartbeat thread must be woken to see it.
    fn start(&mut self, lease: u64, deadline_ms: u64, now: Instant) -> bool {
        let Some(every) = beat_interval(deadline_ms) else {
            return false;
        };
        self.leases.insert(lease, (every, now));
        self.idle
    }

    /// The leases whose beat is due at `now`, in lease order; each is
    /// marked beaten.
    fn due(&mut self, now: Instant) -> Vec<u64> {
        let mut due: Vec<u64> = Vec::new();
        for (lease, (every, last)) in &mut self.leases {
            if now.saturating_duration_since(*last) >= *every {
                *last = now;
                due.push(*lease);
            }
        }
        due.sort_unstable();
        due
    }

    /// When the next beat falls due, if anything is in flight.
    fn next_due(&self) -> Option<Instant> {
        self.leases
            .values()
            .map(|(every, last)| *last + *every)
            .min()
    }
}

/// One worker connection's in-flight leases, shared by its slot loops
/// and its one heartbeat thread ([`Pulse::run`]). A lease costs its slot
/// loop two uncontended locks; the heartbeat connection opens only when
/// the first beat falls due, so a worker whose trials all finish within
/// one beat interval (simulator runs) never opens it.
#[derive(Debug, Default)]
struct Pulse {
    table: Mutex<PulseTable>,
    wake: Condvar,
}

impl Pulse {
    fn lock(&self) -> std::sync::MutexGuard<'_, PulseTable> {
        self.table.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn start(&self, lease: u64, deadline_ms: u64) {
        if self.lock().start(lease, deadline_ms, Instant::now()) {
            self.wake.notify_one();
        }
    }

    fn finish(&self, lease: u64) {
        self.lock().leases.remove(&lease);
    }

    fn stop(&self) {
        self.lock().stopped = true;
        self.wake.notify_one();
    }

    /// The heartbeat thread: beat due leases on a connection of its own
    /// (a slot's connection is busy with request/reply), sleeping until
    /// the next beat falls due, until [`Pulse::stop`].
    fn run(&self, addr: &str, wid: u64) {
        let mut conn: Option<Client> = None;
        let mut table = self.lock();
        loop {
            if table.stopped {
                return;
            }
            let now = Instant::now();
            let due = table.due(now);
            if due.is_empty() {
                table = match table.next_due() {
                    Some(at) => self
                        .wake
                        .wait_timeout(table, at.saturating_duration_since(now))
                        .map(|(g, _)| g)
                        .unwrap_or_else(|p| p.into_inner().0),
                    None => {
                        table.idle = true;
                        let mut table = self.wake.wait(table).unwrap_or_else(|p| p.into_inner());
                        table.idle = false;
                        table
                    }
                };
                continue;
            }
            drop(table);
            if conn.is_none() {
                // A lost ack must not pin this thread past a stop.
                conn = Client::connect(addr).ok().and_then(|mut c| {
                    c.set_io_timeout(Duration::from_millis(2_000)).ok()?;
                    Some(c)
                });
            }
            if let Some(c) = &mut conn {
                if c.request(&Request::Heartbeat { wid, leases: due }).is_err() {
                    conn = None; // reconnect at the next due beat
                }
            }
            table = self.lock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(secs: u64) -> Measurement {
        Measurement {
            time: SimDuration::from_secs(secs),
            pause_p99: None,
            counters: None,
            error: None,
        }
    }

    #[test]
    fn heartbeats_keep_a_lease_past_its_deadline() {
        let registry = Arc::new(WorkerRegistry::new(
            Duration::from_millis(200),
            TelemetryBus::disabled(),
        ));
        let wid = registry.register("sim", 1);
        let jid = registry
            .submit(1, 0, "sim:test".into(), Vec::new(), 7, 9)
            .expect("a worker serves the tag");
        let LeaseGrant::Offer(offer) = registry.lease(wid, Duration::ZERO).unwrap() else {
            panic!("the queued job is offered");
        };
        // The result waiter doubles as the reaper: it sweeps deadlines on
        // every wake while the worker beats three times per deadline.
        let waiter = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || registry.await_result(jid))
        };
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(600) {
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(registry.heartbeat(wid, &[offer.lease]), 1);
        }
        assert_eq!(registry.leases_expired(), 0);
        registry.complete(wid, offer.lease, measurement(3));
        let got = waiter.join().unwrap().expect("the complete is accepted");
        assert_eq!(got.time, SimDuration::from_secs(3));
        assert_eq!(registry.leases_completed(), 1);
        assert_eq!(registry.leases_expired(), 0);
    }

    #[test]
    fn a_complete_from_a_worker_that_does_not_hold_the_lease_is_stale() {
        let registry = WorkerRegistry::new(Duration::from_secs(3_600), TelemetryBus::disabled());
        let (w1, w2) = (registry.register("sim", 1), registry.register("sim", 1));
        let first = registry
            .submit(1, 0, "sim:test".into(), Vec::new(), 7, 0)
            .expect("a worker serves the tag");
        let LeaseGrant::Offer(offer) = registry.lease(w1, Duration::ZERO).unwrap() else {
            panic!("the queued job is offered to w1");
        };
        let queued = registry
            .submit(1, 1, "sim:test".into(), Vec::new(), 8, 1)
            .expect("a worker serves the tag");
        // w2 never held the lease: its complete changes nothing.
        registry.complete(w2, offer.lease, measurement(2));
        assert_eq!(registry.leases_completed(), 0);
        // w1 completes its own lease, which frees its slot for the
        // queued job.
        registry.complete(w1, offer.lease, measurement(1));
        let LeaseGrant::Offer(next) = registry.lease(w1, Duration::ZERO).unwrap() else {
            panic!("w1's slot is free again");
        };
        assert_eq!(next.slot, 1);
        assert_eq!(
            registry.await_result(first).map(|m| m.time),
            Some(SimDuration::from_secs(1))
        );
        registry.complete(w1, next.lease, measurement(3));
        assert_eq!(
            registry.await_result(queued).map(|m| m.time),
            Some(SimDuration::from_secs(3))
        );
    }

    #[test]
    fn only_long_leases_beat_and_the_older_one_first() {
        let t0 = Instant::now();
        let mut table = PulseTable::default();
        // A short deadline never beats, however long it runs.
        table.start(1, 1_999, t0);
        assert!(table.due(t0 + Duration::from_secs(10)).is_empty());
        assert_eq!(table.next_due(), None);

        table.start(2, 10_000, t0);
        table.start(3, 10_000, t0 + Duration::from_millis(200));
        assert_eq!(table.next_due(), Some(t0 + Duration::from_millis(250)));
        assert!(table.due(t0 + Duration::from_millis(100)).is_empty());
        // At 250 ms only the older lease is due; a beat restarts its clock.
        assert_eq!(table.due(t0 + Duration::from_millis(250)), vec![2]);
        assert!(table.due(t0 + Duration::from_millis(300)).is_empty());
        assert_eq!(table.due(t0 + Duration::from_millis(500)), vec![2, 3]);
        // A 2.4 s deadline beats every 250 ms; a 600 ms one never does.
        assert_eq!(beat_interval(2_400), Some(Duration::from_millis(250)));
        assert_eq!(beat_interval(600), None);
    }

    /// The ledger's internal agreement: every outstanding lease holds an
    /// issued job, every worker's in-flight count is the jobs issued to
    /// it, and the queue holds exactly the queued jobs, once each.
    fn check_ledger(ledger: &Ledger) {
        for (lease, jid) in &ledger.leases {
            assert!(
                matches!(ledger.jobs[jid].state, JobState::Issued { .. }),
                "lease {lease} holds job {jid} in {:?}",
                ledger.jobs[jid].state
            );
        }
        for (wid, worker) in &ledger.workers {
            let issued = ledger
                .jobs
                .values()
                .filter(|j| matches!(j.state, JobState::Issued { wid: w, .. } if w == *wid))
                .count() as u64;
            assert_eq!(worker.inflight, issued, "worker {wid}");
            assert!(worker.inflight <= worker.slots, "worker {wid}");
        }
        let mut queued: Vec<u64> = ledger
            .jobs
            .iter()
            .filter(|(_, j)| matches!(j.state, JobState::Queued))
            .map(|(jid, _)| *jid)
            .collect();
        let mut queue: Vec<u64> = ledger.queue.iter().copied().collect();
        queued.sort_unstable();
        queue.sort_unstable();
        assert_eq!(queue, queued, "the queue is the queued jobs");
    }

    /// How a job ended: `Some(secs)` done with that measurement, `None`
    /// abandoned.
    type End = Option<u64>;

    fn end_of(ledger: &Ledger, jid: u64) -> Option<End> {
        match &ledger.jobs[&jid].state {
            JobState::Done(m) => Some(Some(m.time.as_nanos() / 1_000_000_000)),
            JobState::Abandoned => Some(None),
            JobState::Queued | JobState::Issued { .. } => None,
        }
    }

    /// What the operation-sequence test knows besides the registry.
    #[derive(Default)]
    struct Model {
        live: Vec<u64>,
        gone: Vec<u64>,
        /// Leases a worker believes it holds (it never learns of an
        /// expiry): lease → (wid, jid).
        held: std::collections::BTreeMap<u64, (u64, u64)>,
        seen: std::collections::HashSet<u64>,
        /// Per job: the leases issued for it, and how it ended.
        issues: HashMap<u64, u32>,
        ended: HashMap<u64, End>,
        slot_job: HashMap<u64, u64>,
        /// Set once the registry drained: no lease is issued after it.
        drained: bool,
    }

    impl Model {
        /// Serve `wid`'s next lease without waiting, as the daemon serves
        /// a `lease` frame or the tail of a combined `complete`/`fail`.
        fn lease(&mut self, registry: &WorkerRegistry, wid: u64, case: u64) {
            match registry.lease(wid, Duration::ZERO) {
                Ok(LeaseGrant::Offer(offer)) => {
                    assert!(!self.drained, "case {case}: a lease after the drain");
                    let lease = offer.lease;
                    assert!(self.seen.insert(lease), "case {case}: lease {lease} reused");
                    let jid = self.slot_job[&offer.slot];
                    let n = self.issues.entry(jid).or_insert(0);
                    *n += 1;
                    assert!(
                        *n <= 1 + MAX_REISSUES,
                        "case {case}: job {jid} issued {n} times"
                    );
                    self.held.insert(lease, (wid, jid));
                }
                Ok(LeaseGrant::Idle) => {
                    assert!(self.live.contains(&wid) && !self.drained, "case {case}")
                }
                Ok(LeaseGrant::Draining) => assert!(self.drained, "case {case}"),
                Err(e) => {
                    assert_eq!(e.code, "unknown-worker", "case {case}");
                    assert!(
                        !self.live.contains(&wid),
                        "case {case}: {wid} is registered"
                    );
                }
            }
        }

        /// A job that ended stays ended the same way.
        fn check_ends(&mut self, ledger: &Ledger, case: u64) {
            for &jid in self.slot_job.values() {
                match (end_of(ledger, jid), self.ended.get(&jid)) {
                    (Some(now), Some(was)) => assert_eq!(now, *was, "case {case}: job {jid}"),
                    (Some(now), None) => {
                        self.ended.insert(jid, now);
                    }
                    (None, Some(was)) => panic!("case {case}: job {jid} revived after {was:?}"),
                    (None, None) => {}
                }
            }
        }
    }

    /// Seeded operation sequences against one registry: register,
    /// submit, lease, complete and fail (each with or without asking for
    /// the next lease, as the daemon serves a frame carrying `wait_ms`),
    /// a complete from a worker that does not hold the lease, heartbeat,
    /// expire, deregister and drain. After every step: lease ids are
    /// fresh, the ledger agrees with itself, no job is issued more than
    /// `1 + MAX_REISSUES` times, and a job that ended stays ended the
    /// same way. A non-holder's complete changes neither the job nor an
    /// in-flight count, a lease beaten before its deadline is not
    /// reaped, and no lease is issued after the drain. Finally every job
    /// ends exactly once, through `await_result`: done with the
    /// measurement its live lease carried, or abandoned.
    #[test]
    fn generated_operation_sequences_keep_the_lease_ledger_invariants() {
        use jtune_util::{Rng, Xoshiro256pp};

        const CASES: u64 = 64;
        const STEPS: usize = 200;
        for case in 0..CASES {
            let seed = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1ea5e;
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let registry =
                WorkerRegistry::new(Duration::from_secs(3_600), TelemetryBus::disabled());
            let mut m = Model::default();
            let pick = |rng: &mut Xoshiro256pp, n: usize| rng.next_below(n as u64) as usize;
            for slot in 0..STEPS as u64 {
                match rng.next_below(10) {
                    0 if m.live.len() < 4 => {
                        m.live.push(registry.register("sim", 1 + rng.next_below(2)));
                    }
                    1 => {
                        let jid = registry.submit(1, slot, "sim:test".into(), Vec::new(), 7, slot);
                        let served = !m.live.is_empty() && !m.drained;
                        assert_eq!(jid.is_some(), served, "case {case}");
                        if let Some(jid) = jid {
                            m.slot_job.insert(slot, jid);
                        }
                    }
                    2 if !m.live.is_empty() || !m.gone.is_empty() => {
                        let from_gone =
                            m.live.is_empty() || (!m.gone.is_empty() && rng.next_bool(0.1));
                        let wid = if from_gone {
                            m.gone[pick(&mut rng, m.gone.len())]
                        } else {
                            m.live[pick(&mut rng, m.live.len())]
                        };
                        m.lease(&registry, wid, case);
                    }
                    3 | 4 if !m.held.is_empty() => {
                        let leases: Vec<u64> = m.held.keys().copied().collect();
                        let lease = leases[pick(&mut rng, leases.len())];
                        let (wid, jid) = m.held.remove(&lease).expect("picked from the map");
                        let was_live = registry.lock().leases.get(&lease) == Some(&jid);
                        let before = end_of(&registry.lock(), jid);
                        let completing = rng.next_bool(0.75);
                        if completing {
                            registry.complete(wid, lease, measurement(lease));
                        } else {
                            registry.fail(wid, lease, "cannot run");
                        }
                        let after = end_of(&registry.lock(), jid);
                        match (was_live, completing) {
                            (true, true) => assert_eq!(after, Some(Some(lease)), "case {case}"),
                            (true, false) => {
                                assert!(matches!(after, None | Some(None)), "case {case}")
                            }
                            (false, _) => assert_eq!(after, before, "case {case}: stale {lease}"),
                        }
                        if rng.next_bool(0.8) {
                            m.lease(&registry, wid, case);
                        }
                    }
                    5 => {
                        let mut ledger = registry.lock();
                        let mut leases: Vec<u64> = ledger.leases.keys().copied().collect();
                        leases.sort_unstable();
                        if !leases.is_empty() {
                            let jid = ledger.leases[&leases[pick(&mut rng, leases.len())]];
                            let job = ledger.jobs.get_mut(&jid).expect("leased job");
                            if let JobState::Issued { deadline, .. } = &mut job.state {
                                *deadline = Instant::now();
                            }
                            registry.reap(&mut ledger, Instant::now());
                        }
                    }
                    6 if !m.live.is_empty() => {
                        let wid = m.live.swap_remove(pick(&mut rng, m.live.len()));
                        registry.deregister(wid);
                        m.gone.push(wid);
                    }
                    7 if !m.held.is_empty() => {
                        let leases: Vec<u64> = m.held.keys().copied().collect();
                        let lease = leases[pick(&mut rng, leases.len())];
                        let (holder, jid) = m.held[&lease];
                        let others: Vec<u64> = m
                            .live
                            .iter()
                            .chain(&m.gone)
                            .copied()
                            .filter(|w| *w != holder)
                            .collect();
                        if others.is_empty() {
                            continue;
                        }
                        let other = others[pick(&mut rng, others.len())];
                        let snapshot = |ledger: &Ledger| {
                            let inflight = |w| ledger.workers.get(&w).map(|e| e.inflight);
                            let job = format!("{:?}", ledger.jobs[&jid].state);
                            (
                                job,
                                inflight(holder),
                                inflight(other),
                                ledger.leases.get(&lease).copied(),
                            )
                        };
                        let before = snapshot(&registry.lock());
                        registry.complete(other, lease, measurement(lease));
                        assert_eq!(
                            snapshot(&registry.lock()),
                            before,
                            "case {case}: {other} completed {lease}"
                        );
                    }
                    8 if !m.live.is_empty() => {
                        // Bring the worker's live leases within a second of
                        // their deadlines, beat them, then sweep two seconds
                        // on: every beaten lease survives.
                        let wid = m.live[pick(&mut rng, m.live.len())];
                        let mine: Vec<u64> = m
                            .held
                            .iter()
                            .filter(|(_, (w, _))| *w == wid)
                            .map(|(l, _)| *l)
                            .collect();
                        let soon = Instant::now() + Duration::from_secs(1);
                        let live: Vec<u64> = {
                            let mut ledger = registry.lock();
                            let live: Vec<u64> = mine
                                .iter()
                                .copied()
                                .filter(|l| ledger.holds(wid, *l))
                                .collect();
                            for lease in &live {
                                let jid = ledger.leases[lease];
                                if let Some(JobState::Issued { deadline, .. }) =
                                    ledger.jobs.get_mut(&jid).map(|j| &mut j.state)
                                {
                                    *deadline = soon;
                                }
                            }
                            live
                        };
                        assert_eq!(
                            registry.heartbeat(wid, &mine),
                            live.len() as u64,
                            "case {case}"
                        );
                        let mut ledger = registry.lock();
                        registry.reap(&mut ledger, soon + Duration::from_secs(1));
                        for lease in &live {
                            assert!(
                                ledger.holds(wid, *lease),
                                "case {case}: beaten lease {lease} reaped"
                            );
                        }
                    }
                    9 if !m.drained && rng.next_bool(0.03) => {
                        // Workers deregister when told to drain, which is
                        // what lets `drain` return.
                        std::thread::scope(|scope| {
                            scope.spawn(|| registry.drain());
                            for wid in m.live.drain(..) {
                                registry.deregister(wid);
                                m.gone.push(wid);
                            }
                        });
                        m.drained = true;
                    }
                    _ => {}
                }
                let ledger = registry.lock();
                check_ledger(&ledger);
                m.check_ends(&ledger, case);
            }

            // Every worker leaves; then each job's waiter collects it.
            for wid in m.live.drain(..) {
                registry.deregister(wid);
            }
            check_ledger(&registry.lock());
            let mut jobs: Vec<u64> = m.slot_job.values().copied().collect();
            jobs.sort_unstable();
            for jid in jobs {
                let got = registry
                    .await_result(jid)
                    .map(|r| r.time.as_nanos() / 1_000_000_000);
                let want = m.ended.get(&jid).copied().flatten();
                assert_eq!(got, want, "case {case}: job {jid}");
                assert!(
                    registry.await_result(jid).is_none(),
                    "case {case}: collected twice"
                );
            }
            let ledger = registry.lock();
            assert!(ledger.jobs.is_empty() && ledger.leases.is_empty() && ledger.queue.is_empty());
        }
    }

    /// A daemon that ignores `wait_ms` acks each `complete` with
    /// `{"lease":N}`: the worker polls with a plain `lease` on the same
    /// connection and runs every trial it is offered.
    #[test]
    fn a_daemon_that_acks_completes_still_gets_its_trials_run() {
        use std::io::{BufReader, Write};

        use crate::net::read_frame;
        use crate::wire::{parse_request, render_response};

        let executor = ExecutorSpec::named("sim:compress")
            .expect("built-in workload")
            .build();
        let fingerprint = JvmConfig::parse_args(executor.registry(), &[])
            .expect("the default configuration")
            .fingerprint();
        let offer = move |lease| LeaseOffer {
            lease,
            sid: 1,
            slot: lease,
            seed: lease,
            fingerprint,
            executor: "sim:compress".into(),
            deadline_ms: 1_000,
            config: Vec::new(),
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || {
            // One connection: a worker that reconnects fails the test.
            let (stream, _) = listener.accept().expect("the worker connects");
            drop(listener);
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let (mut seen, mut offered) = (Vec::new(), 0);
            while let Ok(Some(line)) = read_frame(&mut reader, 1 << 20) {
                let request = parse_request(&line).expect("the worker sends valid frames");
                let reply = match &request {
                    Request::Register { .. } => Response::WorkerAck { wid: 1 },
                    Request::Lease { .. } if offered < 2 => {
                        offered += 1;
                        Response::Leased(offer(offered))
                    }
                    Request::Lease { .. } => Response::Idle { draining: true },
                    Request::Complete { lease, .. } => Response::LeaseAck { lease: *lease },
                    Request::Deregister { wid } => Response::WorkerAck { wid: *wid },
                    other => panic!("unexpected request {other:?}"),
                };
                let last = matches!(request, Request::Deregister { .. });
                seen.push(request);
                writer
                    .write_all(format!("{}\n", render_response(&reply)).as_bytes())
                    .expect("reply");
                if last {
                    break;
                }
            }
            seen
        });
        let mut options = WorkerOptions::new(addr.to_string());
        options.backoff.retry.max_retries = 0;
        let stats = run_worker(&options).expect("the worker drains");
        assert_eq!((stats.completed, stats.failed), (2, 0));
        let ops: Vec<(&str, Option<u64>)> = daemon
            .join()
            .expect("fake daemon")
            .iter()
            .map(|r| match r {
                Request::Register { .. } => ("register", None),
                Request::Lease { .. } => ("lease", None),
                Request::Complete { wait_ms, .. } => ("complete", *wait_ms),
                Request::Deregister { .. } => ("deregister", None),
                other => panic!("unexpected request {other:?}"),
            })
            .collect();
        assert_eq!(
            ops,
            [
                ("register", None),
                ("lease", None),
                ("complete", Some(options.wait_ms)),
                ("lease", None),
                ("complete", Some(options.wait_ms)),
                ("lease", None),
                ("deregister", None),
            ]
        );
    }

    #[test]
    fn a_new_lease_wakes_an_idle_heartbeat_thread() {
        let mut table = PulseTable::default();
        assert!(!table.start(1, 10_000, Instant::now()));
        table.idle = true;
        assert!(
            !table.start(2, 1_000, Instant::now()),
            "short leases never beat"
        );
        assert!(table.start(3, 10_000, Instant::now()));
    }
}
