//! The tuning daemon: session manager, state directory, TCP front-end.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use autotuner_core::Tuner;
use jtune_harness::{MeasurementCache, MemoExecutor};
use jtune_telemetry::{EventStreamSink, JsonlSink, MetricsRegistry, TelemetryBus, TraceEvent};
use jtune_util::cli::{self, Opt};
use jtune_workloads::workload_by_name;

use crate::net::{self, ChaosWriter, FrameReadError, NetFaultPlan};
use crate::scheduler::{FairScheduler, GatedExecutor};
use crate::session::{ProgressProbe, SessionSpec, SessionState};
use crate::wire::{self, Request, Response, WireError};
use crate::worker::{LeaseGrant, RemoteExecutor, WorkerRegistry};

/// The concrete executor stack a daemon session runs on: the session's
/// base executor (built from its [`ExecutorSpec`]) offered to the
/// worker pool, gated by the fair-share scheduler, memoized across
/// sessions. Memo sits outermost so cache hits never consume a
/// scheduler slot or a worker lease — and since the memo key is the
/// inner executor's tag (which [`RemoteExecutor`] passes through), a
/// trial measured by one worker is a free hit for every session and
/// every other worker.
///
/// [`ExecutorSpec`]: jtune_harness::ExecutorSpec
pub type SessionExecutor = MemoExecutor<GatedExecutor<RemoteExecutor>>;

/// Replace `path` with `contents` atomically: write a sibling temp file,
/// then rename it into place. Session records run to megabytes, so a
/// plain `fs::write` is visible half-written — both to a `result`
/// request polling for completion and to [`TuneServer::restore`] after a
/// kill mid-write, which treats the file's existence as the completion
/// marker. Neither may ever observe a torn prefix.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently *running* sessions. Submissions past this
    /// wait in the admission queue (up to [`ServerConfig::queue`]);
    /// past both bounds they are shed with the `overloaded` error code
    /// and a `retry_after_ms` hint.
    pub capacity: usize,
    /// Extra sessions admitted as queued beyond `capacity`; they start
    /// as running sessions finish. `capacity + queue` bounds resident
    /// non-terminal sessions.
    pub queue: usize,
    /// Concurrent measurement slots shared (fairly) by all sessions.
    pub slots: usize,
    /// Durable session state: one subdirectory per session holding
    /// `spec.json`, `journal.jsonl`, `trace.jsonl` and, when finished,
    /// `result.json`.
    pub state_dir: PathBuf,
    /// Emit timing spans on each session's bus (default `false`). Spans
    /// are ephemeral — the serialised `trace.jsonl` is byte-identical
    /// either way — but they feed the per-session wall histograms the
    /// `stats` op reports.
    pub spans: bool,
    /// Worker lease lifetime in milliseconds: a leased trial whose
    /// `complete` (or heartbeat) has not arrived this long after issue
    /// is reissued to another worker, and eventually abandoned to the
    /// local pool.
    pub lease_ms: u64,
    /// Per-connection read/write deadline in milliseconds; `0` (the
    /// default) leaves sockets deadline-free, preserving pre-hardening
    /// behaviour. With a deadline set, a peer that stalls mid-frame (a
    /// slow-loris client, a hung worker) is reaped when the deadline
    /// lapses instead of pinning its handler thread forever.
    pub io_timeout_ms: u64,
    /// Cap on one wire frame in bytes; longer lines are rejected with
    /// the `frame-too-large` code and bounded memory.
    pub max_frame: usize,
    /// Maximum concurrently served connections; `0` (the default) is
    /// unlimited. Over-limit connections get one `overloaded` error
    /// frame and are dropped without a handler thread.
    pub conn_limit: usize,
    /// Seeded network-fault schedule applied to every connection's
    /// outbound frames (chaos testing); inactive by default, which is
    /// byte-invisible on the wire.
    pub net_faults: NetFaultPlan,
}

impl ServerConfig {
    /// Defaults: capacity 8 running + 8 queued, 4 slots, spans off,
    /// 10 s leases, no socket deadlines, 1 MiB frame cap, unlimited
    /// connections, chaos off.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            capacity: 8,
            queue: 8,
            slots: 4,
            state_dir: state_dir.into(),
            spans: false,
            lease_ms: 10_000,
            io_timeout_ms: 0,
            max_frame: net::DEFAULT_MAX_FRAME,
            conn_limit: 0,
            net_faults: NetFaultPlan::inactive(),
        }
    }
}

/// The daemon options of `jtune serve` (with [`NET_FAULT_OPTIONS`] on
/// `net_faults`). `--capacity` comes before `--queue`: it also sets the
/// queue, so `capacity + queue` scales with it unless `--queue` says
/// otherwise.
///
/// [`NET_FAULT_OPTIONS`]: crate::net::NET_FAULT_OPTIONS
#[rustfmt::skip]
pub const SERVER_OPTIONS: &[Opt<ServerConfig>] = &[
    Opt::new("--state-dir DIR", "jtune-state", "durable session state; a restarted daemon resumes from it",
        |c, v| { c.state_dir = v.into(); Ok(()) }),
    Opt::new("--capacity N", "8", "sessions running at once (also sets --queue)",
        |c, v| cli::int(v).map(|n| { c.capacity = n; c.queue = n; })),
    Opt::new("--queue N", "8", "sessions queued past --capacity; beyond both, submits are shed as overloaded",
        |c, v| cli::int(v).map(|n| c.queue = n)),
    Opt::new("--slots N", "4", "measurement slots shared fairly by all sessions",
        |c, v| cli::int(v).map(|n| c.slots = n)),
    Opt::new("--spans", "off", "live per-phase wall histograms for `client stats` (traces unchanged)",
        |c, _| { c.spans = true; Ok(()) }),
    Opt::new("--lease-ms MS", "10000", "reissue a remote worker's trial not completed within MS",
        |c, v| cli::int(v).map(|ms| c.lease_ms = ms)),
    Opt::new("--io-timeout-ms MS", "0 (none)", "reap peers that stall mid-frame for MS",
        |c, v| cli::int(v).map(|ms| c.io_timeout_ms = ms)),
    Opt::new("--max-frame BYTES", "1048576", "reject longer request lines with frame-too-large",
        |c, v| match cli::int(v)? { 0 => Err("must be at least 1".into()), n => { c.max_frame = n; Ok(()) } }),
    Opt::new("--conn-limit N", "0 (none)", "concurrent connections served; more get one overloaded frame",
        |c, v| cli::int(v).map(|n| c.conn_limit = n)),
];

/// One resident session: spec, live state, control handles.
pub struct SessionHandle {
    /// The session's stable ID.
    pub sid: u64,
    /// What was submitted.
    pub spec: SessionSpec,
    state: Mutex<SessionState>,
    stop: Arc<AtomicBool>,
    stream: Arc<EventStreamSink>,
    probe: Arc<ProgressProbe>,
    tally: Mutex<Tally>,
    join: Mutex<Option<JoinHandle<()>>>,
}

/// What `status` and `stats` read of a session besides its probe: the
/// live sources while its thread runs, their final values once it ends.
enum Tally {
    /// Not started, or running: the registry its bus feeds and, while
    /// its thread runs, its executor stack.
    Live {
        metrics: Arc<MetricsRegistry>,
        executor: Option<Arc<SessionExecutor>>,
    },
    /// The thread ended: its cross-session hit count, its `stats` row
    /// metrics rendered for good, and its wall histograms (for
    /// [`SessionHandle::metrics`]). The executor stack and the event
    /// histograms are gone.
    Frozen {
        shared_hits: u64,
        metrics_json: String,
        walls: Arc<MetricsRegistry>,
    },
}

impl SessionHandle {
    fn new(sid: u64, spec: SessionSpec, state: SessionState) -> SessionHandle {
        SessionHandle {
            sid,
            spec,
            state: Mutex::new(state),
            stop: Arc::new(AtomicBool::new(false)),
            stream: Arc::new(EventStreamSink::new()),
            probe: Arc::new(ProgressProbe::new()),
            tally: Mutex::new(Tally::Live {
                metrics: Arc::new(MetricsRegistry::new()),
                executor: None,
            }),
            join: Mutex::new(None),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    fn set_state(&self, next: SessionState) {
        *self.state.lock().unwrap_or_else(|p| p.into_inner()) = next;
    }

    fn tally(&self) -> MutexGuard<'_, Tally> {
        self.tally.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Trials this session has evaluated so far (live).
    pub fn trials(&self) -> u64 {
        self.probe.trials()
    }

    /// This session's metrics registry: event counters plus, with spans
    /// enabled, wall-clock histograms. Once the session's thread has
    /// ended, only the wall histograms remain; the rest lives on in its
    /// frozen `stats` row.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        match &*self.tally() {
            Tally::Live { metrics, .. } => Arc::clone(metrics),
            Tally::Frozen { walls, .. } => Arc::clone(walls),
        }
    }

    /// The `metrics` object of this session's `stats` row.
    fn metrics_json(&self) -> String {
        match &*self.tally() {
            Tally::Live { metrics, .. } => metrics.to_json(),
            Tally::Frozen { metrics_json, .. } => metrics_json.clone(),
        }
    }

    /// Cross-session cache hits this session has enjoyed so far.
    pub fn shared_hits(&self) -> u64 {
        match &*self.tally() {
            Tally::Live { executor, .. } => executor.as_ref().map_or(0, |e| e.hits()),
            Tally::Frozen { shared_hits, .. } => *shared_hits,
        }
    }

    /// The thread is done with the session: keep only final values.
    fn settle(&self) {
        let mut tally = self.tally();
        if let Tally::Live {
            metrics,
            executor: Some(executor),
        } = &*tally
        {
            *tally = Tally::Frozen {
                shared_hits: executor.hits(),
                metrics_json: metrics.to_json(),
                walls: Arc::new(metrics.wall_only()),
            };
        }
    }
}

/// The long-running tuning service. One instance owns every session,
/// the shared measurement memo, and the fair-share scheduler; `serve`
/// pumps a TCP listener through it.
pub struct TuneServer {
    config: ServerConfig,
    sched: Arc<FairScheduler>,
    memo: Arc<MeasurementCache>,
    sessions: Mutex<BTreeMap<u64, Arc<SessionHandle>>>,
    next_sid: AtomicU64,
    shutting_down: AtomicBool,
    /// Daemon-level metrics: the `frame_wall` histogram of per-request
    /// handling time (fed directly by `handle_connection`) plus the
    /// worker-plane counters (`workers_registered`, `trials_leased`,
    /// `leases_expired`) fed by the registry's telemetry bus.
    metrics: Arc<MetricsRegistry>,
    /// Remote worker ledger: registered workers, queued trials,
    /// outstanding leases.
    workers: Arc<WorkerRegistry>,
    /// Connections currently being served (admission control).
    connections: AtomicUsize,
    /// Monotonic connection counter: each connection's index into the
    /// [`NetFaultPlan`] schedule.
    next_conn: AtomicU64,
    /// Sessions whose thread may not have been joined yet. Each session
    /// start joins the threads that have finished, since a finished
    /// thread keeps its stack until it is joined.
    unjoined: Mutex<Vec<Arc<SessionHandle>>>,
}

/// How long an over-capacity submitter should wait before retrying,
/// in milliseconds: grows with the depth of the overload so a thundering
/// herd spreads out, capped at five seconds.
fn overload_hint(resident: usize, bound: usize) -> u64 {
    (100 * (resident.saturating_sub(bound) as u64 + 1)).min(5_000)
}

impl TuneServer {
    /// Build a server and restore any resumable sessions found in the
    /// state directory (suspended by a drain or orphaned by a crash).
    pub fn new(config: ServerConfig) -> std::io::Result<Arc<TuneServer>> {
        std::fs::create_dir_all(&config.state_dir)?;
        let metrics = Arc::new(MetricsRegistry::new());
        let mut worker_bus = TelemetryBus::new();
        worker_bus.add(Arc::clone(&metrics) as Arc<dyn jtune_telemetry::TuningObserver>);
        let workers = Arc::new(WorkerRegistry::new(
            Duration::from_millis(config.lease_ms.max(1)),
            worker_bus,
        ));
        let server = Arc::new(TuneServer {
            sched: Arc::new(FairScheduler::new(config.slots)),
            memo: Arc::new(MeasurementCache::new()),
            sessions: Mutex::new(BTreeMap::new()),
            next_sid: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            metrics,
            workers,
            connections: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            unjoined: Mutex::new(Vec::new()),
            config,
        });
        server.restore()?;
        Ok(server)
    }

    /// The worker registry (for tests and embedders).
    pub fn workers(&self) -> &Arc<WorkerRegistry> {
        &self.workers
    }

    /// The shared cross-session measurement cache (for tests/metrics).
    pub fn memo(&self) -> &Arc<MeasurementCache> {
        &self.memo
    }

    /// Look up a resident session by ID.
    pub fn session(&self, sid: u64) -> Option<Arc<SessionHandle>> {
        self.sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&sid)
            .cloned()
    }

    /// Block until session `sid` reaches a terminal or suspended state
    /// (joins its thread); returns its final state.
    pub fn join_session(&self, sid: u64) -> Option<SessionState> {
        let handle = self.session(sid)?;
        let join = handle.join.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(join) = join {
            let _ = join.join();
        }
        Some(handle.state())
    }

    /// Feed an overload/robustness event to the daemon-level metrics
    /// registry. These events have no session bus to ride — they happen
    /// at admission or on the wire, before any session is involved — so
    /// they surface as daemon counters in `stats` instead of trace
    /// lines (all four are ephemeral, keeping traces byte-identical).
    fn note_event(&self, event: &TraceEvent) {
        jtune_telemetry::TuningObserver::on_event(self.metrics.as_ref(), event);
    }

    fn session_dir(&self, sid: u64) -> PathBuf {
        self.config.state_dir.join(sid.to_string())
    }

    fn handle_of(&self, sid: u64) -> Result<Arc<SessionHandle>, WireError> {
        self.sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&sid)
            .cloned()
            .ok_or_else(|| WireError::new("unknown-session", format!("no session {sid}")))
    }

    /// Scan the state directory: register finished/cancelled sessions
    /// for `status`/`result`, and restart every resumable one.
    fn restore(self: &Arc<Self>) -> std::io::Result<()> {
        let mut max_sid = 0u64;
        for entry in std::fs::read_dir(&self.config.state_dir)? {
            let entry = entry?;
            let Some(sid) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            max_sid = max_sid.max(sid);
            let dir = entry.path();
            let spec = match std::fs::read_to_string(dir.join("spec.json"))
                .ok()
                .and_then(|text| SessionSpec::parse(&text).ok())
            {
                Some(spec) => spec,
                None => continue, // torn submit: no usable spec, skip
            };
            let state = if dir.join("cancelled").exists() {
                SessionState::Cancelled
            } else if dir.join("result.json").exists() {
                SessionState::Completed
            } else {
                SessionState::Queued
            };
            self.sessions
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(sid, Arc::new(SessionHandle::new(sid, spec, state)));
        }
        self.next_sid.store(max_sid + 1, Ordering::SeqCst);
        // Resumable sessions rejoin through the admission queue like
        // fresh submits, so a restart under a pile of suspended work
        // respects `capacity` instead of stampeding.
        self.kick_queue();
        Ok(())
    }

    /// Admit a new session: validate, persist the spec, start the
    /// session thread, return the session ID.
    pub fn submit(self: &Arc<Self>, spec: SessionSpec) -> Result<u64, WireError> {
        if workload_by_name(&spec.program).is_none() {
            return Err(WireError::new(
                "invalid-spec",
                format!("unknown workload {:?}", spec.program),
            ));
        }
        if let Err(e) = spec.tuner_options().validate() {
            return Err(WireError::new("invalid-spec", e.to_string()));
        }
        let sid = {
            // Admission control under the registry lock so concurrent
            // submits cannot both squeeze past the load-shed check.
            let mut sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
            let resident = sessions
                .values()
                .filter(|h| !h.state().is_terminal())
                .count();
            let bound = self.config.capacity + self.config.queue;
            if resident >= bound {
                let hint = overload_hint(resident, bound);
                self.note_event(&TraceEvent::ConnectionRejected {
                    reason: "overloaded".to_string(),
                    retry_after_ms: hint,
                });
                return Err(WireError::new(
                    "overloaded",
                    format!(
                        "daemon overloaded ({resident} resident sessions, bound {bound}); \
                         retry after the hint"
                    ),
                )
                .with_retry_after(hint));
            }
            let sid = self.next_sid.fetch_add(1, Ordering::SeqCst);
            sessions.insert(
                sid,
                Arc::new(SessionHandle::new(sid, spec.clone(), SessionState::Queued)),
            );
            sid
        };
        // Persist the spec before acknowledging: a daemon crash after
        // the ack can always resume the session from disk.
        let dir = self.session_dir(sid);
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| write_atomic(&dir.join("spec.json"), &(spec.to_json() + "\n")))
        {
            if let Ok(handle) = self.handle_of(sid) {
                handle.set_state(SessionState::Failed(format!("cannot persist spec: {e}")));
            }
            return Err(WireError::new(
                "io-error",
                format!("cannot persist session state: {e}"),
            ));
        }
        self.kick_queue();
        Ok(sid)
    }

    /// Start queued sessions while running ones number fewer than
    /// `capacity`, oldest first. Runs at submit, at restore, and as the
    /// last act of every session thread, so the queue drains exactly as
    /// fast as capacity frees up. Claims (flips Queued → Running) under
    /// the sessions lock, so concurrent kicks never double-start a
    /// session or overshoot capacity.
    fn kick_queue(self: &Arc<Self>) {
        loop {
            if self.is_shutting_down() {
                return;
            }
            let claimed: Vec<Arc<SessionHandle>> = {
                let sessions = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
                let running = sessions
                    .values()
                    .filter(|h| h.state() == SessionState::Running)
                    .count();
                let room = self.config.capacity.saturating_sub(running);
                let picked: Vec<Arc<SessionHandle>> = sessions
                    .values()
                    .filter(|h| h.state() == SessionState::Queued)
                    .take(room)
                    .cloned()
                    .collect();
                for h in &picked {
                    h.set_state(SessionState::Running);
                }
                picked
            };
            if claimed.is_empty() {
                return;
            }
            for handle in claimed {
                self.spawn_session(handle);
            }
            // A spawn can fail synchronously (bad executor spec, trace
            // file unwritable), freeing its claimed slot immediately —
            // loop to offer that slot to the next queued session.
        }
    }

    /// Start (or restart) a session's tuning thread.
    fn spawn_session(self: &Arc<Self>, handle: Arc<SessionHandle>) {
        let dir = self.session_dir(handle.sid);
        let journal = dir.join("journal.jsonl");
        let trace = dir.join("trace.jsonl");

        let base = match handle.spec.executor_spec() {
            Ok(spec) => spec.build(),
            Err(e) => {
                handle.set_state(SessionState::Failed(e));
                return;
            }
        };
        let sink = match JsonlSink::create(&trace) {
            Ok(sink) => sink,
            Err(e) => {
                handle.set_state(SessionState::Failed(format!(
                    "cannot create trace file: {e}"
                )));
                return;
            }
        };
        let executor: Arc<SessionExecutor> = Arc::new(MemoExecutor::new(
            GatedExecutor::new(
                RemoteExecutor::new(base, Arc::clone(&self.workers), handle.sid),
                Arc::clone(&self.sched),
                handle.sid,
            ),
            Arc::clone(&self.memo),
        ));
        let metrics = match &mut *handle.tally() {
            Tally::Live {
                metrics,
                executor: slot,
            } => {
                *slot = Some(Arc::clone(&executor));
                Arc::clone(metrics)
            }
            Tally::Frozen { .. } => unreachable!("a session thread starts once"),
        };

        let mut opts = handle.spec.tuner_options();
        opts.checkpoint = Some(journal.clone());
        if journal.exists() {
            opts.resume = Some(journal);
        }
        opts.stop = Some(Arc::clone(&handle.stop));

        let mut bus = TelemetryBus::new().with_spans(self.config.spans);
        bus.add(Arc::new(sink));
        bus.add(Arc::clone(&handle.stream) as Arc<dyn jtune_telemetry::TuningObserver>);
        bus.add(Arc::clone(&handle.probe) as Arc<dyn jtune_telemetry::TuningObserver>);
        bus.add(metrics as Arc<dyn jtune_telemetry::TuningObserver>);

        handle.set_state(SessionState::Running);
        let thread_handle = Arc::clone(&handle);
        let result_path = dir.join("result.json");
        let cancelled_marker = dir.join("cancelled");
        // Weak: the session thread must not keep a dropped server alive
        // just to kick its queue.
        let server = Arc::downgrade(self);
        let join = std::thread::spawn(move || {
            let program = thread_handle.spec.program.clone();
            let outcome = {
                // Dropped at the block's end: the trace file closes, and
                // only the handle holds the executor stack until `settle`
                // releases it.
                let (executor, bus) = (executor, bus);
                Tuner::new(opts).try_run(executor.as_ref(), &program, &bus)
            };
            let next = match outcome {
                Ok(result) if result.suspended => {
                    if cancelled_marker.exists() {
                        SessionState::Cancelled
                    } else {
                        SessionState::Suspended
                    }
                }
                Ok(result) => {
                    match write_atomic(&result_path, &(result.session.to_json() + "\n")) {
                        Ok(()) => SessionState::Completed,
                        Err(e) => SessionState::Failed(format!("cannot persist result: {e}")),
                    }
                }
                Err(e) => SessionState::Failed(e.to_string()),
            };
            thread_handle.set_state(next);
            thread_handle.stream.close();
            // This session's capacity slot is free: start the next
            // queued session, if any.
            if let Some(server) = server.upgrade() {
                server.kick_queue();
            }
            thread_handle.settle();
        });
        *handle.join.lock().unwrap_or_else(|p| p.into_inner()) = Some(join);
        let finished: Vec<JoinHandle<()>> = {
            let mut unjoined = self.unjoined.lock().unwrap_or_else(|p| p.into_inner());
            unjoined.push(handle);
            let mut finished = Vec::new();
            unjoined.retain(|h| {
                let mut join = h.join.lock().unwrap_or_else(|p| p.into_inner());
                finished.extend(join.take_if(|t| t.is_finished()));
                join.is_some()
            });
            finished
        };
        for thread in finished {
            let _ = thread.join();
        }
    }

    /// Render the status payload (one session, or all in ID order): the
    /// raw JSON array carried by [`Response::Sessions`].
    pub fn status(&self, sid: Option<u64>) -> Result<String, WireError> {
        let handles: Vec<Arc<SessionHandle>> = match sid {
            Some(sid) => vec![self.handle_of(sid)?],
            None => self
                .sessions
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .values()
                .cloned()
                .collect(),
        };
        let rows: Vec<String> = handles
            .iter()
            .map(|h| {
                let state = h.state();
                let mut obj = jtune_util::json::JsonObject::new()
                    .u64("sid", h.sid)
                    .str("program", &h.spec.program)
                    .str("state", state.label());
                if let SessionState::Failed(why) = &state {
                    obj = obj.str("error", why);
                }
                obj.u64("seed", h.spec.seed)
                    .u64("budget_mins", h.spec.budget_mins)
                    .u64("trials", h.probe.trials())
                    .f64("spent_secs", h.probe.spent_secs())
                    .u64("screened", h.probe.screened())
                    .u64("model_fits", h.probe.model_fits())
                    .u64("shared_hits", h.shared_hits())
                    .u64("sched_runs", self.sched.grants(h.sid))
                    .f64("sched_cost_secs", self.sched.charged(h.sid).as_secs_f64())
                    .finish()
            })
            .collect();
        Ok(jtune_util::json::array_of(&rows))
    }

    /// The daemon-level metrics registry (frame-handling histogram and
    /// worker-plane counters).
    pub fn server_metrics(&self) -> &MetricsRegistry {
        self.metrics.as_ref()
    }

    /// Render the stats payloads for [`Response::Stats`]: the raw JSON
    /// array of per-session rows (ID order, each carrying its aggregated
    /// counters + histograms as rendered by [`MetricsRegistry::to_json`])
    /// and the raw JSON object of daemon-level metrics (frame-handling
    /// histogram, worker-plane counters).
    pub fn stats(&self, sid: Option<u64>) -> Result<(String, String), WireError> {
        let handles: Vec<Arc<SessionHandle>> = match sid {
            Some(sid) => vec![self.handle_of(sid)?],
            None => self
                .sessions
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .values()
                .cloned()
                .collect(),
        };
        let rows: Vec<String> = handles
            .iter()
            .map(|h| {
                jtune_util::json::JsonObject::new()
                    .u64("sid", h.sid)
                    .str("program", &h.spec.program)
                    .str("state", h.state().label())
                    .raw("metrics", &h.metrics_json())
                    .finish()
            })
            .collect();
        Ok((jtune_util::json::array_of(&rows), self.metrics.to_json()))
    }

    /// Fetch a completed session's record line (the bytes of
    /// `result.json`, which equal one-shot `jtune tune --json` output).
    pub fn result(&self, sid: u64) -> Result<String, WireError> {
        let handle = self.handle_of(sid)?;
        let state = handle.state();
        // Gate on the state, not the file: the record is renamed into
        // place before the state flips to completed, so a completed
        // session's `result.json` is always whole.
        if state != SessionState::Completed {
            return Err(WireError::new(
                "no-result",
                format!("session {sid} has no result (state: {})", state.label()),
            ));
        }
        let path = self.session_dir(sid).join("result.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => Ok(text.trim_end().to_string()),
            Err(e) => Err(WireError::new(
                "io-error",
                format!("session {sid} result unreadable: {e}"),
            )),
        }
    }

    /// Cancel a session: raise its stop flag and leave a marker so it is
    /// never resumed.
    pub fn cancel(&self, sid: u64) -> Result<(), WireError> {
        let handle = self.handle_of(sid)?;
        if handle.state().is_terminal() {
            return Err(WireError::new(
                "no-session",
                format!(
                    "session {sid} already {}; nothing to cancel",
                    handle.state().label()
                ),
            ));
        }
        let marker = self.session_dir(sid).join("cancelled");
        if let Err(e) = std::fs::write(&marker, b"") {
            return Err(WireError::new(
                "io-error",
                format!("cannot mark session cancelled: {e}"),
            ));
        }
        handle.stop.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Begin shutdown. With `drain`, every running session is stopped at
    /// its next batch boundary and joined — its journal then resumes it
    /// on the next daemon start. Returns once sessions are down.
    pub fn shutdown(&self, drain: bool) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Stop offering trials to workers first: queued jobs fall back
        // to the local pool, long-polling workers are told to exit, and
        // in-flight leases may still stream their results back.
        self.workers.drain();
        let handles: Vec<Arc<SessionHandle>> = self
            .sessions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect();
        if drain {
            for h in &handles {
                h.stop.store(true, Ordering::SeqCst);
            }
            for h in &handles {
                let join = h.join.lock().unwrap_or_else(|p| p.into_inner()).take();
                if let Some(join) = join {
                    let _ = join.join();
                }
            }
        }
        // Persist the daemon-level counters (overload, retries, worker
        // plane) so a post-mortem `jtune report` on the state directory
        // can explain a chaos run without a live daemon to ask.
        let _ = write_atomic(
            &self.config.state_dir.join("server-metrics.json"),
            &(self.metrics.to_json() + "\n"),
        );
    }

    /// Is the server past a shutdown request?
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Serve connections until a `shutdown` request arrives. Each
    /// connection is handled on its own thread; the accept loop itself
    /// is unblocked by a loopback connection after shutdown. With a
    /// connection limit set, over-limit connections are shed at accept
    /// with one `overloaded` error frame — no handler thread, no read.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        for conn in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            if self.config.conn_limit > 0
                && self.connections.load(Ordering::SeqCst) >= self.config.conn_limit
            {
                self.note_event(&TraceEvent::ConnectionRejected {
                    reason: "conn-limit".to_string(),
                    retry_after_ms: 250,
                });
                let err = WireError::new(
                    "overloaded",
                    format!(
                        "connection limit ({}) reached; retry after the hint",
                        self.config.conn_limit
                    ),
                )
                .with_retry_after(250);
                let _ = stream.set_nodelay(true);
                let _ = ChaosWriter::new(stream, NetFaultPlan::inactive(), 0)
                    .write_frame(&wire::error_frame(&err));
                continue;
            }
            self.connections.fetch_add(1, Ordering::SeqCst);
            let server = Arc::clone(self);
            std::thread::spawn(move || {
                let _ = server.handle_connection(stream, addr);
                server.connections.fetch_sub(1, Ordering::SeqCst);
            });
        }
        Ok(())
    }

    fn handle_connection(
        self: &Arc<Self>,
        stream: TcpStream,
        self_addr: std::net::SocketAddr,
    ) -> std::io::Result<()> {
        // Each reply leaves in one write; Nagle would hold it until the
        // peer ACKs the previous one, and the peer delays that ACK.
        stream.set_nodelay(true)?;
        // Socket deadlines are the slow-loris defence: a peer that
        // stalls mid-frame (or never drains its replies) trips the
        // timeout and this handler thread is reclaimed, instead of
        // being pinned until the peer deigns to finish.
        if self.config.io_timeout_ms > 0 {
            let deadline = Some(Duration::from_millis(self.config.io_timeout_ms));
            stream.set_read_timeout(deadline)?;
            stream.set_write_timeout(deadline)?;
        }
        let conn = self.next_conn.fetch_add(1, Ordering::SeqCst);
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = ChaosWriter::new(stream, self.config.net_faults, conn);
        // A worker's registration lives exactly as long as the
        // connection that registered it: when the socket drops — worker
        // killed, network gone, clean exit — its leases are reissued
        // immediately instead of waiting out their deadlines.
        let mut conn_wid: Option<u64> = None;
        let outcome = self.serve_frames(reader, &mut writer, self_addr, &mut conn_wid);
        if let Some(wid) = conn_wid {
            self.workers.deregister(wid);
        }
        outcome
    }

    /// Serve worker `wid`'s next lease, long-polling up to `wait_ms`.
    fn next_lease(&self, wid: u64, wait_ms: u64) -> Result<Response, WireError> {
        self.workers
            .lease(wid, Duration::from_millis(wait_ms))
            .map(|grant| match grant {
                LeaseGrant::Offer(offer) => Response::Leased(offer),
                LeaseGrant::Idle => Response::Idle { draining: false },
                LeaseGrant::Draining => Response::Idle { draining: true },
            })
    }

    /// The reply to a recorded `complete`/`fail` of `lease`: its ack, or,
    /// when the worker sent `wait_ms`, its next lease.
    fn lease_reply(
        &self,
        wid: u64,
        lease: u64,
        wait_ms: Option<u64>,
    ) -> Result<Response, WireError> {
        match wait_ms {
            Some(wait_ms) => self.next_lease(wid, wait_ms),
            None => Ok(Response::LeaseAck { lease }),
        }
    }

    /// Pump one connection's request/reply frames. Every reply goes
    /// through [`wire::render_reply`] — the single encode path the
    /// protocol tests pin byte-for-byte. Reads are bounded by the
    /// configured frame cap; replies pass through the connection's
    /// [`ChaosWriter`] (transparent unless a fault plan is active).
    fn serve_frames(
        self: &Arc<Self>,
        mut reader: BufReader<TcpStream>,
        writer: &mut ChaosWriter<TcpStream>,
        self_addr: std::net::SocketAddr,
        conn_wid: &mut Option<u64>,
    ) -> std::io::Result<()> {
        loop {
            let line = match net::read_frame(&mut reader, self.config.max_frame) {
                Ok(Some(line)) => line,
                Ok(None) => return Ok(()),
                Err(FrameReadError::Io(e)) => return Err(e),
                Err(e) => {
                    let bytes = match &e {
                        FrameReadError::TooLarge { bytes, .. } => *bytes as u64,
                        _ => 0,
                    };
                    self.note_event(&TraceEvent::FrameRejected {
                        code: e.code().to_string(),
                        bytes,
                    });
                    writer.write_frame(&wire::error_frame(&e.to_wire_error()))?;
                    if matches!(e, FrameReadError::TooLarge { .. }) {
                        // Past an oversized line the frame boundary is
                        // untrusted: close instead of resyncing.
                        return Ok(());
                    }
                    // A non-UTF-8 line was consumed whole up to its
                    // newline, so the stream is resynchronised.
                    continue;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            // Frame-handling wall time: from parse to reply written
            // (watch streams count until their stream closes).
            let frame_start = std::time::Instant::now();
            let (request, retry) = match wire::parse_tagged_request(&line) {
                Ok(parsed) => parsed,
                Err(e) => {
                    self.note_event(&TraceEvent::FrameRejected {
                        code: e.code.clone(),
                        bytes: line.len() as u64,
                    });
                    writer.write_frame(&wire::error_frame(&e))?;
                    self.metrics
                        .record_wall("frame_wall", frame_start.elapsed().as_secs_f64());
                    continue;
                }
            };
            // Retried requests carry a retry tag (attempt, backoff) the
            // client spliced in; count them so `stats` shows how much
            // of the load is retry pressure.
            if let Some((attempt, delay_ms)) = retry {
                self.note_event(&TraceEvent::ClientRetried { attempt, delay_ms });
            }
            let reply: Result<Response, WireError> = match request {
                Request::Submit(spec) => self.submit(spec).map(|sid| Response::Sid { sid }),
                Request::Status { sid } => self
                    .status(sid)
                    .map(|sessions| Response::Sessions { sessions }),
                Request::Stats { sid } => self
                    .stats(sid)
                    .map(|(sessions, server)| Response::Stats { sessions, server }),
                Request::Cancel { sid } => self.cancel(sid).map(|()| Response::Sid { sid }),
                Request::Result { sid } => match self.result(sid) {
                    Ok(record) => {
                        writer.write_frame(&wire::render_response(&Response::RecordFollows))?;
                        writer.write_frame(&record)?;
                        self.metrics
                            .record_wall("frame_wall", frame_start.elapsed().as_secs_f64());
                        continue;
                    }
                    Err(e) => Err(e),
                },
                Request::Watch { sid } => match self.handle_of(sid) {
                    Ok(handle) => {
                        // Subscribe before checking for terminality so a
                        // session finishing right now cannot slip between
                        // the check and the subscription.
                        let events = handle.stream.subscribe();
                        writer.write_frame(&wire::render_response(&Response::Sid { sid }))?;
                        if !handle.state().is_terminal() {
                            for event in events {
                                writer.write_frame(&wire::watch_event_line(&event))?;
                            }
                        }
                        writer.write_frame(&wire::watch_done_frame())?;
                        self.metrics
                            .record_wall("frame_wall", frame_start.elapsed().as_secs_f64());
                        continue;
                    }
                    Err(e) => Err(e),
                },
                Request::Register {
                    executor,
                    slots,
                    reconnect,
                } => {
                    let wid = self.workers.register(&executor, slots);
                    // Re-registering on the same connection replaces the
                    // old identity (and releases its leases).
                    if let Some(old) = conn_wid.replace(wid) {
                        self.workers.deregister(old);
                    }
                    // A reconnecting worker names its previous identity:
                    // deregister it now so its leases reissue immediately
                    // instead of waiting out their deadlines.
                    if let Some(rc) = reconnect {
                        if rc.prev_wid != wid {
                            self.workers.deregister(rc.prev_wid);
                        }
                        self.note_event(&TraceEvent::WorkerReconnected {
                            wid,
                            attempts: rc.attempts,
                        });
                    }
                    Ok(Response::WorkerAck { wid })
                }
                Request::Lease { wid, wait_ms } => self.next_lease(wid, wait_ms),
                Request::Complete {
                    wid,
                    lease,
                    outcome,
                    wait_ms,
                } => outcome.to_measurement().and_then(|measurement| {
                    self.workers.complete(wid, lease, measurement);
                    self.lease_reply(wid, lease, wait_ms)
                }),
                Request::Fail {
                    wid,
                    lease,
                    reason,
                    wait_ms,
                } => {
                    self.workers.fail(wid, lease, &reason);
                    self.lease_reply(wid, lease, wait_ms)
                }
                Request::Heartbeat { wid, leases } => {
                    let extended = self.workers.heartbeat(wid, &leases);
                    Ok(Response::HeartbeatAck { leases: extended })
                }
                Request::Deregister { wid } => {
                    self.workers.deregister(wid);
                    if *conn_wid == Some(wid) {
                        *conn_wid = None;
                    }
                    Ok(Response::WorkerAck { wid })
                }
                Request::Shutdown { drain } => {
                    self.shutdown(drain);
                    writer
                        .write_frame(&wire::render_response(&Response::ShuttingDown { drain }))?;
                    self.metrics
                        .record_wall("frame_wall", frame_start.elapsed().as_secs_f64());
                    // Unblock the accept loop so `serve` returns.
                    let _ = TcpStream::connect(self_addr);
                    return Ok(());
                }
            };
            writer.write_frame(&wire::render_reply(&reply))?;
            self.metrics
                .record_wall("frame_wall", frame_start.elapsed().as_secs_f64());
        }
    }
}
