//! The wire protocol: versioned, line-delimited JSON frames.
//!
//! Every request and reply is one JSON object on one line, carrying the
//! protocol version in `"v"`. Requests name their operation in `"op"`;
//! replies carry `"ok": true` plus an op-specific payload, or
//! `"ok": false` with a stable machine-readable `"code"` and a human
//! `"error"` message. Frames are rendered with `jtune-util`'s
//! deterministic JSON writer, so a given reply is always the same bytes.
//!
//! Both directions are typed: requests parse into [`Request`] and every
//! reply the daemon can send is a [`Response`] variant. The server
//! encodes exclusively through [`render_response`], and the client and
//! worker decode exclusively through [`parse_response`] — one parse path
//! and one encode path for all three parties.
//!
//! Client plane:
//!
//! | op         | request fields                         | reply payload |
//! |------------|----------------------------------------|---------------|
//! | `submit`   | session spec (see [`SessionSpec`])     | `sid`         |
//! | `status`   | optional `sid`                         | `sessions` array |
//! | `watch`    | `sid`                                  | event stream (see below) |
//! | `result`   | `sid`                                  | record line (see below) |
//! | `cancel`   | `sid`                                  | `sid`         |
//! | `stats`    | optional `sid`                         | aggregated counters + histograms |
//! | `shutdown` | optional `drain` (default `true`)      | `draining`    |
//!
//! Worker plane (see [`crate::worker`] for the lease state machine):
//!
//! | op           | request fields                       | reply payload |
//! |--------------|--------------------------------------|---------------|
//! | `register`   | `executor` capability tag, `slots`   | `wid`         |
//! | `lease`      | `wid`, `wait_ms` long-poll bound     | lease offer, or `idle` (+ `draining`) |
//! | `complete`   | `wid`, `lease`, trial outcome, optional `wait_ms` | `lease`; with `wait_ms`, as `lease` |
//! | `fail`       | `wid`, `lease`, `reason`, optional `wait_ms` | `lease`; with `wait_ms`, as `lease` |
//! | `heartbeat`  | `wid`, in-flight `leases` array      | `leases` count extended |
//! | `deregister` | `wid`                                | `wid`         |
//!
//! A `complete` or `fail` carrying `wait_ms` also asks for the worker's
//! next lease: the daemon records the outcome, then answers exactly as
//! it answers a `lease` with that bound (an offer, `idle`, or an error
//! such as `unknown-worker`). A busy worker thus pays one round trip per
//! trial. Without `wait_ms` the frames and their `lease` ack keep their
//! exact bytes.
//!
//! Two replies carry raw payload lines so clients (and CI scripts) can
//! byte-compare them against one-shot `jtune` output without a lossy
//! re-serialisation round trip:
//!
//! - `result`: an ok frame with `"follows": "record"`, then the
//!   [`SessionRecord`](jtune_harness::SessionRecord) JSON on its own line.
//! - `watch`: an ok frame, then each trace event wrapped as
//!   `{"v":1,"event":<event>}` ([`WATCH_EVENT_PREFIX`]), terminated by a
//!   `{"v":1,"ok":true,"done":true}` frame when the session ends.

use jtune_harness::{Measurement, RunCounters, TrialError};
use jtune_util::json::{self, JsonObject, JsonValue};
use jtune_util::SimDuration;

use crate::session::SessionSpec;

/// Protocol version spoken by this build. Requests with any other
/// version are rejected with code `bad-version`.
pub const VERSION: u64 = 1;

/// Exact prefix of a streamed watch-event line; the raw
/// [`TraceEvent`](jtune_telemetry::TraceEvent) JSON sits between this
/// prefix and a closing `}`.
pub const WATCH_EVENT_PREFIX: &str = "{\"v\":1,\"event\":";

/// A parsed client or worker request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a new tuning session.
    Submit(SessionSpec),
    /// Report sessions (all, or one when `sid` is given).
    Status {
        /// Restrict to one session.
        sid: Option<u64>,
    },
    /// Stream a running session's trace events.
    Watch {
        /// The session to watch.
        sid: u64,
    },
    /// Fetch a completed session's record.
    Result {
        /// The session whose record to fetch.
        sid: u64,
    },
    /// Cancel a session (stops it at the next batch boundary).
    Cancel {
        /// The session to cancel.
        sid: u64,
    },
    /// Report aggregated metrics (all sessions, or one when `sid` is
    /// given): per-session event counters plus wall-clock histograms,
    /// and the daemon's frame-handling histogram.
    Stats {
        /// Restrict to one session.
        sid: Option<u64>,
    },
    /// Stop the daemon; with `drain`, suspend + checkpoint in-flight
    /// sessions first so a restart resumes them.
    Shutdown {
        /// Checkpoint in-flight sessions before exiting.
        drain: bool,
    },
    /// Register a remote worker's capabilities.
    Register {
        /// Executor-kind capability tag (e.g. `"sim"`): the worker can
        /// serve any lease whose executor tag starts `"<tag>:"`.
        executor: String,
        /// Concurrent trial slots the worker offers.
        slots: u64,
        /// Present when this registration replaces a lost connection:
        /// the daemon reissues the previous identity's leases at once
        /// and counts a worker reconnect. Absent on first registration
        /// (and from all pre-reconnect frames, whose bytes are pinned).
        reconnect: Option<Reconnect>,
    },
    /// Ask for work; the daemon long-polls up to `wait_ms` before
    /// answering `idle`.
    Lease {
        /// The worker id issued by `register`.
        wid: u64,
        /// Upper bound on how long the daemon may hold the request open.
        wait_ms: u64,
    },
    /// Stream a finished trial's outcome back.
    Complete {
        /// The worker id issued by `register`.
        wid: u64,
        /// The lease being fulfilled.
        lease: u64,
        /// The measurement, losslessly serialised.
        outcome: TrialOutcome,
        /// When present, the reply is the worker's next lease, long-polled
        /// up to this bound, instead of a [`Response::LeaseAck`].
        wait_ms: Option<u64>,
    },
    /// Report a lease the worker could not run (unknown workload,
    /// capability mismatch); the daemon reissues the slot.
    Fail {
        /// The worker id issued by `register`.
        wid: u64,
        /// The lease being returned.
        lease: u64,
        /// Why the worker could not run it.
        reason: String,
        /// When present, the reply is the worker's next lease, long-polled
        /// up to this bound, instead of a [`Response::LeaseAck`].
        wait_ms: Option<u64>,
    },
    /// Liveness ping extending the deadlines of in-flight leases.
    Heartbeat {
        /// The worker id issued by `register`.
        wid: u64,
        /// Leases the worker is still executing.
        leases: Vec<u64>,
    },
    /// Graceful worker exit; outstanding leases are reissued immediately.
    Deregister {
        /// The worker id issued by `register`.
        wid: u64,
    },
}

/// Retry metadata a re-registering worker attaches to its `register`
/// frame after losing its daemon connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reconnect {
    /// The worker id the lost connection held; its leases are reissued
    /// immediately instead of waiting out their deadlines.
    pub prev_wid: u64,
    /// Reconnect attempts it took to get back in (1 = first retry).
    pub attempts: u64,
}

/// A lease offer: everything a worker needs to run one trial.
///
/// The configuration travels as its canonical `-XX:` argument delta
/// ([`JvmConfig::to_args`](jtune_flags::JvmConfig::to_args)); both ends
/// share the built-in registry, so
/// [`JvmConfig::parse_args`](jtune_flags::JvmConfig::parse_args)
/// reconstructs the exact configuration and `fingerprint` lets the
/// worker verify it did.
#[derive(Clone, Debug, PartialEq)]
pub struct LeaseOffer {
    /// Unique lease id; quoted back in `complete`/`fail`/`heartbeat`.
    pub lease: u64,
    /// The session the trial belongs to.
    pub sid: u64,
    /// The batch slot (diagnostic; the seed already encodes position).
    pub slot: u64,
    /// The positional measurement seed for this slot.
    pub seed: u64,
    /// Canonical fingerprint of the configuration, for verification.
    pub fingerprint: u64,
    /// The executor tag the trial must run under (e.g. `"sim:compress"`).
    pub executor: String,
    /// Milliseconds the worker has before the lease expires and the
    /// slot is reissued.
    pub deadline_ms: u64,
    /// The configuration as `-XX:` arguments (delta from defaults).
    pub config: Vec<String>,
}

/// A [`Measurement`] in wire form: exact u64 nanosecond fields, so the
/// round trip is lossless and remote trials merge byte-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrialOutcome {
    /// Run time in nanoseconds.
    pub time_ns: u64,
    /// p99 GC pause in nanoseconds, if observed.
    pub pause_p99_ns: Option<u64>,
    /// Total GC pause time in nanoseconds (present iff counters are).
    pub gc_pause_ns: Option<u64>,
    /// GC collections (present iff counters are).
    pub gc_collections: Option<u64>,
    /// JIT compile-stall time in nanoseconds (present iff counters are).
    pub jit_ns: Option<u64>,
    /// Methods JIT-compiled (present iff counters are).
    pub jit_compiles: Option<u64>,
    /// Failure kind tag ([`TrialError::kind`]), if the trial failed.
    pub error_kind: Option<String>,
    /// Failure message, if the trial failed.
    pub error: Option<String>,
}

impl TrialOutcome {
    /// Wire form of a finished measurement.
    pub fn from_measurement(m: &Measurement) -> TrialOutcome {
        TrialOutcome {
            time_ns: m.time.as_nanos(),
            pause_p99_ns: m.pause_p99.map(SimDuration::as_nanos),
            gc_pause_ns: m.counters.map(|c| c.gc_pause_total.as_nanos()),
            gc_collections: m.counters.map(|c| c.gc_collections),
            jit_ns: m.counters.map(|c| c.jit_compile_time.as_nanos()),
            jit_compiles: m.counters.map(|c| c.jit_compiles),
            error_kind: m.error.as_ref().map(|e| e.kind().to_string()),
            error: m.error.as_ref().map(|e| e.message().to_string()),
        }
    }

    /// Reconstruct the exact measurement. Fails (`bad-frame`) on an
    /// unknown error kind — the tags are a closed set.
    pub fn to_measurement(&self) -> Result<Measurement, WireError> {
        let error = match &self.error_kind {
            Some(kind) => Some(
                TrialError::from_kind(kind, self.error.clone().unwrap_or_default()).ok_or_else(
                    || WireError::new("bad-frame", format!("unknown error kind {kind:?}")),
                )?,
            ),
            None => None,
        };
        let counters = self.gc_pause_ns.map(|gc_pause| RunCounters {
            gc_pause_total: SimDuration::from_nanos(gc_pause),
            gc_collections: self.gc_collections.unwrap_or(0),
            jit_compile_time: SimDuration::from_nanos(self.jit_ns.unwrap_or(0)),
            jit_compiles: self.jit_compiles.unwrap_or(0),
        });
        Ok(Measurement {
            time: SimDuration::from_nanos(self.time_ns),
            pause_p99: self.pause_p99_ns.map(SimDuration::from_nanos),
            counters,
            error,
        })
    }

    fn fill(&self, o: JsonObject) -> JsonObject {
        let mut o = o.u64("time_ns", self.time_ns);
        if let Some(p) = self.pause_p99_ns {
            o = o.u64("pause_p99_ns", p);
        }
        if let Some(gc) = self.gc_pause_ns {
            o = o
                .u64("gc_pause_ns", gc)
                .u64("gc_collections", self.gc_collections.unwrap_or(0))
                .u64("jit_ns", self.jit_ns.unwrap_or(0))
                .u64("jit_compiles", self.jit_compiles.unwrap_or(0));
        }
        if let Some(kind) = &self.error_kind {
            o = o
                .str("error_kind", kind)
                .str("error", self.error.as_deref().unwrap_or(""));
        }
        o
    }

    fn from_json(v: &JsonValue) -> Result<TrialOutcome, WireError> {
        let u = |key: &str| v.get(key).and_then(JsonValue::as_u64);
        let s = |key: &str| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
        Ok(TrialOutcome {
            time_ns: u("time_ns")
                .ok_or_else(|| WireError::new("bad-frame", "outcome requires 'time_ns'"))?,
            pause_p99_ns: u("pause_p99_ns"),
            gc_pause_ns: u("gc_pause_ns"),
            gc_collections: u("gc_collections"),
            jit_ns: u("jit_ns"),
            jit_compiles: u("jit_compiles"),
            error_kind: s("error_kind"),
            error: s("error"),
        })
    }
}

/// A structured protocol error: a stable code plus a human message.
///
/// The stable codes: `bad-frame`, `bad-version`, `unknown-op`,
/// `invalid-spec`, `overloaded` (admission reject, carries a
/// [`WireError::retry_after_ms`] backoff hint), `frame-too-large`
/// (frame-size cap exceeded), `io-error`, `no-result`,
/// `unknown-session`, `unknown-worker`, `no-session`.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Stable machine-readable error code.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// Server backoff hint, milliseconds: attached to `overloaded`
    /// rejects so a retrying peer knows how long to stand off. Absent
    /// from every other error (and from all pre-existing frames, whose
    /// bytes are pinned).
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// Build an error with the given stable code.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> WireError {
        WireError {
            code: code.into(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attach a `retry_after_ms` backoff hint (for `overloaded`).
    pub fn with_retry_after(mut self, ms: u64) -> WireError {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Parse one request line into a [`Request`].
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    parse_tagged_request(line).map(|(request, _)| request)
}

/// Parse one request line, once, into its [`Request`] and the
/// [`retry_tag`] a retried frame carries.
pub fn parse_tagged_request(line: &str) -> Result<(Request, Option<(u64, u64)>), WireError> {
    let v = json::parse(line).map_err(|e| WireError::new("bad-frame", e))?;
    Ok((decode_request(&v)?, retry_tag(&v)))
}

fn decode_request(v: &JsonValue) -> Result<Request, WireError> {
    match v.get("v").and_then(JsonValue::as_u64) {
        Some(VERSION) => {}
        Some(other) => {
            return Err(WireError::new(
                "bad-version",
                format!("protocol version {other} not supported (this daemon speaks {VERSION})"),
            ))
        }
        None => return Err(WireError::new("bad-frame", "missing 'v' field")),
    }
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| WireError::new("bad-frame", "missing 'op' field"))?;
    let field = |key: &str| -> Result<u64, WireError> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| WireError::new("bad-frame", format!("op {op:?} requires a {key:?}")))
    };
    let optional = |key: &str| -> Result<Option<u64>, WireError> {
        v.get(key)
            .map(|x| {
                x.as_u64().ok_or_else(|| {
                    WireError::new("bad-frame", format!("op {op:?} needs an integer {key:?}"))
                })
            })
            .transpose()
    };
    match op {
        "submit" => {
            let spec =
                SessionSpec::from_json_value(v).map_err(|e| WireError::new("invalid-spec", e))?;
            Ok(Request::Submit(spec))
        }
        "status" => Ok(Request::Status {
            sid: v.get("sid").and_then(JsonValue::as_u64),
        }),
        "watch" => Ok(Request::Watch { sid: field("sid")? }),
        "result" => Ok(Request::Result { sid: field("sid")? }),
        "cancel" => Ok(Request::Cancel { sid: field("sid")? }),
        "stats" => Ok(Request::Stats {
            sid: v.get("sid").and_then(JsonValue::as_u64),
        }),
        "shutdown" => Ok(Request::Shutdown {
            drain: v
                .get("drain")
                .map(|d| d.as_bool().unwrap_or(true))
                .unwrap_or(true),
        }),
        "register" => Ok(Request::Register {
            executor: v
                .get("executor")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| WireError::new("bad-frame", "register requires an 'executor'"))?
                .to_string(),
            slots: field("slots")?,
            reconnect: v
                .get("prev_wid")
                .and_then(JsonValue::as_u64)
                .map(|prev_wid| Reconnect {
                    prev_wid,
                    attempts: v.get("attempts").and_then(JsonValue::as_u64).unwrap_or(1),
                }),
        }),
        "lease" => Ok(Request::Lease {
            wid: field("wid")?,
            wait_ms: field("wait_ms")?,
        }),
        "complete" => Ok(Request::Complete {
            wid: field("wid")?,
            lease: field("lease")?,
            outcome: TrialOutcome::from_json(v)?,
            wait_ms: optional("wait_ms")?,
        }),
        "fail" => Ok(Request::Fail {
            wid: field("wid")?,
            lease: field("lease")?,
            reason: v
                .get("reason")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            wait_ms: optional("wait_ms")?,
        }),
        "heartbeat" => {
            let leases = match v.get("leases").and_then(JsonValue::as_array) {
                Some(items) => items
                    .iter()
                    .map(|i| {
                        i.as_u64().ok_or_else(|| {
                            WireError::new("bad-frame", "heartbeat 'leases' must be integers")
                        })
                    })
                    .collect::<Result<Vec<u64>, WireError>>()?,
                None => Vec::new(),
            };
            Ok(Request::Heartbeat {
                wid: field("wid")?,
                leases,
            })
        }
        "deregister" => Ok(Request::Deregister { wid: field("wid")? }),
        other => Err(WireError::new(
            "unknown-op",
            format!("unknown op {other:?}"),
        )),
    }
}

/// Render a request (the client side of [`parse_request`]).
pub fn render_request(request: &Request) -> String {
    let base = JsonObject::new().u64("v", VERSION);
    match request {
        Request::Submit(spec) => spec.fill(base.str("op", "submit")).finish(),
        Request::Status { sid } => {
            let o = base.str("op", "status");
            match sid {
                Some(s) => o.u64("sid", *s).finish(),
                None => o.finish(),
            }
        }
        Request::Watch { sid } => base.str("op", "watch").u64("sid", *sid).finish(),
        Request::Result { sid } => base.str("op", "result").u64("sid", *sid).finish(),
        Request::Cancel { sid } => base.str("op", "cancel").u64("sid", *sid).finish(),
        Request::Stats { sid } => {
            let o = base.str("op", "stats");
            match sid {
                Some(s) => o.u64("sid", *s).finish(),
                None => o.finish(),
            }
        }
        Request::Shutdown { drain } => base.str("op", "shutdown").bool("drain", *drain).finish(),
        Request::Register {
            executor,
            slots,
            reconnect,
        } => {
            let o = base
                .str("op", "register")
                .str("executor", executor)
                .u64("slots", *slots);
            match reconnect {
                Some(rc) => o
                    .u64("prev_wid", rc.prev_wid)
                    .u64("attempts", rc.attempts)
                    .finish(),
                None => o.finish(),
            }
        }
        Request::Lease { wid, wait_ms } => base
            .str("op", "lease")
            .u64("wid", *wid)
            .u64("wait_ms", *wait_ms)
            .finish(),
        Request::Complete {
            wid,
            lease,
            outcome,
            wait_ms,
        } => with_wait(
            outcome.fill(
                base.str("op", "complete")
                    .u64("wid", *wid)
                    .u64("lease", *lease),
            ),
            *wait_ms,
        ),
        Request::Fail {
            wid,
            lease,
            reason,
            wait_ms,
        } => with_wait(
            base.str("op", "fail")
                .u64("wid", *wid)
                .u64("lease", *lease)
                .str("reason", reason),
            *wait_ms,
        ),
        Request::Heartbeat { wid, leases } => base
            .str("op", "heartbeat")
            .u64("wid", *wid)
            .u64_array("leases", leases)
            .finish(),
        Request::Deregister { wid } => base.str("op", "deregister").u64("wid", *wid).finish(),
    }
}

/// Finish a `complete`/`fail` frame, appending `wait_ms` only when the
/// worker asks for its next lease.
fn with_wait(o: JsonObject, wait_ms: Option<u64>) -> String {
    match wait_ms {
        Some(ms) => o.u64("wait_ms", ms).finish(),
        None => o.finish(),
    }
}

/// Every reply the daemon can send (except streamed watch-event lines,
/// which carry raw payload between an opening [`Response::Sid`] ack and
/// a closing [`Response::WatchDone`]).
///
/// `Sessions`/`Stats` hold their payloads as raw pre-rendered JSON so
/// the round trip through [`render_response`]/[`parse_response`] is
/// byte-exact — status rows and metric objects pass through untouched.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `submit`/`cancel` ack, and the frame opening a watch stream.
    Sid {
        /// The session acted on.
        sid: u64,
    },
    /// `status`: raw array of per-session row objects.
    Sessions {
        /// Pre-rendered JSON array, passed through byte-exact.
        sessions: String,
    },
    /// `result`: the raw record JSON follows on the next line.
    RecordFollows,
    /// `stats`: raw per-session rows plus daemon-wide metrics.
    Stats {
        /// Pre-rendered JSON array of per-session metric rows.
        sessions: String,
        /// Pre-rendered JSON object of daemon-wide metrics.
        server: String,
    },
    /// `shutdown` ack.
    ShuttingDown {
        /// Whether in-flight sessions are being checkpointed first.
        drain: bool,
    },
    /// Terminal frame of a watch stream.
    WatchDone,
    /// `register`/`deregister` ack.
    WorkerAck {
        /// The worker id (issued on register, confirmed on deregister).
        wid: u64,
    },
    /// `lease` grant (also the reply to a `complete`/`fail` carrying
    /// `wait_ms`).
    Leased(LeaseOffer),
    /// `lease` without work; with `draining`, the worker should exit.
    Idle {
        /// The daemon is shutting down — finish up and disconnect.
        draining: bool,
    },
    /// `complete`/`fail` ack without `wait_ms` (also sent for stale
    /// leases, which the daemon discards silently — the slot was already
    /// reissued).
    LeaseAck {
        /// The lease acknowledged.
        lease: u64,
    },
    /// `heartbeat` ack.
    HeartbeatAck {
        /// How many of the reported leases had their deadline extended.
        leases: u64,
    },
}

/// Render a reply frame (the single server-side encode path).
pub fn render_response(response: &Response) -> String {
    match response {
        Response::Sid { sid } => ok_frame().u64("sid", *sid).finish(),
        Response::Sessions { sessions } => ok_frame().raw("sessions", sessions).finish(),
        Response::RecordFollows => ok_frame().str("follows", "record").finish(),
        Response::Stats { sessions, server } => ok_frame()
            .raw("sessions", sessions)
            .raw("server", server)
            .finish(),
        Response::ShuttingDown { drain } => ok_frame().bool("draining", *drain).finish(),
        Response::WatchDone => ok_frame().bool("done", true).finish(),
        Response::WorkerAck { wid } => ok_frame().u64("wid", *wid).finish(),
        Response::Leased(offer) => ok_frame()
            .u64("lease", offer.lease)
            .u64("sid", offer.sid)
            .u64("slot", offer.slot)
            .u64("seed", offer.seed)
            .u64("fingerprint", offer.fingerprint)
            .str("executor", &offer.executor)
            .u64("deadline_ms", offer.deadline_ms)
            .str_array("config", &offer.config)
            .finish(),
        Response::Idle { draining } => {
            let o = ok_frame().bool("idle", true);
            if *draining {
                o.bool("draining", true).finish()
            } else {
                o.finish()
            }
        }
        Response::LeaseAck { lease } => ok_frame().u64("lease", *lease).finish(),
        Response::HeartbeatAck { leases } => ok_frame().u64("leases", *leases).finish(),
    }
}

/// Parse a reply line into a typed [`Response`] (the single client- and
/// worker-side decode path). Error frames surface the server's stable
/// code verbatim.
pub fn parse_response(line: &str) -> Result<Response, WireError> {
    let v = parse_reply(line)?;
    let u = |key: &str| v.get(key).and_then(JsonValue::as_u64);
    if let Some(lease) = u("lease") {
        if u("sid").is_some() {
            let req = |key: &str| {
                u(key).ok_or_else(|| {
                    WireError::new("bad-frame", format!("lease offer missing {key:?}"))
                })
            };
            let config = match v.get("config").and_then(JsonValue::as_array) {
                Some(items) => items
                    .iter()
                    .map(|i| {
                        i.as_str().map(str::to_string).ok_or_else(|| {
                            WireError::new("bad-frame", "lease 'config' must be strings")
                        })
                    })
                    .collect::<Result<Vec<String>, WireError>>()?,
                None => Vec::new(),
            };
            return Ok(Response::Leased(LeaseOffer {
                lease,
                sid: req("sid")?,
                slot: req("slot")?,
                seed: req("seed")?,
                fingerprint: req("fingerprint")?,
                executor: v
                    .get("executor")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| WireError::new("bad-frame", "lease offer missing 'executor'"))?
                    .to_string(),
                deadline_ms: req("deadline_ms")?,
                config,
            }));
        }
        return Ok(Response::LeaseAck { lease });
    }
    if let Some(leases) = u("leases") {
        return Ok(Response::HeartbeatAck { leases });
    }
    if let Some(wid) = u("wid") {
        return Ok(Response::WorkerAck { wid });
    }
    if v.get("idle").and_then(JsonValue::as_bool) == Some(true) {
        return Ok(Response::Idle {
            draining: v.get("draining").and_then(JsonValue::as_bool) == Some(true),
        });
    }
    if v.get("follows").and_then(JsonValue::as_str) == Some("record") {
        return Ok(Response::RecordFollows);
    }
    if v.get("done").and_then(JsonValue::as_bool) == Some(true) {
        return Ok(Response::WatchDone);
    }
    if v.get("server").is_some() {
        let slice = |key: &str| {
            raw_field_slice(line, key)
                .map(str::to_string)
                .ok_or_else(|| WireError::new("bad-frame", format!("stats reply missing {key:?}")))
        };
        return Ok(Response::Stats {
            sessions: slice("sessions")?,
            server: slice("server")?,
        });
    }
    if v.get("sessions").is_some() {
        let sessions = raw_field_slice(line, "sessions")
            .map(str::to_string)
            .ok_or_else(|| WireError::new("bad-frame", "status reply missing 'sessions'"))?;
        return Ok(Response::Sessions { sessions });
    }
    if let Some(drain) = v.get("draining").and_then(JsonValue::as_bool) {
        return Ok(Response::ShuttingDown { drain });
    }
    if let Some(sid) = u("sid") {
        return Ok(Response::Sid { sid });
    }
    Err(WireError::new("bad-frame", "unrecognised reply shape"))
}

/// The raw text of a top-level field's value inside one JSON object
/// line, string- and nesting-aware. This is how `Sessions`/`Stats`
/// payloads survive [`parse_response`] byte-exact.
fn raw_field_slice<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let bytes = line.as_bytes();
    let needle = format!("\"{key}\":");
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                if depth == 1 && line[i..].starts_with(needle.as_str()) {
                    let start = i + needle.len();
                    return scan_value(line, start).map(|end| &line[start..end]);
                }
                i = scan_value(line, i)?;
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// End index (exclusive) of the JSON value starting at `start`.
fn scan_value(s: &str, start: usize) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = start;
    match *bytes.get(i)? {
        b'"' => {
            i += 1;
            let mut escaped = false;
            while i < bytes.len() {
                match bytes[i] {
                    _ if escaped => escaped = false,
                    b'\\' => escaped = true,
                    b'"' => return Some(i + 1),
                    _ => {}
                }
                i += 1;
            }
            None
        }
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut in_string = false;
            let mut escaped = false;
            while i < bytes.len() {
                let b = bytes[i];
                if in_string {
                    match b {
                        _ if escaped => escaped = false,
                        b'\\' => escaped = true,
                        b'"' => in_string = false,
                        _ => {}
                    }
                } else {
                    match b {
                        b'"' => in_string = true,
                        b'{' | b'[' => depth += 1,
                        b'}' | b']' => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(i + 1);
                            }
                        }
                        _ => {}
                    }
                }
                i += 1;
            }
            None
        }
        _ => {
            while i < bytes.len() && !matches!(bytes[i], b',' | b'}' | b']') {
                i += 1;
            }
            Some(i)
        }
    }
}

/// Start an ok reply frame; [`render_response`] adds the payload.
pub fn ok_frame() -> JsonObject {
    JsonObject::new().u64("v", VERSION).bool("ok", true)
}

/// Render a complete error reply frame.
pub fn error_frame(error: &WireError) -> String {
    let o = JsonObject::new()
        .u64("v", VERSION)
        .bool("ok", false)
        .str("code", &error.code)
        .str("error", &error.message);
    match error.retry_after_ms {
        Some(ms) => o.u64("retry_after_ms", ms).finish(),
        None => o.finish(),
    }
}

/// Render a reply: the response on success, an error frame otherwise.
pub fn render_reply(reply: &Result<Response, WireError>) -> String {
    match reply {
        Ok(response) => render_response(response),
        Err(error) => error_frame(error),
    }
}

/// Render one watch-stream event line wrapping the raw event JSON.
pub fn watch_event_line(event_json: &str) -> String {
    format!("{WATCH_EVENT_PREFIX}{event_json}}}")
}

/// Extract the raw event JSON from a watch-stream line, if it is one.
pub fn unwrap_watch_event(line: &str) -> Option<&str> {
    line.strip_prefix(WATCH_EVENT_PREFIX)?.strip_suffix('}')
}

/// The terminal frame of a watch stream.
pub fn watch_done_frame() -> String {
    render_response(&Response::WatchDone)
}

/// Parse a reply line; `Ok` gives the parsed frame, `Err` a decoded
/// server error carrying the server's stable code verbatim (or a
/// `bad-frame` error for unparseable lines).
pub fn parse_reply(line: &str) -> Result<JsonValue, WireError> {
    let v = json::parse(line).map_err(|e| WireError::new("bad-frame", e))?;
    if v.get("ok").and_then(JsonValue::as_bool) == Some(false) {
        let message = v
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown error")
            .to_string();
        let code = v
            .get("code")
            .and_then(JsonValue::as_str)
            .unwrap_or("server-error")
            .to_string();
        let mut err = WireError::new(code, message);
        if let Some(ms) = v.get("retry_after_ms").and_then(JsonValue::as_u64) {
            err = err.with_retry_after(ms);
        }
        return Err(err);
    }
    Ok(v)
}

/// Tag a rendered request frame with retry metadata: `attempt` (≥ 1)
/// and the backoff delay the peer just slept. First attempts are never
/// tagged, so pre-retry request frames keep their exact bytes; the
/// daemon reads the tag with [`retry_tag`] to count client retries.
pub fn tag_retry(frame: &str, attempt: u64, delay_ms: u64) -> String {
    match frame.strip_suffix('}') {
        Some(body) => format!("{body},\"attempt\":{attempt},\"delay_ms\":{delay_ms}}}"),
        None => frame.to_string(),
    }
}

/// Retry metadata from a parsed request frame, if the peer tagged it:
/// `(attempt, delay_ms)`.
pub fn retry_tag(v: &JsonValue) -> Option<(u64, u64)> {
    let attempt = v.get("attempt").and_then(JsonValue::as_u64)?;
    let delay_ms = v.get("delay_ms").and_then(JsonValue::as_u64).unwrap_or(0);
    (attempt >= 1).then_some((attempt, delay_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit(SessionSpec {
                program: "compress".into(),
                budget_mins: 2,
                seed: 7,
                max_evaluations: Some(12),
                screen_ratio: Some(4.0),
                technique: Some("portfolio".into()),
            }),
            Request::Status { sid: None },
            Request::Status { sid: Some(3) },
            Request::Watch { sid: 1 },
            Request::Result { sid: 2 },
            Request::Cancel { sid: 9 },
            Request::Stats { sid: None },
            Request::Stats { sid: Some(5) },
            Request::Shutdown { drain: false },
            Request::Register {
                executor: "sim".into(),
                slots: 4,
                reconnect: None,
            },
            Request::Register {
                executor: "sim".into(),
                slots: 2,
                reconnect: Some(Reconnect {
                    prev_wid: 3,
                    attempts: 2,
                }),
            },
            Request::Lease {
                wid: 7,
                wait_ms: 500,
            },
            Request::Complete {
                wid: 7,
                lease: 41,
                outcome: TrialOutcome {
                    time_ns: 123_456_789,
                    pause_p99_ns: Some(42_000),
                    gc_pause_ns: Some(9_000_000),
                    gc_collections: Some(17),
                    jit_ns: Some(1_000_000),
                    jit_compiles: Some(230),
                    error_kind: None,
                    error: None,
                },
                wait_ms: None,
            },
            Request::Complete {
                wid: 7,
                lease: 42,
                outcome: TrialOutcome {
                    time_ns: 5_000,
                    error_kind: Some("oom".into()),
                    error: Some("heap exhausted at 93% live".into()),
                    ..TrialOutcome::default()
                },
                wait_ms: Some(500),
            },
            Request::Fail {
                wid: 7,
                lease: 43,
                reason: "unknown workload".into(),
                wait_ms: None,
            },
            Request::Fail {
                wid: 7,
                lease: 44,
                reason: "unknown workload".into(),
                wait_ms: Some(0),
            },
            Request::Heartbeat {
                wid: 7,
                leases: vec![41, 42],
            },
            Request::Deregister { wid: 7 },
        ];
        for req in reqs {
            let line = render_request(&req);
            let parsed = parse_request(&line).expect("rendered requests must parse");
            assert_eq!(parsed, req, "line: {line}");
        }
    }

    #[test]
    fn first_registration_frames_keep_their_exact_bytes() {
        // The reconnect fields must be invisible until a worker
        // actually reconnects: first registrations are byte-pinned.
        assert_eq!(
            render_request(&Request::Register {
                executor: "sim".into(),
                slots: 4,
                reconnect: None,
            }),
            "{\"v\":1,\"op\":\"register\",\"executor\":\"sim\",\"slots\":4}"
        );
    }

    #[test]
    fn asking_for_the_next_lease_only_appends_wait_ms() {
        let outcome = TrialOutcome {
            time_ns: 5_000,
            ..TrialOutcome::default()
        };
        let cases = [
            (
                Request::Complete {
                    wid: 7,
                    lease: 41,
                    outcome,
                    wait_ms: None,
                },
                "{\"v\":1,\"op\":\"complete\",\"wid\":7,\"lease\":41,\"time_ns\":5000}",
            ),
            (
                Request::Fail {
                    wid: 7,
                    lease: 43,
                    reason: "lost".into(),
                    wait_ms: None,
                },
                "{\"v\":1,\"op\":\"fail\",\"wid\":7,\"lease\":43,\"reason\":\"lost\"}",
            ),
        ];
        for (mut request, legacy) in cases {
            assert_eq!(render_request(&request), legacy);
            if let Request::Complete { wait_ms, .. } | Request::Fail { wait_ms, .. } = &mut request
            {
                *wait_ms = Some(500);
            }
            assert_eq!(
                render_request(&request),
                format!("{},\"wait_ms\":500}}", &legacy[..legacy.len() - 1])
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Sid { sid: 4 },
            Response::Sessions {
                sessions: "[{\"sid\":1,\"state\":\"running\"}]".into(),
            },
            Response::RecordFollows,
            Response::Stats {
                sessions: "[{\"sid\":1,\"counters\":{\"trials_measured\":12}}]".into(),
                server: "{\"frame_wall\":{\"total\":3}}".into(),
            },
            Response::ShuttingDown { drain: true },
            Response::ShuttingDown { drain: false },
            Response::WatchDone,
            Response::WorkerAck { wid: 2 },
            Response::Leased(LeaseOffer {
                lease: 41,
                sid: 1,
                slot: 3,
                seed: 0xDEAD_BEEF,
                fingerprint: 0xFEED_F00D,
                executor: "sim:compress".into(),
                deadline_ms: 10_000,
                config: vec!["-XX:+UseParallelGC".into(), "-XX:MaxHeapSize=512m".into()],
            }),
            Response::Idle { draining: false },
            Response::Idle { draining: true },
            Response::LeaseAck { lease: 41 },
            Response::HeartbeatAck { leases: 2 },
        ];
        for response in responses {
            let line = render_response(&response);
            let parsed = parse_response(&line).expect("rendered responses must parse");
            assert_eq!(parsed, response, "line: {line}");
        }
    }

    #[test]
    fn legacy_frames_are_byte_identical() {
        // The typed encode path must keep every pre-existing frame's
        // exact bytes: CI scripts byte-compare them.
        assert_eq!(
            render_response(&Response::Sid { sid: 4 }),
            "{\"v\":1,\"ok\":true,\"sid\":4}"
        );
        assert_eq!(
            render_response(&Response::RecordFollows),
            "{\"v\":1,\"ok\":true,\"follows\":\"record\"}"
        );
        assert_eq!(
            render_response(&Response::ShuttingDown { drain: true }),
            "{\"v\":1,\"ok\":true,\"draining\":true}"
        );
        assert_eq!(watch_done_frame(), "{\"v\":1,\"ok\":true,\"done\":true}");
        assert_eq!(
            render_response(&Response::Sessions {
                sessions: "[{\"sid\":1}]".into()
            }),
            "{\"v\":1,\"ok\":true,\"sessions\":[{\"sid\":1}]}"
        );
    }

    #[test]
    fn raw_payloads_survive_the_round_trip_byte_exact() {
        // Hostile row content: nested braces, escaped quotes, and text
        // that looks like the field delimiters themselves.
        let sessions = "[{\"sid\":1,\"error\":\"bad \\\"x\\\", \\\"server\\\": {}\"}]";
        let server = "{\"frame_wall\":{\"buckets\":[1,2,3]}}";
        let response = Response::Stats {
            sessions: sessions.into(),
            server: server.into(),
        };
        match parse_response(&render_response(&response)).expect("stats reply must parse") {
            Response::Stats {
                sessions: s,
                server: v,
            } => {
                assert_eq!(s, sessions);
                assert_eq!(v, server);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn outcomes_reconstruct_measurements_losslessly() {
        let m = Measurement {
            time: SimDuration::from_nanos(987_654_321),
            pause_p99: Some(SimDuration::from_nanos(1_234)),
            counters: Some(RunCounters {
                gc_pause_total: SimDuration::from_nanos(55),
                gc_collections: 3,
                jit_compile_time: SimDuration::from_nanos(77),
                jit_compiles: 9,
            }),
            error: Some(TrialError::Timeout("hung past the watchdog".into())),
        };
        let outcome = TrialOutcome::from_measurement(&m);
        let back = outcome
            .to_measurement()
            .expect("round-tripped outcome must reconstruct");
        assert_eq!(back.time, m.time);
        assert_eq!(back.pause_p99, m.pause_p99);
        assert_eq!(back.counters, m.counters);
        assert_eq!(back.error, m.error);
        assert!(TrialOutcome {
            time_ns: 1,
            error_kind: Some("martian".into()),
            ..TrialOutcome::default()
        }
        .to_measurement()
        .is_err());
    }

    #[test]
    fn structured_errors_have_stable_codes() {
        assert_eq!(parse_request("not json").unwrap_err().code, "bad-frame");
        assert_eq!(
            parse_request("{\"op\":\"status\"}").unwrap_err().code,
            "bad-frame"
        );
        assert_eq!(
            parse_request("{\"v\":2,\"op\":\"status\"}")
                .unwrap_err()
                .code,
            "bad-version"
        );
        assert_eq!(
            parse_request("{\"v\":1,\"op\":\"fly\"}").unwrap_err().code,
            "unknown-op"
        );
        assert_eq!(
            parse_request("{\"v\":1,\"op\":\"watch\"}")
                .unwrap_err()
                .code,
            "bad-frame"
        );
        assert_eq!(
            parse_request("{\"v\":1,\"op\":\"submit\"}")
                .unwrap_err()
                .code,
            "invalid-spec"
        );
        assert_eq!(
            parse_request("{\"v\":1,\"op\":\"lease\",\"wid\":1}")
                .unwrap_err()
                .code,
            "bad-frame"
        );
    }

    #[test]
    fn error_frames_surface_the_servers_code_verbatim() {
        let line = error_frame(&WireError::new("capacity", "daemon full"));
        let err = parse_reply(&line).unwrap_err();
        assert_eq!(err.code, "capacity");
        assert_eq!(err.message, "daemon full");
        let err = parse_response(&line).unwrap_err();
        assert_eq!(err.code, "capacity");
        assert_eq!(err.message, "daemon full");
        let ok = parse_reply(&ok_frame().u64("sid", 4).finish()).expect("ok frame must parse");
        assert_eq!(ok.get("sid").and_then(JsonValue::as_u64), Some(4));
    }

    #[test]
    fn overloaded_errors_round_trip_their_retry_hint() {
        let err = WireError::new("overloaded", "admission queue full").with_retry_after(250);
        let line = error_frame(&err);
        assert!(line.contains("\"retry_after_ms\":250"), "{line}");
        let back = parse_reply(&line).expect_err("error frame must decode as an error");
        assert_eq!(back.code, "overloaded");
        assert_eq!(back.retry_after_ms, Some(250));
        // Errors without a hint keep their legacy bytes exactly.
        assert_eq!(
            error_frame(&WireError::new("no-result", "not yet")),
            "{\"v\":1,\"ok\":false,\"code\":\"no-result\",\"error\":\"not yet\"}"
        );
    }

    #[test]
    fn retry_tags_splice_into_frames_and_parse_back() {
        let frame = render_request(&Request::Status { sid: None });
        assert_eq!(
            retry_tag(&json::parse(&frame).expect("frame parses")),
            None,
            "untagged frames carry no retry metadata"
        );
        let tagged = tag_retry(&frame, 2, 310);
        let v = json::parse(&tagged).expect("tagged frame still parses");
        assert_eq!(retry_tag(&v), Some((2, 310)));
        // The tag must not confuse the request decoder.
        assert_eq!(
            parse_tagged_request(&tagged).expect("tagged request parses"),
            (Request::Status { sid: None }, Some((2, 310)))
        );
        assert_eq!(parse_tagged_request(&frame).unwrap().1, None);
    }

    #[test]
    fn watch_event_lines_unwrap_to_the_exact_payload() {
        let event = "{\"type\":\"RoundProposed\",\"round\":3}";
        let line = watch_event_line(event);
        assert_eq!(unwrap_watch_event(&line), Some(event));
        assert_eq!(unwrap_watch_event(&watch_done_frame()), None);
    }
}
