//! The wire protocol: versioned, line-delimited JSON frames.
//!
//! Every request and reply is one JSON object on one line, carrying the
//! protocol version in `"v"`. Requests name their operation in `"op"`;
//! replies carry `"ok": true` plus an op-specific payload, or
//! `"ok": false` with a stable machine-readable `"code"` and a human
//! `"error"` message. Frames are rendered with `jtune-util`'s
//! deterministic JSON writer, so a given reply is always the same bytes.
//!
//! Both directions are typed and declared once, as rows of
//! [`json_rows!`](jtune_util::json_rows): requests are the [`Request`]
//! rows, tagged by `"op"` after `"v"`, and every reply the daemon can
//! send is a [`Response`] row, told apart by the keys each row names.
//! The server encodes exclusively through [`render_response`], and the
//! client and worker decode exclusively through [`parse_response`] —
//! one parse path and one encode path for all three parties. Frames
//! ignore keys their row does not declare, so an older peer reads a
//! newer frame.
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
use jtune_util::json::{JsonObject, JsonValue};
use jtune_util::json_rows;
use jtune_util::rows::{self, Fields, Row as _};
use jtune_util::SimDuration;

use crate::session::SessionSpec;

/// Protocol version spoken by this build. Requests with any other
/// version are rejected with code `bad-version`.
pub const VERSION: u64 = 1;

/// Exact prefix of a streamed watch-event line; the raw
/// [`TraceEvent`](jtune_telemetry::TraceEvent) JSON sits between this
/// prefix and a closing `}`.
pub const WATCH_EVENT_PREFIX: &str = "{\"v\":1,\"event\":";

json_rows! {
    /// A parsed client or worker request.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request: lenient, tagged "op" {
        /// Submit a new tuning session.
        Submit = "submit" (SessionSpec),
        /// Report sessions (all, or one when `sid` is given).
        Status = "status" {
            /// Restrict to one session.
            sid: Option<u64> => IfSome,
        },
        /// Stream a running session's trace events.
        Watch = "watch" {
            /// The session to watch.
            sid: u64,
        },
        /// Fetch a completed session's record.
        Result = "result" {
            /// The session whose record to fetch.
            sid: u64,
        },
        /// Cancel a session (stops it at the next batch boundary).
        Cancel = "cancel" {
            /// The session to cancel.
            sid: u64,
        },
        /// Report aggregated metrics (all sessions, or one when `sid` is
        /// given): per-session event counters plus wall-clock histograms,
        /// and the daemon's frame-handling histogram.
        Stats = "stats" {
            /// Restrict to one session.
            sid: Option<u64> => IfSome,
        },
        /// Stop the daemon; with `drain`, suspend + checkpoint in-flight
        /// sessions first so a restart resumes them.
        Shutdown = "shutdown" {
            /// Checkpoint in-flight sessions before exiting.
            drain: bool = true,
        },
        /// Register a remote worker's capabilities.
        Register = "register" {
            /// Executor-kind capability tag (e.g. `"sim"`): the worker can
            /// serve any lease whose executor tag starts `"<tag>:"`.
            executor: String,
            /// Concurrent trial slots the worker offers.
            slots: u64,
            /// Present when this registration replaces a lost connection:
            /// the daemon reissues the previous identity's leases at once
            /// and counts a worker reconnect. Absent on first registration
            /// (and from all pre-reconnect frames, whose bytes are pinned).
            reconnect: Option<Reconnect> => Flat,
        },
        /// Ask for work; the daemon long-polls up to `wait_ms` before
        /// answering `idle`.
        Lease = "lease" {
            /// The worker id issued by `register`.
            wid: u64,
            /// Upper bound on how long the daemon may hold the request open.
            wait_ms: u64,
        },
        /// Stream a finished trial's outcome back.
        Complete = "complete" {
            /// The worker id issued by `register`.
            wid: u64,
            /// The lease being fulfilled.
            lease: u64,
            /// The measurement, losslessly serialised.
            outcome: TrialOutcome => Flat,
            /// When present, the reply is the worker's next lease, long-polled
            /// up to this bound, instead of a [`Response::LeaseAck`].
            wait_ms: Option<u64> => IfSome,
        },
        /// Report a lease the worker could not run (unknown workload,
        /// capability mismatch); the daemon reissues the slot.
        Fail = "fail" {
            /// The worker id issued by `register`.
            wid: u64,
            /// The lease being returned.
            lease: u64,
            /// Why the worker could not run it.
            reason: String = String::new(),
            /// When present, the reply is the worker's next lease, long-polled
            /// up to this bound, instead of a [`Response::LeaseAck`].
            wait_ms: Option<u64> => IfSome,
        },
        /// Liveness ping extending the deadlines of in-flight leases.
        Heartbeat = "heartbeat" {
            /// The worker id issued by `register`.
            wid: u64,
            /// Leases the worker is still executing.
            leases: Vec<u64> = Vec::new(),
        },
        /// Graceful worker exit; outstanding leases are reissued immediately.
        Deregister = "deregister" {
            /// The worker id issued by `register`.
            wid: u64,
        },
    }
}

json_rows! {
    /// Retry metadata a re-registering worker attaches to its `register`
    /// frame after losing its daemon connection.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Reconnect: lenient {
        /// The worker id the lost connection held; its leases are reissued
        /// immediately instead of waiting out their deadlines.
        pub prev_wid: u64,
        /// Reconnect attempts it took to get back in (1 = first retry).
        pub attempts: u64 = 1,
    }
}

json_rows! {
    /// A lease offer: everything a worker needs to run one trial.
    ///
    /// The configuration travels as its canonical `-XX:` argument delta
    /// ([`JvmConfig::to_args`](jtune_flags::JvmConfig::to_args)); both ends
    /// share the built-in registry, so
    /// [`JvmConfig::parse_args`](jtune_flags::JvmConfig::parse_args)
    /// reconstructs the exact configuration and `fingerprint` lets the
    /// worker verify it did.
    #[derive(Clone, Debug, PartialEq)]
    pub struct LeaseOffer: lenient {
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
        pub config: Vec<String> = Vec::new(),
    }
}

json_rows! {
    /// A [`Measurement`] in wire form: exact u64 nanosecond fields, so the
    /// round trip is lossless and remote trials merge byte-identically.
    /// The four counters are present together or not at all, and `error`
    /// exactly when `error_kind` is ([`TrialOutcome::from_measurement`]).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct TrialOutcome: lenient {
        /// Run time in nanoseconds.
        pub time_ns: u64,
        /// p99 GC pause in nanoseconds, if observed.
        pub pause_p99_ns: Option<u64> => IfSome,
        /// Total GC pause time in nanoseconds (present iff counters are).
        pub gc_pause_ns: Option<u64> => IfSome,
        /// GC collections (present iff counters are).
        pub gc_collections: Option<u64> => IfSome,
        /// JIT compile-stall time in nanoseconds (present iff counters are).
        pub jit_ns: Option<u64> => IfSome,
        /// Methods JIT-compiled (present iff counters are).
        pub jit_compiles: Option<u64> => IfSome,
        /// Failure kind tag ([`TrialError::kind`]), if the trial failed.
        pub error_kind: Option<String> => IfSome,
        /// Failure message, if the trial failed.
        pub error: Option<String> => IfSome,
    }
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
}

json_rows! {
    /// A structured protocol error: a stable code plus a human message.
    /// Its rows follow `"v":1,"ok":false` in an error frame.
    ///
    /// The stable codes: `bad-frame`, `bad-version`, `unknown-op`,
    /// `invalid-spec`, `overloaded` (admission reject, carries a
    /// [`WireError::retry_after_ms`] backoff hint), `frame-too-large`
    /// (frame-size cap exceeded), `io-error`, `no-result`,
    /// `unknown-session`, `unknown-worker`, `no-session`.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WireError: lenient {
        /// Stable machine-readable error code.
        pub code: String = "server-error".to_string(),
        /// Human-readable detail.
        pub message as "error": String = "unknown error".to_string(),
        /// Server backoff hint, milliseconds: attached to `overloaded`
        /// rejects so a retrying peer knows how long to stand off. Absent
        /// from every other error (and from all pre-existing frames, whose
        /// bytes are pinned).
        pub retry_after_ms: Option<u64> => IfSome,
    }
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

json_rows! {
    /// The tag a retried request frame carries after its own fields:
    /// `attempt` (≥ 1) and the backoff delay the peer just slept. First
    /// attempts are never tagged, so pre-retry request frames keep their
    /// exact bytes.
    struct RetryTag: lenient {
        attempt: u64,
        delay_ms: u64 = 0,
    }
}

/// Parse one request line into a [`Request`].
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    parse_tagged_request(line).map(|(request, _)| request)
}

/// Parse one request line, once, into its [`Request`] and the retry tag
/// (`attempt`, `delay_ms`) a retried frame carries. A field error in a
/// `submit` frame is an `invalid-spec`; any other is a `bad-frame`.
pub fn parse_tagged_request(line: &str) -> Result<(Request, Option<(u64, u64)>), WireError> {
    let bad_frame = |e: String| WireError::new("bad-frame", e);
    let mut m = Fields::parse(line).map_err(bad_frame)?;
    match m.take("v").and_then(|v| v.as_u64()) {
        Some(VERSION) => {}
        Some(other) => {
            return Err(WireError::new(
                "bad-version",
                format!("protocol version {other} not supported (this daemon speaks {VERSION})"),
            ))
        }
        None => return Err(bad_frame("missing 'v' field".to_string())),
    }
    let op = m
        .take_tag("op")
        .ok_or_else(|| bad_frame("missing 'op' field".to_string()))?;
    let code = if op == "submit" {
        "invalid-spec"
    } else {
        "bad-frame"
    };
    let request = Request::from_tag(&op, &mut m)
        .map_err(|e| WireError::new(code, e))?
        .ok_or_else(|| WireError::new("unknown-op", format!("unknown op {op:?}")))?;
    let retry = m.take_row::<RetryTag>().map_err(bad_frame)?;
    let retry = retry.filter(|t| t.attempt >= 1);
    Ok((request, retry.map(|t| (t.attempt, t.delay_ms))))
}

/// Render a request (the client side of [`parse_request`]).
pub fn render_request(request: &Request) -> String {
    request
        .put_fields(JsonObject::new().u64("v", VERSION))
        .finish()
}

json_rows! {
    /// Every reply the daemon can send (except streamed watch-event lines,
    /// which carry raw payload between an opening [`Response::Sid`] ack and
    /// a closing [`Response::WatchDone`]). A reply is the first row, in
    /// table order, whose selecting keys are all present.
    ///
    /// `Sessions`/`Stats` hold their payloads as raw pre-rendered JSON so
    /// the round trip through [`render_response`]/[`parse_response`] is
    /// byte-exact — status rows and metric objects pass through untouched.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response: lenient, untagged {
        /// `lease` grant (also the reply to a `complete`/`fail` carrying
        /// `wait_ms`).
        Leased when ["lease", "sid"] (LeaseOffer),
        /// `complete`/`fail` ack without `wait_ms` (also sent for stale
        /// leases, which the daemon discards silently — the slot was already
        /// reissued).
        LeaseAck when ["lease"] {
            /// The lease acknowledged.
            lease: u64,
        },
        /// `heartbeat` ack.
        HeartbeatAck when ["leases"] {
            /// How many of the reported leases had their deadline extended.
            leases: u64,
        },
        /// `register`/`deregister` ack.
        WorkerAck when ["wid"] {
            /// The worker id (issued on register, confirmed on deregister).
            wid: u64,
        },
        /// `lease` without work; with `draining`, the worker should exit.
        Idle when ["idle" = true] {
            /// The daemon is shutting down — finish up and disconnect.
            draining: bool => IfTrue,
        },
        /// `result`: the raw record JSON follows on the next line.
        RecordFollows when ["follows" = "record"],
        /// Terminal frame of a watch stream.
        WatchDone when ["done" = true],
        /// `stats`: raw per-session rows plus daemon-wide metrics.
        Stats when ["server"] {
            /// Pre-rendered JSON array of per-session metric rows.
            sessions: String => Raw,
            /// Pre-rendered JSON object of daemon-wide metrics.
            server: String => Raw,
        },
        /// `status`: raw array of per-session row objects.
        Sessions when ["sessions"] {
            /// Pre-rendered JSON array, passed through byte-exact.
            sessions: String => Raw,
        },
        /// `shutdown` ack.
        ShuttingDown when ["draining"] {
            /// Whether in-flight sessions are being checkpointed first.
            drain as "draining": bool,
        },
        /// `submit`/`cancel` ack, and the frame opening a watch stream.
        Sid when ["sid"] {
            /// The session acted on.
            sid: u64,
        },
    }
}

/// Render a reply frame (the single server-side encode path).
pub fn render_response(response: &Response) -> String {
    response.put_fields(ok_frame()).finish()
}

/// Parse a reply line into a typed [`Response`] (the single client- and
/// worker-side decode path). Error frames surface the server's stable
/// code verbatim.
pub fn parse_response(line: &str) -> Result<Response, WireError> {
    let bad_frame = |e: String| WireError::new("bad-frame", e);
    let mut m = Fields::of(parse_reply(line)?, line).map_err(bad_frame)?;
    Response::from_fields(&mut m).map_err(bad_frame)
}

/// Start an ok reply frame; [`render_response`] adds the payload.
pub fn ok_frame() -> JsonObject {
    JsonObject::new().u64("v", VERSION).bool("ok", true)
}

/// Render a complete error reply frame.
pub fn error_frame(error: &WireError) -> String {
    let o = JsonObject::new().u64("v", VERSION).bool("ok", false);
    error.put_fields(o).finish()
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
    let v = jtune_util::json::parse(line).map_err(|e| WireError::new("bad-frame", e))?;
    if v.get("ok").and_then(JsonValue::as_bool) != Some(false) {
        return Ok(v);
    }
    let mut m = Fields::of(v, line).map_err(|e| WireError::new("bad-frame", e))?;
    Err(WireError::take_fields(&mut m).unwrap_or_else(|e| WireError::new("bad-frame", e)))
}

/// Tag a rendered request frame with retry metadata: `attempt` (≥ 1)
/// and the backoff delay the peer just slept. First attempts are never
/// tagged, so pre-retry request frames keep their exact bytes; the
/// daemon reads the tag back in [`parse_tagged_request`] to count client
/// retries.
pub fn tag_retry(frame: &str, attempt: u64, delay_ms: u64) -> String {
    let tag = rows::encode(&RetryTag { attempt, delay_ms });
    match frame.strip_suffix('}') {
        Some(body) => format!("{body},{}", &tag[1..]),
        None => frame.to_string(),
    }
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
    fn absent_optional_keys_read_their_defaults() {
        for (line, request) in [
            (
                "{\"v\":1,\"op\":\"shutdown\"}",
                Request::Shutdown { drain: true },
            ),
            (
                "{\"v\":1,\"op\":\"register\",\"executor\":\"sim\",\"slots\":1,\"prev_wid\":3}",
                Request::Register {
                    executor: "sim".into(),
                    slots: 1,
                    reconnect: Some(Reconnect {
                        prev_wid: 3,
                        attempts: 1,
                    }),
                },
            ),
            (
                "{\"v\":1,\"op\":\"fail\",\"wid\":1,\"lease\":2}",
                Request::Fail {
                    wid: 1,
                    lease: 2,
                    reason: String::new(),
                    wait_ms: None,
                },
            ),
            (
                "{\"v\":1,\"op\":\"heartbeat\",\"wid\":1}",
                Request::Heartbeat {
                    wid: 1,
                    leases: Vec::new(),
                },
            ),
        ] {
            assert_eq!(parse_request(line), Ok(request), "{line}");
        }
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
        let tagged = tag_retry(&frame, 2, 310);
        // The tag must not confuse the request decoder.
        assert_eq!(
            parse_tagged_request(&tagged).expect("tagged request parses"),
            (Request::Status { sid: None }, Some((2, 310)))
        );
        assert_eq!(
            parse_tagged_request(&frame).unwrap().1,
            None,
            "untagged frames carry no retry metadata"
        );
        // Attempt 0 is the original try, never a retry.
        assert_eq!(
            parse_tagged_request(&tag_retry(&frame, 0, 0)).unwrap().1,
            None
        );
    }

    #[test]
    fn watch_event_lines_unwrap_to_the_exact_payload() {
        let event = "{\"type\":\"RoundProposed\",\"round\":3}";
        let line = watch_event_line(event);
        assert_eq!(unwrap_watch_event(&line), Some(event));
        assert_eq!(unwrap_watch_event(&watch_done_frame()), None);
    }
}
