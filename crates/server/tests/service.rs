//! Integration tests for the tuning daemon.
//!
//! The contract under test throughout: a daemon session's trace and
//! result are byte-identical to the one-shot `jtune tune` run with the
//! same spec — regardless of concurrent sessions, cross-session cache
//! hits, or a drain/restart in the middle.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use autotuner_core::Tuner;
use jtune_harness::SimExecutor;
use jtune_server::{
    run_worker, Client, LeaseGrant, NetFaultPlan, Reconnect, Request, Response, ServerConfig,
    SessionSpec, SessionState, TrialOutcome, TuneServer, WorkerOptions,
};
use jtune_telemetry::{JsonlSink, TelemetryBus};
use jtune_util::json::JsonValue;
use jtune_workloads::workload_by_name;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jtune-server-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn spec(program: &str, budget_mins: u64, seed: u64) -> SessionSpec {
    SessionSpec {
        program: program.to_string(),
        budget_mins,
        seed,
        max_evaluations: None,
        screen_ratio: None,
        technique: None,
    }
}

/// Run the spec one-shot, the way `jtune tune <program> --budget ...
/// --seed ... --checkpoint ... --trace ...` would; returns the trace
/// bytes and the session record line.
fn one_shot_reference(dir: &Path, spec: &SessionSpec) -> (String, String) {
    let trace = dir.join("trace.jsonl");
    let mut opts = spec.tuner_options();
    opts.checkpoint = Some(dir.join("journal.jsonl"));
    let mut bus = TelemetryBus::new();
    bus.add(Arc::new(JsonlSink::create(&trace).expect("trace sink")));
    let executor = SimExecutor::new(workload_by_name(&spec.program).expect("workload"));
    let result = Tuner::new(opts).run(&executor, &spec.program, &bus);
    (
        std::fs::read_to_string(&trace).expect("read trace"),
        result.session.to_json(),
    )
}

fn read_session_files(state_dir: &Path, sid: u64) -> (String, String) {
    let dir = state_dir.join(sid.to_string());
    (
        std::fs::read_to_string(dir.join("trace.jsonl")).expect("session trace"),
        std::fs::read_to_string(dir.join("result.json"))
            .expect("session result")
            .trim_end()
            .to_string(),
    )
}

#[test]
fn concurrent_sessions_match_one_shot_traces_byte_for_byte() {
    let state = temp_dir("concurrent");
    let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("server");

    // Three concurrent sessions; the third repeats the first's spec so
    // it runs entirely off the shared measurement cache.
    let specs = [
        spec("compress", 30, 11),
        spec("crypto.aes", 30, 22),
        spec("compress", 30, 11),
    ];
    let sids: Vec<u64> = specs
        .iter()
        .map(|s| server.submit(s.clone()).expect("submit"))
        .collect();
    for &sid in &sids {
        assert_eq!(
            server.join_session(sid),
            Some(SessionState::Completed),
            "session {sid} did not complete"
        );
    }

    for (spec, &sid) in specs.iter().zip(&sids) {
        let reference = temp_dir(&format!("concurrent-ref-{sid}"));
        let (want_trace, want_record) = one_shot_reference(&reference, spec);
        let (got_trace, got_record) = read_session_files(&state.join("state"), sid);
        assert_eq!(got_trace, want_trace, "session {sid} trace diverged");
        assert_eq!(got_record, want_record, "session {sid} record diverged");
        let _ = std::fs::remove_dir_all(&reference);
    }

    // The duplicate session measured nothing new: every one of its
    // trials hit the shared cache, and the hits are visible per-session.
    let twin = server.session(sids[2]).expect("twin handle");
    assert!(
        twin.shared_hits() > 0 || server.session(sids[0]).expect("first").shared_hits() > 0,
        "identical specs should share measurements across sessions"
    );
    assert!(server.memo().hits() > 0, "shared cache saw no hits");

    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn finished_sessions_keep_their_rows_and_release_their_executors() {
    let state = temp_dir("finished");
    let mut config = ServerConfig::new(state.join("state"));
    config.spans = true;
    let server = TuneServer::new(config).expect("server");

    // One after another, so the repeat of the first spec is served
    // entirely from the shared cache.
    let specs = [
        spec("compress", 20, 5),
        spec("crypto.aes", 20, 6),
        spec("compress", 20, 5),
    ];
    let mut finished = Vec::new();
    for spec in &specs {
        let sid = server.submit(spec.clone()).expect("submit");
        let handle = server.session(sid).expect("handle");
        let start = Instant::now();
        while handle.state() != SessionState::Completed {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "session {sid} stuck"
            );
            std::thread::yield_now();
        }
        // Captured the moment the state flips, usually before the
        // session's thread has frozen its row.
        let (row, _) = server.stats(Some(sid)).expect("stats");
        finished.push((sid, row, handle.shared_hits()));
    }

    for (sid, row, hits) in &finished {
        assert_eq!(server.join_session(*sid), Some(SessionState::Completed));
        let handle = server.session(*sid).expect("handle");
        assert_eq!(&server.stats(Some(*sid)).expect("stats").0, row);
        assert_eq!(handle.shared_hits(), *hits);
        assert!(
            handle.metrics().wall_histogram("trial_wall").is_some(),
            "a finished session keeps its wall histograms"
        );
    }
    assert!(finished[2].2 > 0, "the repeat was served from the memo");
    // Each running session's executor stack holds a clone of the memo;
    // finished sessions hold none.
    assert_eq!(Arc::strong_count(server.memo()), 1);

    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn drained_sessions_resume_on_restart_with_identical_traces() {
    let state = temp_dir("drain");
    let session_spec = spec("compress", 2000, 77);

    let reference = temp_dir("drain-ref");
    let (want_trace, want_record) = one_shot_reference(&reference, &session_spec);

    // Start, let it make some progress, then drain the daemon.
    let sid = {
        let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("server");
        let sid = server.submit(session_spec.clone()).expect("submit");
        let handle = server.session(sid).expect("handle");
        let start = Instant::now();
        while handle.trials() < 2 {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "session made no progress"
            );
            std::thread::yield_now();
        }
        server.shutdown(true);
        assert_eq!(
            handle.state(),
            SessionState::Suspended,
            "drain should suspend the in-flight session"
        );
        sid
    };

    // A fresh daemon over the same state dir resumes it to completion.
    let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("restart");
    assert_eq!(server.join_session(sid), Some(SessionState::Completed));

    let (got_trace, got_record) = read_session_files(&state.join("state"), sid);
    assert_eq!(got_trace, want_trace, "resumed trace diverged");
    assert_eq!(got_record, want_record, "resumed record diverged");

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn submissions_past_capacity_are_shed_with_a_retry_hint() {
    let state = temp_dir("capacity");
    let mut config = ServerConfig::new(state.join("state"));
    config.capacity = 0;
    config.queue = 0;
    let server = TuneServer::new(config).expect("server");
    let err = server.submit(spec("compress", 1, 1)).expect_err("rejected");
    assert_eq!(err.code, "overloaded");
    assert!(
        err.retry_after_ms.unwrap_or(0) > 0,
        "overloaded rejection carried no retry_after_ms hint: {err}"
    );

    let unknown = server
        .submit(spec("no-such-workload", 1, 1))
        .expect_err("rejected");
    assert_eq!(unknown.code, "invalid-spec");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn cancelled_sessions_stop_and_stay_cancelled_across_restarts() {
    let state = temp_dir("cancel");
    let sid = {
        let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("server");
        // A budget this large runs for a long while; cancel lands first.
        let sid = server
            .submit(spec("compress", 1_000_000, 5))
            .expect("submit");
        server.cancel(sid).expect("cancel");
        let final_state = server.join_session(sid).expect("join");
        assert!(
            matches!(
                final_state,
                SessionState::Cancelled | SessionState::Completed
            ),
            "unexpected state {final_state:?}"
        );
        assert_eq!(server.cancel(sid).expect_err("terminal").code, "no-session");
        sid
    };
    assert!(state
        .join("state")
        .join(sid.to_string())
        .join("cancelled")
        .exists());

    // Restart: the cancelled session is registered, never resumed.
    let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("restart");
    assert_eq!(
        server.session(sid).expect("restored").state(),
        SessionState::Cancelled
    );
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn partially_written_results_are_never_served() {
    let state = temp_dir("torn-result");
    let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("server");
    // A budget this large keeps the session running while we probe.
    let sid = server
        .submit(spec("compress", 1_000_000, 9))
        .expect("submit");

    // Simulate the instant the session thread is half-way through
    // persisting its multi-megabyte record: bytes on disk, state not yet
    // completed. `result` must keep answering no-result rather than
    // serving a truncated record.
    std::fs::write(
        state
            .join("state")
            .join(sid.to_string())
            .join("result.json"),
        "{\"program\":\"compress\",\"trunc",
    )
    .expect("plant torn record");
    let err = server.result(sid).expect_err("result while running");
    assert_eq!(err.code, "no-result");

    server.cancel(sid).expect("cancel");
    server.join_session(sid);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn tcp_round_trip_submit_watch_status_result_shutdown() {
    let state = temp_dir("tcp");
    let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    let session_spec = spec("compress", 10, 99);
    let mut client = Client::connect(addr).expect("connect");
    let sid = client.submit(session_spec.clone()).expect("submit");

    // Watch streams events (possibly zero if the session already
    // finished) and terminates with the done frame.
    let mut saw = Vec::new();
    client
        .watch(sid, |event| saw.push(event.to_string()))
        .expect("watch");
    for event in &saw {
        assert!(event.starts_with('{'), "event not JSON: {event}");
    }

    server.join_session(sid);
    let status = client.status(Some(sid)).expect("status");
    let sessions = status
        .get("sessions")
        .and_then(JsonValue::as_array)
        .expect("rows");
    assert_eq!(sessions.len(), 1);
    assert_eq!(
        sessions[0].get("state").and_then(JsonValue::as_str),
        Some("completed")
    );

    // The raw record line equals the one-shot record for the same spec.
    let reference = temp_dir("tcp-ref");
    let (_, want_record) = one_shot_reference(&reference, &session_spec);
    assert_eq!(client.result(sid).expect("result"), want_record);

    // Structured errors for unknown sessions: the server's stable code
    // arrives in the code field, verbatim.
    let err = client.result(9999).expect_err("unknown sid");
    assert_eq!(err.code, "unknown-session", "{err}");

    client.shutdown(false).expect("shutdown");
    serve.join().expect("serve thread").expect("serve io");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn stats_round_trip_reports_counters_and_histograms() {
    let state = temp_dir("stats");
    let mut config = ServerConfig::new(state.join("state"));
    // Spans feed the wall histograms; the serialised trace must stay
    // byte-identical to the spans-off one-shot reference regardless.
    config.spans = true;
    let server = TuneServer::new(config).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    let session_spec = spec("compress", 10, 41);
    let mut client = Client::connect(addr).expect("connect");
    let sid = client.submit(session_spec.clone()).expect("submit");
    server.join_session(sid);

    let stats = client.stats(Some(sid)).expect("stats");
    let sessions = stats
        .get("sessions")
        .and_then(JsonValue::as_array)
        .expect("sessions rows");
    assert_eq!(sessions.len(), 1);
    let row = &sessions[0];
    assert_eq!(row.get("sid").and_then(JsonValue::as_u64), Some(sid));
    assert_eq!(
        row.get("state").and_then(JsonValue::as_str),
        Some("completed")
    );
    let metrics = row.get("metrics").expect("metrics object");
    let counters = metrics.get("counters").expect("counters object");
    assert!(
        counters
            .get("trials_measured")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0,
        "session counters missing trials"
    );
    // Spans were on, so the per-session wall histograms are populated.
    let wall = metrics.get("wall").expect("wall object");
    let trial_wall = wall.get("trial_wall").expect("trial_wall histogram");
    assert!(
        trial_wall
            .get("count")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0,
        "trial_wall histogram empty despite spans on"
    );
    // The daemon-level frame histogram saw at least the submit frame.
    let frame_wall = stats
        .get("server")
        .and_then(|s| s.get("wall"))
        .and_then(|w| w.get("frame_wall"))
        .expect("server frame_wall");
    assert!(
        frame_wall
            .get("count")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0,
        "frame_wall histogram empty"
    );

    // Unknown sessions get the structured unknown-session error code.
    let err = client.stats(Some(9999)).expect_err("unknown sid");
    assert_eq!(err.code, "unknown-session", "{err}");

    // Spans on changed nothing about the serialised trace: it is still
    // byte-identical to the spans-off one-shot run.
    let reference = temp_dir("stats-ref");
    let (want_trace, _) = one_shot_reference(&reference, &session_spec);
    let (got_trace, _) = read_session_files(&state.join("state"), sid);
    assert_eq!(got_trace, want_trace, "spans leaked into the trace");

    client.shutdown(false).expect("shutdown");
    serve.join().expect("serve thread").expect("serve io");
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn two_workers_produce_byte_identical_traces_and_records() {
    let state = temp_dir("workers");
    let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    // Two remote workers, one of them multi-slot.
    let agents: Vec<_> = [1usize, 2]
        .into_iter()
        .map(|slots| {
            let mut options = WorkerOptions::new(addr.to_string());
            options.slots = slots;
            options.wait_ms = 200;
            std::thread::spawn(move || run_worker(&options))
        })
        .collect();
    let start = Instant::now();
    while server.workers().workers() < 2 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "workers never registered"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let session_spec = spec("compress", 10, 99);
    let mut client = Client::connect(addr).expect("connect");
    let sid = client.submit(session_spec.clone()).expect("submit");
    assert_eq!(server.join_session(sid), Some(SessionState::Completed));

    // The trials really ran remotely...
    assert!(
        server.workers().leases_completed() > 0,
        "no trial was measured by a worker"
    );
    // ...and the worker plane left no trace in the session's data path:
    // trace and record are byte-identical to the single-host run.
    let reference = temp_dir("workers-ref");
    let (want_trace, want_record) = one_shot_reference(&reference, &session_spec);
    let (got_trace, got_record) = read_session_files(&state.join("state"), sid);
    assert_eq!(got_trace, want_trace, "distributed trace diverged");
    assert_eq!(got_record, want_record, "distributed record diverged");

    // The worker counters surface in the daemon-level stats payload.
    let (_, server_metrics) = server.stats(None).expect("stats");
    assert!(
        server_metrics.contains("\"trials_leased\""),
        "worker counters missing from server stats: {server_metrics}"
    );

    // Drain: both workers exit their lease loops and report stats.
    client.shutdown(false).expect("shutdown");
    let mut measured = 0;
    for agent in agents {
        let stats = agent.join().expect("worker thread").expect("worker ran");
        measured += stats.completed;
    }
    assert!(measured > 0, "workers reported no completed trials");
    serve.join().expect("serve thread").expect("serve io");
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn killed_worker_mid_lease_reissues_to_the_survivor_byte_identically() {
    let state = temp_dir("worker-kill");
    let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    // A rogue worker registers by hand and takes the session's first
    // trial...
    let mut rogue = Client::connect(addr).expect("rogue connect");
    let rogue_wid = match rogue
        .request(&Request::Register {
            executor: "sim".into(),
            slots: 1,
            reconnect: None,
        })
        .expect("register")
    {
        Response::WorkerAck { wid } => wid,
        other => panic!("unexpected register reply: {other:?}"),
    };

    let session_spec = spec("compress", 10, 41);
    let sid = server.submit(session_spec.clone()).expect("submit");
    match rogue
        .request(&Request::Lease {
            wid: rogue_wid,
            wait_ms: 10_000,
        })
        .expect("lease")
    {
        Response::Leased(offer) => assert_eq!(offer.sid, sid),
        other => panic!("expected a lease offer, got {other:?}"),
    }

    // ...a healthy worker joins...
    let survivor = {
        let mut options = WorkerOptions::new(addr.to_string());
        options.wait_ms = 200;
        std::thread::spawn(move || run_worker(&options))
    };
    let start = Instant::now();
    while server.workers().workers() < 2 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "survivor never registered"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // ...and the rogue dies mid-lease. Dropping the registering
    // connection deregisters it instantly; its lease is reissued to the
    // survivor without waiting out the deadline.
    drop(rogue);

    assert_eq!(server.join_session(sid), Some(SessionState::Completed));
    assert!(
        server.workers().leases_expired() >= 1,
        "the lost lease never expired"
    );
    assert!(
        server.workers().leases_completed() >= 1,
        "the survivor measured nothing"
    );

    // The merged output is still byte-identical to the uninterrupted
    // single-host run.
    let reference = temp_dir("worker-kill-ref");
    let (want_trace, want_record) = one_shot_reference(&reference, &session_spec);
    let (got_trace, got_record) = read_session_files(&state.join("state"), sid);
    assert_eq!(got_trace, want_trace, "trace diverged after worker death");
    assert_eq!(
        got_record, want_record,
        "record diverged after worker death"
    );

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown(false).expect("shutdown");
    survivor.join().expect("survivor thread").expect("ran");
    serve.join().expect("serve thread").expect("serve io");
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn silent_workers_lose_their_leases_to_the_deadline() {
    let state = temp_dir("worker-deadline");
    let mut config = ServerConfig::new(state.join("state"));
    config.lease_ms = 200;
    let server = TuneServer::new(config).expect("server");

    // A worker registers straight against the registry, takes a lease,
    // and goes silent: no complete, no heartbeat.
    let wid = server.workers().register("sim", 1);
    let session_spec = spec("compress", 10, 7);
    let sid = server.submit(session_spec.clone()).expect("submit");
    match server
        .workers()
        .lease(wid, Duration::from_secs(10))
        .expect("lease")
    {
        LeaseGrant::Offer(offer) => assert_eq!(offer.sid, sid),
        other => panic!("expected a lease offer, got {other:?}"),
    }

    // The session's own result waiters double as the reaper: the lease
    // expires ~lease_ms later with no dedicated thread involved.
    let start = Instant::now();
    while server.workers().leases_expired() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline never expired the lease"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Deregister the idler so the requeued trial falls back to the
    // local pool, and the session finishes byte-identically.
    server.workers().deregister(wid);
    assert_eq!(server.join_session(sid), Some(SessionState::Completed));

    let reference = temp_dir("worker-deadline-ref");
    let (want_trace, want_record) = one_shot_reference(&reference, &session_spec);
    let (got_trace, got_record) = read_session_files(&state.join("state"), sid);
    assert_eq!(got_trace, want_trace, "trace diverged after lease expiry");
    assert_eq!(
        got_record, want_record,
        "record diverged after lease expiry"
    );

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&state);
}

/// A `complete` carrying `wait_ms` is answered as a `lease` would be: a
/// stale complete (its lease expired and was reissued) is discarded and
/// still gets the next offer, an unknown worker gets `unknown-worker`,
/// and a draining daemon answers `idle` with `draining`.
#[test]
fn a_complete_asking_for_the_next_lease_is_answered_as_a_lease() {
    let state = temp_dir("complete-lease");
    let mut config = ServerConfig::new(state.join("state"));
    config.lease_ms = 200;
    let server = TuneServer::new(config).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };
    let mut worker = Client::connect(addr).expect("worker connect");
    let wid = match worker
        .request(&Request::Register {
            executor: "sim".into(),
            slots: 1,
            reconnect: None,
        })
        .expect("register")
    {
        Response::WorkerAck { wid } => wid,
        other => panic!("unexpected register reply: {other:?}"),
    };
    let complete = |wid, lease, wait_ms| Request::Complete {
        wid,
        lease,
        outcome: TrialOutcome {
            time_ns: 1,
            ..TrialOutcome::default()
        },
        wait_ms,
    };

    let sid = server.submit(spec("compress", 10, 7)).expect("submit");
    let first = match worker.request(&Request::Lease {
        wid,
        wait_ms: 10_000,
    }) {
        Ok(Response::Leased(offer)) => offer,
        other => panic!("expected a lease offer, got {other:?}"),
    };
    assert_eq!(first.sid, sid);
    // The worker stays silent past the deadline: the job goes back to
    // the front of the queue.
    let start = Instant::now();
    while server.workers().leases_expired() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline never expired the lease"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let reissued = match worker.request(&complete(wid, first.lease, Some(10_000))) {
        Ok(Response::Leased(offer)) => offer,
        other => panic!("expected the reissued lease, got {other:?}"),
    };
    assert!(reissued.lease > first.lease);
    assert_eq!(
        (reissued.sid, reissued.seed, reissued.fingerprint),
        (first.sid, first.seed, first.fingerprint),
        "the next offer is the reissued trial"
    );
    assert_eq!(
        server.workers().leases_completed(),
        0,
        "the stale complete was kept"
    );

    // From an unknown worker: the old ack without `wait_ms`, the lease
    // op's refusal with it.
    assert_eq!(
        worker.request(&complete(wid + 100, 0, None)),
        Ok(Response::LeaseAck { lease: 0 })
    );
    let err = worker
        .request(&complete(wid + 100, 0, Some(0)))
        .expect_err("an unknown worker gets no lease");
    assert_eq!(err.code, "unknown-worker");

    // Draining: the next combined frame tells the worker to leave.
    let shutdown = std::thread::spawn(move || {
        Client::connect(addr)
            .expect("control connect")
            .shutdown(true)
    });
    let mut lease = reissued.lease;
    let start = Instant::now();
    loop {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "the daemon never said it was draining"
        );
        match worker.request(&complete(wid, lease, Some(50))) {
            Ok(Response::Leased(offer)) => lease = offer.lease,
            Ok(Response::Idle { draining: false }) => {}
            Ok(Response::Idle { draining: true }) => break,
            other => panic!("unexpected reply while draining: {other:?}"),
        }
    }
    assert_eq!(
        worker.request(&Request::Deregister { wid }),
        Ok(Response::WorkerAck { wid })
    );
    shutdown.join().expect("shutdown thread").expect("shutdown");
    serve.join().expect("serve thread").expect("serve io");
    let _ = std::fs::remove_dir_all(&state);
}

/// The chaos contract end to end: a daemon whose outbound frames run
/// through a seeded fault plan, served by workers whose own frames run
/// through fault plans of their own, with clients connecting and
/// vanishing mid-stream — and the sessions' traces and records are
/// still byte-identical to the undisturbed one-shot runs.
#[test]
fn chaotic_network_still_yields_byte_identical_traces() {
    let state = temp_dir("chaos");
    let mut config = ServerConfig::new(state.join("state"));
    // Server-side chaos: every reply frame may be dropped, delayed,
    // garbled, or have its connection killed, per the seeded schedule.
    config.net_faults = NetFaultPlan::chaotic(0.2, 0xC0FFEE);
    // Deadlines unwedge both sides when a frame is eaten...
    config.io_timeout_ms = 2_000;
    // ...and short leases keep lost-lease reissue fast (and stay under
    // the 2 s heartbeat threshold, so the workers never beat).
    config.lease_ms = 1_000;
    let server = TuneServer::new(config).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    // Two workers, each with its own outbound fault schedule; their
    // reconnect budgets keep them coming back through every disconnect.
    let agents: Vec<_> = [0xBEE5u64, 0xFACADE]
        .into_iter()
        .map(|seed| {
            let mut options = WorkerOptions::new(addr.to_string());
            options.wait_ms = 200;
            options.net_faults = NetFaultPlan::chaotic(0.15, seed);
            options.backoff.retry.max_retries = 3;
            options.backoff.cap_ms = 500;
            std::thread::spawn(move || run_worker(&options))
        })
        .collect();
    let start = Instant::now();
    while server.workers().workers() < 2 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "workers never registered under chaos"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let specs = [spec("compress", 10, 11), spec("crypto.aes", 10, 22)];
    let sids: Vec<u64> = specs
        .iter()
        .map(|s| server.submit(s.clone()).expect("submit"))
        .collect();

    // Client churn: a watcher attaches over the chaotic wire and then
    // vanishes mid-stream; a status poller connects and drops. Both may
    // fail (their replies are fair game for the fault plan) — the point
    // is that their connections die while sessions are in flight.
    {
        let mut watcher = Client::connect(addr).expect("watcher connect");
        watcher
            .set_io_timeout(Duration::from_secs(2))
            .expect("watcher deadline");
        let _ = watcher.request(&Request::Watch { sid: sids[0] });
        drop(watcher);
        let mut poller = Client::connect(addr).expect("poller connect");
        poller
            .set_io_timeout(Duration::from_secs(2))
            .expect("poller deadline");
        let _ = poller.status(None);
        drop(poller);
    }

    for &sid in &sids {
        assert_eq!(
            server.join_session(sid),
            Some(SessionState::Completed),
            "session {sid} did not complete under chaos"
        );
    }
    for (spec, &sid) in specs.iter().zip(&sids) {
        let reference = temp_dir(&format!("chaos-ref-{sid}"));
        let (want_trace, want_record) = one_shot_reference(&reference, spec);
        let (got_trace, got_record) = read_session_files(&state.join("state"), sid);
        assert_eq!(got_trace, want_trace, "session {sid} trace diverged");
        assert_eq!(got_record, want_record, "session {sid} record diverged");
        let _ = std::fs::remove_dir_all(&reference);
    }

    // Shutdown through the chaotic wire: the flag flips server-side
    // before the reply frame rolls the fault dice, so a lost reply only
    // costs this client its ack.
    let mut closer = Client::connect(addr).expect("closer connect");
    closer
        .set_io_timeout(Duration::from_secs(2))
        .expect("closer deadline");
    let _ = closer.shutdown(false);
    // Workers either drained cleanly (stats) or exhausted their
    // reconnect budget against the stopped daemon; both are clean exits
    // here — what matters is that none of them wedged.
    for agent in agents {
        let _ = agent.join().expect("worker thread exits");
    }
    serve.join().expect("serve thread").expect("serve io");
    let _ = std::fs::remove_dir_all(&state);
}

/// A client that connects and trickles half a frame must be reaped by
/// the read deadline — without slowing the sessions other clients run.
#[test]
fn slow_loris_connections_are_reaped_by_the_deadline() {
    use std::io::{Read, Write};

    let state = temp_dir("loris");
    let mut config = ServerConfig::new(state.join("state"));
    config.io_timeout_ms = 300;
    let server = TuneServer::new(config).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    // The loris: half a frame, then silence.
    let mut loris = std::net::TcpStream::connect(addr).expect("loris connect");
    loris
        .write_all(b"{\"v\":1,\"op\":\"stat")
        .expect("half frame");

    // A healthy session proceeds, unbothered.
    let mut client = Client::connect(addr).expect("connect");
    let sid = client.submit(spec("compress", 10, 3)).expect("submit");
    assert_eq!(server.join_session(sid), Some(SessionState::Completed));

    // The loris connection is closed by the deadline, not served and
    // not left pinning a handler: the next read sees EOF/reset, fast.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("loris read timeout");
    let mut buf = [0u8; 64];
    match loris.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!(
            "server answered a half frame with {n} bytes: {:?}",
            String::from_utf8_lossy(&buf[..n])
        ),
    }

    // The submit connection idled past the deadline too — shutdown
    // rides a fresh one.
    drop(client);
    let mut closer = Client::connect(addr).expect("closer connect");
    closer.shutdown(false).expect("shutdown");
    serve.join().expect("serve thread").expect("serve io");
    let _ = std::fs::remove_dir_all(&state);
}

/// Admission control: `capacity` sessions run, `queue` more wait, and
/// past both bounds submits are shed with `overloaded` + a hint — until
/// residents leave and admission reopens.
#[test]
fn queued_submissions_wait_and_excess_is_shed_until_load_drops() {
    let state = temp_dir("queue");
    let mut config = ServerConfig::new(state.join("state"));
    config.capacity = 1;
    config.queue = 2;
    let server = TuneServer::new(config).expect("server");

    // Budgets this large run until cancelled, holding the slots.
    let a = server.submit(spec("compress", 1_000_000, 1)).expect("a");
    let b = server.submit(spec("compress", 1_000_000, 2)).expect("b");
    let c = server.submit(spec("compress", 1_000_000, 3)).expect("c");
    assert_eq!(
        server.session(a).expect("a handle").state(),
        SessionState::Running
    );
    for sid in [b, c] {
        assert_eq!(
            server.session(sid).expect("handle").state(),
            SessionState::Queued,
            "session {sid} should be waiting in the admission queue"
        );
    }

    // Past capacity + queue: shed, with a positive retry hint, and the
    // rejection shows up in the daemon counters.
    let err = server
        .submit(spec("compress", 1_000_000, 4))
        .expect_err("shed");
    assert_eq!(err.code, "overloaded");
    assert!(err.retry_after_ms.unwrap_or(0) > 0, "{err}");
    assert!(
        server
            .server_metrics()
            .to_json()
            .contains("\"connections_rejected\":1"),
        "shed submit missing from counters: {}",
        server.server_metrics().to_json()
    );

    // Cancel everything; the queue drains through the freed slot and
    // every session reaches a terminal state.
    for sid in [a, b, c] {
        server.cancel(sid).expect("cancel");
    }
    let start = Instant::now();
    for sid in [a, b, c] {
        loop {
            if server.session(sid).expect("handle").state().is_terminal() {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "session {sid} never left the queue"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Residency dropped: admission is open again.
    let d = server
        .submit(spec("compress", 1_000_000, 5))
        .expect("readmitted");
    server.cancel(d).expect("cancel d");
    server.join_session(d);
    let _ = std::fs::remove_dir_all(&state);
}

/// A connection past `conn_limit` gets one `overloaded` error frame
/// (with the fixed retry hint) and no handler thread.
#[test]
fn connections_past_the_limit_are_shed_with_a_hint() {
    use std::io::{BufRead, BufReader};

    let state = temp_dir("conn-limit");
    let mut config = ServerConfig::new(state.join("state"));
    config.conn_limit = 1;
    let server = TuneServer::new(config).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    // The round trip guarantees the first connection is being served
    // (and counted) before the second one arrives.
    let mut first = Client::connect(addr).expect("first connect");
    first.status(None).expect("first status");

    let second = std::net::TcpStream::connect(addr).expect("second connect");
    let mut reply = String::new();
    BufReader::new(second)
        .read_line(&mut reply)
        .expect("read shed frame");
    assert!(reply.contains("\"code\":\"overloaded\""), "{reply}");
    assert!(reply.contains("\"retry_after_ms\":250"), "{reply}");
    assert!(
        server
            .server_metrics()
            .to_json()
            .contains("\"connections_rejected\":1"),
        "{}",
        server.server_metrics().to_json()
    );

    first.shutdown(false).expect("shutdown");
    serve.join().expect("serve thread").expect("serve io");
    let _ = std::fs::remove_dir_all(&state);
}

/// The robustness counters ride the stats payload: rejected frames
/// (junk and oversized), tagged client retries, and worker reconnects
/// are all visible to `client stats` and the shutdown metrics snapshot.
#[test]
fn overload_and_retry_counters_surface_in_stats() {
    use std::io::{BufRead, BufReader, Write};

    let state = temp_dir("overload-counters");
    let mut config = ServerConfig::new(state.join("state"));
    config.max_frame = 1024;
    let server = TuneServer::new(config).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    // One junk frame (decoder reject) and one oversized frame (reader
    // reject; the server closes that connection afterwards).
    {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writeln!(writer, "this is not json").expect("junk frame");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("junk reply");
        assert!(reply.contains("\"code\":\"bad-frame\""), "{reply}");
        writeln!(writer, "{}", "x".repeat(4096)).expect("oversized frame");
        reply.clear();
        reader.read_line(&mut reply).expect("oversized reply");
        assert!(reply.contains("\"code\":\"frame-too-large\""), "{reply}");
        reply.clear();
        // Closed with our unread bytes still buffered, so this may be a
        // reset rather than a clean EOF — either way, no more frames.
        match reader.read_line(&mut reply) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("oversized frame must close the connection: {reply}"),
        }
    }

    // A retry-tagged status frame (what `with_retries` sends on its
    // second attempt) bumps the client-retry counter.
    {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writeln!(
            writer,
            "{{\"v\":1,\"op\":\"status\",\"attempt\":2,\"delay_ms\":150}}"
        )
        .expect("tagged frame");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("tagged reply");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    // A worker identity dies and its successor re-registers naming it.
    let prev_wid = {
        let mut worker = Client::connect(addr).expect("worker connect");
        match worker
            .request(&Request::Register {
                executor: "sim".into(),
                slots: 1,
                reconnect: None,
            })
            .expect("register")
        {
            Response::WorkerAck { wid } => wid,
            other => panic!("unexpected register reply: {other:?}"),
        }
    };
    let mut successor = Client::connect(addr).expect("successor connect");
    match successor
        .request(&Request::Register {
            executor: "sim".into(),
            slots: 1,
            reconnect: Some(Reconnect {
                prev_wid,
                attempts: 2,
            }),
        })
        .expect("re-register")
    {
        Response::WorkerAck { wid } => assert_ne!(wid, prev_wid, "successor got a fresh identity"),
        other => panic!("unexpected re-register reply: {other:?}"),
    }

    let metrics = server.server_metrics().to_json();
    assert!(metrics.contains("\"frames_rejected\":2"), "{metrics}");
    assert!(metrics.contains("\"clients_retried\":1"), "{metrics}");
    assert!(metrics.contains("\"workers_reconnected\":1"), "{metrics}");

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown(false).expect("shutdown");
    serve.join().expect("serve thread").expect("serve io");

    // The drained daemon left the same counters on disk for offline
    // `jtune report`.
    let snapshot = std::fs::read_to_string(state.join("state").join("server-metrics.json"))
        .expect("metrics snapshot");
    assert!(snapshot.contains("\"frames_rejected\":2"), "{snapshot}");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn malformed_frames_get_structured_error_replies() {
    use std::io::{BufRead, BufReader, Write};

    let state = temp_dir("badframe");
    let server = TuneServer::new(ServerConfig::new(state.join("state"))).expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let serve = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| -> String {
        writeln!(writer, "{line}").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    };

    for (line, code) in [
        ("this is not json", "\"code\":\"bad-frame\""),
        ("{\"v\":9,\"op\":\"status\"}", "\"code\":\"bad-version\""),
        ("{\"v\":1,\"op\":\"levitate\"}", "\"code\":\"unknown-op\""),
        ("{\"v\":1,\"op\":\"submit\"}", "\"code\":\"invalid-spec\""),
    ] {
        let reply = ask(line);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains(code), "{reply}");
    }

    let mut client = Client::connect(addr).expect("connect 2");
    client.shutdown(false).expect("shutdown");
    serve.join().expect("serve thread").expect("serve io");
    let _ = std::fs::remove_dir_all(&state);
}
