//! The exact bytes of every wire frame and of `spec.json`.
//!
//! Each sample below is paired with the one line it must render to, and
//! the line must decode back to the sample. The samples cover every
//! request and reply variant and both sides of every optional field, so
//! a change to how any frame is written or read fails here first.

use jtune_server::wire::{
    parse_request, parse_response, parse_tagged_request, render_request, render_response, tag_retry,
};
use jtune_server::{LeaseOffer, Reconnect, Request, Response, SessionSpec, TrialOutcome};

fn full_spec() -> SessionSpec {
    SessionSpec {
        program: "compress".into(),
        budget_mins: 30,
        seed: 11,
        max_evaluations: Some(64),
        screen_ratio: Some(4.5),
        technique: Some("portfolio".into()),
    }
}

fn counters() -> TrialOutcome {
    TrialOutcome {
        time_ns: 123_456_789,
        pause_p99_ns: Some(42_000),
        gc_pause_ns: Some(9_000_000),
        gc_collections: Some(17),
        jit_ns: Some(1_000_000),
        jit_compiles: Some(230),
        error_kind: None,
        error: None,
    }
}

fn failure() -> TrialOutcome {
    TrialOutcome {
        time_ns: 5_000,
        error_kind: Some("oom".into()),
        error: Some("heap \"full\" at 93%".into()),
        ..TrialOutcome::default()
    }
}

/// One request of every variant, with both sides of every optional
/// field, and the frame each renders to.
fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Submit(SessionSpec::new("compress")),
            r#"{"v":1,"op":"submit","program":"compress","budget_mins":200,"seed":319242456645}"#,
        ),
        (
            Request::Submit(full_spec()),
            r#"{"v":1,"op":"submit","program":"compress","budget_mins":30,"seed":11,"max_evals":64,"screen_ratio":4.5,"technique":"portfolio"}"#,
        ),
        (Request::Status { sid: None }, r#"{"v":1,"op":"status"}"#),
        (
            Request::Status { sid: Some(3) },
            r#"{"v":1,"op":"status","sid":3}"#,
        ),
        (Request::Watch { sid: 1 }, r#"{"v":1,"op":"watch","sid":1}"#),
        (
            Request::Result { sid: 2 },
            r#"{"v":1,"op":"result","sid":2}"#,
        ),
        (
            Request::Cancel { sid: 9 },
            r#"{"v":1,"op":"cancel","sid":9}"#,
        ),
        (Request::Stats { sid: None }, r#"{"v":1,"op":"stats"}"#),
        (
            Request::Stats { sid: Some(5) },
            r#"{"v":1,"op":"stats","sid":5}"#,
        ),
        (
            Request::Shutdown { drain: true },
            r#"{"v":1,"op":"shutdown","drain":true}"#,
        ),
        (
            Request::Shutdown { drain: false },
            r#"{"v":1,"op":"shutdown","drain":false}"#,
        ),
        (
            Request::Register {
                executor: "sim".into(),
                slots: 4,
                reconnect: None,
            },
            r#"{"v":1,"op":"register","executor":"sim","slots":4}"#,
        ),
        (
            Request::Register {
                executor: "sim".into(),
                slots: 2,
                reconnect: Some(Reconnect {
                    prev_wid: 3,
                    attempts: 2,
                }),
            },
            r#"{"v":1,"op":"register","executor":"sim","slots":2,"prev_wid":3,"attempts":2}"#,
        ),
        (
            Request::Lease {
                wid: 7,
                wait_ms: 500,
            },
            r#"{"v":1,"op":"lease","wid":7,"wait_ms":500}"#,
        ),
        (
            Request::Complete {
                wid: 7,
                lease: 40,
                outcome: TrialOutcome {
                    time_ns: 5_000,
                    ..TrialOutcome::default()
                },
                wait_ms: None,
            },
            r#"{"v":1,"op":"complete","wid":7,"lease":40,"time_ns":5000}"#,
        ),
        (
            Request::Complete {
                wid: 7,
                lease: 41,
                outcome: counters(),
                wait_ms: None,
            },
            r#"{"v":1,"op":"complete","wid":7,"lease":41,"time_ns":123456789,"pause_p99_ns":42000,"gc_pause_ns":9000000,"gc_collections":17,"jit_ns":1000000,"jit_compiles":230}"#,
        ),
        (
            Request::Complete {
                wid: 7,
                lease: 42,
                outcome: counters(),
                wait_ms: Some(500),
            },
            r#"{"v":1,"op":"complete","wid":7,"lease":42,"time_ns":123456789,"pause_p99_ns":42000,"gc_pause_ns":9000000,"gc_collections":17,"jit_ns":1000000,"jit_compiles":230,"wait_ms":500}"#,
        ),
        (
            Request::Complete {
                wid: 7,
                lease: 43,
                outcome: failure(),
                wait_ms: None,
            },
            r#"{"v":1,"op":"complete","wid":7,"lease":43,"time_ns":5000,"error_kind":"oom","error":"heap \"full\" at 93%"}"#,
        ),
        (
            Request::Complete {
                wid: 7,
                lease: 44,
                outcome: TrialOutcome {
                    error_kind: Some("crash".into()),
                    error: Some("SIGSEGV".into()),
                    ..counters()
                },
                wait_ms: Some(0),
            },
            r#"{"v":1,"op":"complete","wid":7,"lease":44,"time_ns":123456789,"pause_p99_ns":42000,"gc_pause_ns":9000000,"gc_collections":17,"jit_ns":1000000,"jit_compiles":230,"error_kind":"crash","error":"SIGSEGV","wait_ms":0}"#,
        ),
        (
            Request::Fail {
                wid: 7,
                lease: 45,
                reason: "unknown workload".into(),
                wait_ms: None,
            },
            r#"{"v":1,"op":"fail","wid":7,"lease":45,"reason":"unknown workload"}"#,
        ),
        (
            Request::Fail {
                wid: 7,
                lease: 46,
                reason: "unknown workload".into(),
                wait_ms: Some(500),
            },
            r#"{"v":1,"op":"fail","wid":7,"lease":46,"reason":"unknown workload","wait_ms":500}"#,
        ),
        (
            Request::Heartbeat {
                wid: 7,
                leases: vec![],
            },
            r#"{"v":1,"op":"heartbeat","wid":7,"leases":[]}"#,
        ),
        (
            Request::Heartbeat {
                wid: 7,
                leases: vec![41, 42],
            },
            r#"{"v":1,"op":"heartbeat","wid":7,"leases":[41,42]}"#,
        ),
        (
            Request::Deregister { wid: 7 },
            r#"{"v":1,"op":"deregister","wid":7}"#,
        ),
    ]
}

/// One reply of every variant, with both sides of every optional
/// field, and the frame each renders to.
fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Sid { sid: 4 }, r#"{"v":1,"ok":true,"sid":4}"#),
        (
            Response::Sessions {
                sessions: r#"[{"sid":1,"state":"running"}]"#.into(),
            },
            r#"{"v":1,"ok":true,"sessions":[{"sid":1,"state":"running"}]}"#,
        ),
        (
            Response::RecordFollows,
            r#"{"v":1,"ok":true,"follows":"record"}"#,
        ),
        (
            Response::Stats {
                sessions: r#"[{"sid":1,"counters":{"trials_measured":12}}]"#.into(),
                server: r#"{"frame_wall":{"total":3}}"#.into(),
            },
            r#"{"v":1,"ok":true,"sessions":[{"sid":1,"counters":{"trials_measured":12}}],"server":{"frame_wall":{"total":3}}}"#,
        ),
        (
            Response::ShuttingDown { drain: true },
            r#"{"v":1,"ok":true,"draining":true}"#,
        ),
        (
            Response::ShuttingDown { drain: false },
            r#"{"v":1,"ok":true,"draining":false}"#,
        ),
        (Response::WatchDone, r#"{"v":1,"ok":true,"done":true}"#),
        (
            Response::WorkerAck { wid: 2 },
            r#"{"v":1,"ok":true,"wid":2}"#,
        ),
        (
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
            r#"{"v":1,"ok":true,"lease":41,"sid":1,"slot":3,"seed":3735928559,"fingerprint":4277006349,"executor":"sim:compress","deadline_ms":10000,"config":["-XX:+UseParallelGC","-XX:MaxHeapSize=512m"]}"#,
        ),
        (
            Response::Leased(LeaseOffer {
                lease: 42,
                sid: 2,
                slot: 0,
                seed: 1,
                fingerprint: u64::MAX,
                executor: "sim:serial".into(),
                deadline_ms: 500,
                config: vec![],
            }),
            r#"{"v":1,"ok":true,"lease":42,"sid":2,"slot":0,"seed":1,"fingerprint":18446744073709551615,"executor":"sim:serial","deadline_ms":500,"config":[]}"#,
        ),
        (
            Response::Idle { draining: false },
            r#"{"v":1,"ok":true,"idle":true}"#,
        ),
        (
            Response::Idle { draining: true },
            r#"{"v":1,"ok":true,"idle":true,"draining":true}"#,
        ),
        (
            Response::LeaseAck { lease: 41 },
            r#"{"v":1,"ok":true,"lease":41}"#,
        ),
        (
            Response::HeartbeatAck { leases: 2 },
            r#"{"v":1,"ok":true,"leases":2}"#,
        ),
    ]
}

#[test]
fn every_request_renders_its_pinned_frame_and_decodes_back() {
    for (request, frame) in requests() {
        assert_eq!(render_request(&request), frame);
        assert_eq!(parse_request(frame), Ok(request), "{frame}");
    }
}

#[test]
fn every_reply_renders_its_pinned_frame_and_decodes_back() {
    for (response, frame) in responses() {
        assert_eq!(render_response(&response), frame);
        assert_eq!(parse_response(frame), Ok(response), "{frame}");
    }
}

#[test]
fn a_retried_frame_appends_its_tag_and_decodes_with_it() {
    let request = Request::Lease {
        wid: 7,
        wait_ms: 500,
    };
    let frame = r#"{"v":1,"op":"lease","wid":7,"wait_ms":500,"attempt":2,"delay_ms":310}"#;
    assert_eq!(tag_retry(&render_request(&request), 2, 310), frame);
    assert_eq!(parse_tagged_request(frame), Ok((request, Some((2, 310)))));
}

#[test]
fn spec_json_keeps_its_pinned_bytes() {
    let minimal = r#"{"program":"compress","budget_mins":200,"seed":319242456645}"#;
    let full = r#"{"program":"compress","budget_mins":30,"seed":11,"max_evals":64,"screen_ratio":4.5,"technique":"portfolio"}"#;
    for (spec, line) in [(SessionSpec::new("compress"), minimal), (full_spec(), full)] {
        assert_eq!(spec.to_json(), line);
        assert_eq!(SessionSpec::parse(line), Ok(spec));
    }
    // Absent budget and seed read as the one-shot defaults.
    assert_eq!(
        SessionSpec::parse(r#"{"program":"compress"}"#),
        Ok(SessionSpec::new("compress"))
    );
}
