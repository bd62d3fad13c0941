//! Table-driven fuzzing of the wire decoders.
//!
//! Every frame a peer can send — truncated, oversized, non-UTF-8, or
//! structurally valid JSON with junk fields — must come back as a
//! structured [`WireError`] with a stable code. No input may panic a
//! decoder, and no failure may surface as an ad-hoc code outside the
//! documented set.

use std::io::BufReader;

use jtune_server::wire::{
    error_frame, parse_reply, parse_request, parse_response, render_request, render_response,
};
use jtune_server::{
    read_frame, FrameReadError, LeaseOffer, Reconnect, Request, Response, SessionSpec, TrialOutcome,
};

/// Every error code the request/response decoders are allowed to emit.
const STABLE_CODES: &[&str] = &[
    "bad-frame",
    "bad-version",
    "unknown-op",
    "invalid-spec",
    "server-error",
];

fn assert_stable(code: &str, context: &str) {
    assert!(
        STABLE_CODES.contains(&code),
        "unstable error code {code:?} for {context}"
    );
}

#[test]
fn junk_request_frames_decode_to_stable_codes() {
    let table: &[(&str, &str)] = &[
        // Not JSON at all.
        ("", "bad-frame"),
        ("this is not json", "bad-frame"),
        ("{", "bad-frame"),
        ("[]", "bad-frame"),
        ("null", "bad-frame"),
        ("{}", "bad-frame"),
        // Version gate.
        ("{\"v\":9,\"op\":\"status\"}", "bad-version"),
        ("{\"v\":\"one\",\"op\":\"status\"}", "bad-frame"),
        ("{\"op\":\"status\"}", "bad-frame"),
        // Op dispatch.
        ("{\"v\":1}", "bad-frame"),
        ("{\"v\":1,\"op\":\"levitate\"}", "unknown-op"),
        ("{\"v\":1,\"op\":42}", "bad-frame"),
        // Junk fields where the op needs typed values.
        ("{\"v\":1,\"op\":\"submit\"}", "invalid-spec"),
        ("{\"v\":1,\"op\":\"submit\",\"program\":7}", "invalid-spec"),
        ("{\"v\":1,\"op\":\"watch\"}", "bad-frame"),
        ("{\"v\":1,\"op\":\"watch\",\"sid\":\"nope\"}", "bad-frame"),
        ("{\"v\":1,\"op\":\"result\",\"sid\":-3}", "bad-frame"),
        ("{\"v\":1,\"op\":\"cancel\",\"sid\":null}", "bad-frame"),
        ("{\"v\":1,\"op\":\"register\",\"slots\":1}", "bad-frame"),
        (
            "{\"v\":1,\"op\":\"register\",\"executor\":3,\"slots\":1}",
            "bad-frame",
        ),
        ("{\"v\":1,\"op\":\"lease\",\"wid\":1}", "bad-frame"),
        (
            "{\"v\":1,\"op\":\"complete\",\"wid\":1,\"lease\":2}",
            "bad-frame",
        ),
        (
            "{\"v\":1,\"op\":\"complete\",\"wid\":1,\"lease\":2,\"time_ns\":3,\"wait_ms\":-1}",
            "bad-frame",
        ),
        (
            "{\"v\":1,\"op\":\"fail\",\"wid\":1,\"lease\":2,\"wait_ms\":\"500\"}",
            "bad-frame",
        ),
        (
            "{\"v\":1,\"op\":\"heartbeat\",\"wid\":1,\"leases\":[1,\"x\"]}",
            "bad-frame",
        ),
        ("{\"v\":1,\"op\":\"deregister\",\"wid\":{}}", "bad-frame"),
        // Wrongly typed optional fields are bad frames, not defaults.
        ("{\"v\":1,\"op\":\"status\",\"sid\":\"x\"}", "bad-frame"),
        ("{\"v\":1,\"op\":\"stats\",\"sid\":-1}", "bad-frame"),
        ("{\"v\":1,\"op\":\"shutdown\",\"drain\":\"no\"}", "bad-frame"),
        (
            "{\"v\":1,\"op\":\"register\",\"executor\":\"sim\",\"slots\":1,\"prev_wid\":\"3\"}",
            "bad-frame",
        ),
        (
            "{\"v\":1,\"op\":\"register\",\"executor\":\"sim\",\"slots\":1,\"prev_wid\":3,\"attempts\":true}",
            "bad-frame",
        ),
        (
            "{\"v\":1,\"op\":\"fail\",\"wid\":1,\"lease\":2,\"reason\":7}",
            "bad-frame",
        ),
        (
            "{\"v\":1,\"op\":\"complete\",\"wid\":1,\"lease\":2,\"time_ns\":3,\"pause_p99_ns\":\"4\"}",
            "bad-frame",
        ),
        (
            "{\"v\":1,\"op\":\"lease\",\"wid\":1,\"wait_ms\":5,\"attempt\":\"2\"}",
            "bad-frame",
        ),
        (
            "{\"v\":1,\"op\":\"submit\",\"program\":\"c\",\"seed\":\"x\"}",
            "invalid-spec",
        ),
    ];
    for (line, want) in table {
        let err = parse_request(line).expect_err(&format!("{line:?} must not decode"));
        assert_eq!(err.code, *want, "{line:?} → {err}");
        assert_stable(&err.code, line);
    }
}

#[test]
fn junk_reply_frames_decode_to_stable_codes() {
    let table: &[(&str, &str)] = &[
        ("", "bad-frame"),
        ("garbage", "bad-frame"),
        ("{\"v\":1,\"ok\":true}", "bad-frame"),
        ("{\"v\":1,\"ok\":true,\"idle\":\"yes\"}", "bad-frame"),
        // Error frames pass the server's code through verbatim...
        ("{\"v\":1,\"ok\":false}", "server-error"),
        // ...and lease offers missing required fields are bad frames.
        ("{\"v\":1,\"ok\":true,\"lease\":3,\"sid\":4}", "bad-frame"),
        (
            "{\"v\":1,\"ok\":true,\"lease\":3,\"sid\":4,\"slot\":0,\"seed\":1,\"fingerprint\":2,\"deadline_ms\":5}",
            "bad-frame",
        ),
        (
            "{\"v\":1,\"ok\":true,\"lease\":3,\"sid\":4,\"slot\":0,\"seed\":1,\"fingerprint\":2,\"executor\":\"sim\",\"deadline_ms\":5,\"config\":[1]}",
            "bad-frame",
        ),
    ];
    for (line, want) in table {
        let err = parse_response(line).expect_err(&format!("{line:?} must not decode"));
        assert_eq!(err.code, *want, "{line:?} → {err}");
        assert_stable(&err.code, line);
    }
}

#[test]
fn overload_hints_survive_the_reply_decoder() {
    let line =
        "{\"v\":1,\"ok\":false,\"code\":\"overloaded\",\"error\":\"busy\",\"retry_after_ms\":250}";
    let err = parse_reply(line).expect_err("error frame");
    assert_eq!(err.code, "overloaded");
    assert_eq!(err.retry_after_ms, Some(250));
    // And the round trip through error_frame is lossless.
    assert_eq!(error_frame(&err), line);
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Submit(SessionSpec {
            program: "compress".into(),
            budget_mins: 30,
            seed: 11,
            max_evaluations: Some(64),
            screen_ratio: Some(4.0),
            technique: Some("portfolio".into()),
        }),
        Request::Status { sid: Some(3) },
        Request::Watch { sid: 9 },
        Request::Result { sid: 4 },
        Request::Cancel { sid: 5 },
        Request::Stats { sid: None },
        Request::Shutdown { drain: true },
        Request::Register {
            executor: "sim".into(),
            slots: 2,
            reconnect: Some(Reconnect {
                prev_wid: 7,
                attempts: 2,
            }),
        },
        Request::Lease {
            wid: 1,
            wait_ms: 500,
        },
        Request::Complete {
            wid: 1,
            lease: 8,
            outcome: TrialOutcome {
                time_ns: 12_345,
                pause_p99_ns: Some(77),
                ..TrialOutcome::default()
            },
            wait_ms: None,
        },
        Request::Complete {
            wid: 1,
            lease: 9,
            outcome: TrialOutcome {
                time_ns: 12_345,
                error_kind: Some("oom".into()),
                error: Some("heap \"full\"".into()),
                ..TrialOutcome::default()
            },
            wait_ms: Some(500),
        },
        Request::Fail {
            wid: 1,
            lease: 8,
            reason: "lost".into(),
            wait_ms: None,
        },
        Request::Fail {
            wid: 1,
            lease: 10,
            reason: "lost".into(),
            wait_ms: Some(0),
        },
        Request::Heartbeat {
            wid: 1,
            leases: vec![8, 9],
        },
        Request::Deregister { wid: 1 },
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::Sid { sid: 3 },
        Response::Sessions {
            sessions: "[{\"sid\":3}]".into(),
        },
        Response::Stats {
            sessions: "[]".into(),
            server: "{\"counters\":{}}".into(),
        },
        Response::RecordFollows,
        Response::WatchDone,
        Response::ShuttingDown { drain: false },
        Response::WorkerAck { wid: 7 },
        Response::Leased(LeaseOffer {
            lease: 8,
            sid: 3,
            slot: 1,
            seed: 42,
            fingerprint: 77,
            executor: "sim".into(),
            deadline_ms: 10_000,
            config: vec!["-XX:+UseG1GC".into()],
        }),
        Response::LeaseAck { lease: 8 },
        Response::HeartbeatAck { leases: 2 },
        Response::Idle { draining: true },
    ]
}

/// Truncating any rendered frame at any char boundary never panics a
/// decoder, and every rejection carries a stable code.
#[test]
fn truncated_frames_never_panic_the_decoders() {
    for request in sample_requests() {
        let frame = render_request(&request);
        for cut in frame.char_indices().map(|(i, _)| i) {
            if let Err(e) = parse_request(&frame[..cut]) {
                assert_stable(&e.code, &format!("request cut at {cut}: {frame}"));
            }
        }
        // The full frame still round-trips.
        assert_eq!(parse_request(&frame).expect("full frame decodes"), request);
    }
    for response in sample_responses() {
        let frame = render_response(&response);
        for cut in frame.char_indices().map(|(i, _)| i) {
            if let Err(e) = parse_response(&frame[..cut]) {
                assert_stable(&e.code, &format!("response cut at {cut}: {frame}"));
            }
        }
        parse_response(&frame).expect("full frame decodes");
    }
}

#[test]
fn oversized_frames_get_the_frame_too_large_code() {
    let line = format!("{}\nnext\n", "x".repeat(256));
    let mut reader = BufReader::new(line.as_bytes());
    let err = match read_frame(&mut reader, 64) {
        Err(e @ FrameReadError::TooLarge { .. }) => e,
        other => panic!("expected TooLarge, got {other:?}"),
    };
    assert_eq!(err.to_wire_error().code, "frame-too-large");
    assert!(
        error_frame(&err.to_wire_error()).contains("\"code\":\"frame-too-large\""),
        "error frame lost the code"
    );
}

#[test]
fn non_utf8_frames_are_rejected_and_the_stream_resyncs() {
    let bytes: &[u8] = b"\xff\xfe not text\n{\"v\":1,\"op\":\"status\"}\n";
    let mut reader = BufReader::new(bytes);
    match read_frame(&mut reader, 1024) {
        Err(FrameReadError::NotUtf8) => {}
        other => panic!("expected NotUtf8, got {other:?}"),
    }
    assert_eq!(FrameReadError::NotUtf8.to_wire_error().code, "bad-frame");
    // The reader resynchronised at the newline: the next frame decodes.
    let next = read_frame(&mut reader, 1024)
        .expect("next frame readable")
        .expect("next frame present");
    parse_request(&next).expect("next frame decodes");
}
