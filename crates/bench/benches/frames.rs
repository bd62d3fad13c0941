//! Frame-transport micro-benchmarks: the per-frame cost of the bounded
//! reader and the chaos-capable writer every daemon connection now pays.
//!
//! Three groups, matching the overload-hardening layers:
//!
//! - `read/*` — [`read_frame`]'s bounded line reads: canonical frames
//!   under the default 1 MiB cap, large-but-legal frames near a small
//!   cap, and the rejection cost of an oversized line (the slow path a
//!   hostile peer pays, which must not be quadratic).
//! - `write/*` — [`ChaosWriter`] with an inactive plan (the production
//!   configuration: the transparent wrapper must cost no more than a
//!   plain write) and with an active seeded plan.
//! - `plan/*` — [`NetFaultPlan::roll`], the pure per-frame fault
//!   decision on every chaotic read and write.
//!
//! `cargo bench -p jtune-bench --bench frames -- --json PATH` snapshots
//! the results (the committed `BENCH_8.json`).

use std::hint::black_box;
use std::io::BufReader;

use jtune_server::wire::{render_request, render_response};
use jtune_server::{read_frame, ChaosWriter, FrameReadError, NetFaultPlan, Request, Response};

/// 1 MiB — mirrors `jtune_server::net::DEFAULT_MAX_FRAME`.
const DEFAULT_CAP: usize = 1 << 20;

/// A buffer of `n` canonical frames: the request/response mix one
/// worker-plane exchange produces, repeated.
fn frame_buffer(n: usize) -> Vec<u8> {
    let lines = [
        render_request(&Request::Lease {
            wid: 7,
            wait_ms: 500,
        }),
        render_request(&Request::Status { sid: None }),
        render_response(&Response::LeaseAck { lease: 9 }),
        render_response(&Response::Idle { draining: false }),
    ];
    let mut out = Vec::new();
    for i in 0..n {
        out.extend_from_slice(lines[i % lines.len()].as_bytes());
        out.push(b'\n');
    }
    out
}

/// Bounded frame reads under the size cap.
fn read(h: &jtune_bench::BenchHarness) {
    const FRAMES: usize = 4_000;
    let canonical = frame_buffer(FRAMES);
    h.bench("read/canonical_4k_default_cap", 30, || {
        let mut reader = BufReader::new(canonical.as_slice());
        let mut frames = 0usize;
        while let Some(line) = read_frame(&mut reader, DEFAULT_CAP).expect("canonical frame reads")
        {
            frames += black_box(line).len().min(1);
        }
        assert_eq!(frames, FRAMES);
        frames
    });

    // Frames sized just under a tight cap: the reader must pay the cap
    // check without copying the line twice.
    let near_cap: Vec<u8> = {
        let line = format!(
            "{{\"v\":1,\"op\":\"status\",\"pad\":\"{}\"}}\n",
            "x".repeat(900)
        );
        line.into_bytes().repeat(1_000)
    };
    h.bench("read/near_cap_1k", 30, || {
        let mut reader = BufReader::new(near_cap.as_slice());
        let mut frames = 0usize;
        while let Some(line) = read_frame(&mut reader, 1_024).expect("near-cap frame reads") {
            frames += black_box(line).len().min(1);
        }
        assert_eq!(frames, 1_000);
        frames
    });

    // The hostile path: a 4 MiB line against the default cap. The read
    // must fail fast with `TooLarge` — cost bounded by the cap, not the
    // line — and repeating it 8 times keeps the pass measurable.
    let hostile: Vec<u8> = {
        let mut line = vec![b'x'; 4 << 20];
        line.push(b'\n');
        line
    };
    h.bench("read/oversized_4m_rejected_x8", 30, || {
        let mut rejections = 0usize;
        for _ in 0..8 {
            let mut reader = BufReader::new(hostile.as_slice());
            match read_frame(&mut reader, DEFAULT_CAP) {
                Err(FrameReadError::TooLarge { .. }) => rejections += 1,
                other => panic!("expected TooLarge, got {other:?}"),
            }
        }
        assert_eq!(rejections, 8);
        rejections
    });
}

/// Frame writes through the chaos-capable writer.
fn write(h: &jtune_bench::BenchHarness) {
    const FRAMES: u64 = 4_000;
    let line = render_request(&Request::Lease {
        wid: 7,
        wait_ms: 500,
    });

    // The production path: inactive plan, every frame byte-transparent.
    h.bench("write/inactive_plan_4k", 30, || {
        let mut sink = Vec::with_capacity((line.len() + 1) * FRAMES as usize);
        let mut writer = ChaosWriter::new(&mut sink, NetFaultPlan::inactive(), 1);
        for _ in 0..FRAMES {
            writer.write_frame(black_box(&line)).expect("clean write");
        }
        sink.len()
    });

    // An active garble-only plan: pure roll + corruption cost. Delays
    // would put wall-clock sleeps inside the timing loop, and drops or
    // disconnects would kill the writer mid-pass.
    let mut plan = NetFaultPlan::chaotic(0.2, 0xBE7C4);
    plan.delay_rate = 0.0;
    plan.drop_rate = 0.0;
    plan.disconnect_rate = 0.0;
    plan.garble_rate = 0.2;
    h.bench("write/chaotic_plan_4k", 30, || {
        let mut sink = Vec::with_capacity((line.len() + 1) * FRAMES as usize);
        let mut writer = ChaosWriter::new(&mut sink, plan, 1);
        for _ in 0..FRAMES {
            writer
                .write_frame(black_box(&line))
                .expect("no kills in plan");
        }
        sink.len()
    });
}

/// The pure per-frame fault decision.
fn plan(h: &jtune_bench::BenchHarness) {
    const ROLLS: u64 = 100_000;
    let chaotic = NetFaultPlan::chaotic(0.2, 0x5EED);
    h.bench("plan/roll_100k", 30, || {
        let mut faults = 0usize;
        for frame in 0..ROLLS {
            if !matches!(
                chaotic.roll(black_box(frame % 16), black_box(frame)),
                jtune_server::NetFault::None
            ) {
                faults += 1;
            }
        }
        faults
    });
}

fn main() {
    let h = jtune_bench::BenchHarness::from_args();
    read(&h);
    write(&h);
    plan(&h);
    h.finish("frames");
}
