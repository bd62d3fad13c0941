//! Socket-level hardening between the TCP stream and the frame codec:
//! bounded frame reads and seeded network-fault injection.
//!
//! Two independent layers live here:
//!
//! - [`read_frame`] — the bounded replacement for `BufRead::read_line`
//!   used by the daemon, the client and the worker. It never buffers
//!   more than the configured cap, so a peer streaming one giant line
//!   (accidentally or maliciously) costs bounded memory and gets the
//!   stable `frame-too-large` error code instead of an allocation storm.
//!   Non-UTF-8 frames are rejected with `bad-frame` before they reach
//!   the JSON parser.
//! - [`NetFaultPlan`] — the network sibling of
//!   [`jtune_harness::FaultPlan`]: a seeded, bit-reproducible schedule
//!   of frame drops, delays, garbles and disconnects, applied on the
//!   *write* side of a connection by [`ChaosWriter`]. Dropping an
//!   outbound frame at one end is indistinguishable from losing it in
//!   flight, so write-side injection exercises both peers' recovery
//!   paths without a bespoke proxy. An inactive plan (all rates zero,
//!   the default) is byte-invisible: every frame passes through
//!   untouched, keeping the byte-identical-trace contract intact.

use std::io::{self, BufRead, Write};

use jtune_util::cli::{self, Opt};
use jtune_util::{Rng, SplitMix64};

use crate::wire::WireError;

/// Default cap on one *inbound request* frame, in bytes (1 MiB).
/// Requests are small by construction — the largest carries one
/// configuration delta — so the default leaves orders of magnitude of
/// headroom while still bounding a hostile line aimed at the daemon.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Cap on a *reply payload* frame read by a client or worker (1 GiB).
/// Reply lines legitimately scale with session size — a long session's
/// record is one multi-megabyte JSON line — so the client-side bound
/// exists only to keep a hostile or impersonated daemon from streaming
/// an endless unterminated line, not to police honest payloads.
pub const PAYLOAD_MAX_FRAME: usize = 1 << 30;

/// Why a bounded frame read failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying socket read failed (includes read timeouts).
    Io(io::Error),
    /// The line exceeded the frame cap; `bytes` is how much of it was
    /// observed before the reader gave up (at least the cap).
    TooLarge {
        /// Bytes observed before the reject.
        bytes: usize,
        /// The cap that was exceeded.
        cap: usize,
    },
    /// The line was not valid UTF-8.
    NotUtf8,
}

impl FrameReadError {
    /// The stable wire error code for this failure.
    pub fn code(&self) -> &'static str {
        match self {
            FrameReadError::Io(_) => "io-error",
            FrameReadError::TooLarge { .. } => "frame-too-large",
            FrameReadError::NotUtf8 => "bad-frame",
        }
    }

    /// Convert into the structured wire error a reply frame carries.
    pub fn to_wire_error(&self) -> WireError {
        match self {
            FrameReadError::Io(e) => WireError::new("io-error", e.to_string()),
            FrameReadError::TooLarge { bytes, cap } => WireError::new(
                "frame-too-large",
                format!("frame exceeds the {cap}-byte cap ({bytes}+ bytes)"),
            ),
            FrameReadError::NotUtf8 => WireError::new("bad-frame", "frame is not valid UTF-8"),
        }
    }
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let e = self.to_wire_error();
        write!(f, "{}: {}", e.code, e.message)
    }
}

/// Read one newline-terminated frame, buffering at most `max_frame`
/// bytes. Returns `Ok(None)` at a clean EOF (connection closed between
/// frames). A final unterminated line at EOF is returned as a frame,
/// matching `BufRead::read_line` semantics. On [`FrameReadError::TooLarge`]
/// the stream is left mid-line; callers should reply with the
/// `frame-too-large` code and drop the connection, since frame
/// boundaries can no longer be trusted.
pub fn read_frame<R: BufRead>(
    reader: &mut R,
    max_frame: usize,
) -> Result<Option<String>, FrameReadError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (used, done) = {
            let chunk = match reader.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameReadError::Io(e)),
            };
            if chunk.is_empty() {
                (0, true)
            } else {
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        buf.extend_from_slice(&chunk[..pos]);
                        (pos + 1, true)
                    }
                    None => {
                        buf.extend_from_slice(chunk);
                        (chunk.len(), false)
                    }
                }
            }
        };
        reader.consume(used);
        if buf.len() > max_frame {
            return Err(FrameReadError::TooLarge {
                bytes: buf.len(),
                cap: max_frame,
            });
        }
        if done {
            if buf.is_empty() && used == 0 {
                return Ok(None);
            }
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            // A line longer than one read chunk grew by doubling; callers
            // may keep it (a session record), so drop the slack.
            buf.shrink_to_fit();
            return match String::from_utf8(buf) {
                Ok(s) => Ok(Some(s)),
                Err(_) => Err(FrameReadError::NotUtf8),
            };
        }
    }
}

/// One injected network fault, decided per outbound frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Deliver the frame untouched.
    None,
    /// Deliver the frame after sleeping this many milliseconds.
    DelayMs(u64),
    /// Deliver a corrupted copy of the frame (the peer sees a torn
    /// frame and answers `bad-frame`).
    Garble,
    /// Lose the frame and kill the connection (the peer sees EOF and
    /// its reconnect/retry path runs).
    Drop,
    /// Deliver the frame, then kill the connection.
    Disconnect,
}

/// A seeded network-chaos schedule, mirroring
/// [`jtune_harness::FaultPlan`]: which fault (if any) hits frame *n* of
/// connection *c* is a pure function of `(plan, c, n)`, so a chaos run
/// is bit-reproducible given the same connection ordering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetFaultPlan {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability a frame is dropped (connection killed with it).
    pub drop_rate: f64,
    /// Probability a frame is delayed.
    pub delay_rate: f64,
    /// Probability a frame is garbled in flight.
    pub garble_rate: f64,
    /// Probability the connection is killed after the frame.
    pub disconnect_rate: f64,
    /// Upper bound on one injected delay, milliseconds.
    pub max_delay_ms: u64,
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan::inactive()
    }
}

/// The chaos options `jtune serve` and `jtune worker` share; the seed
/// row reseeds the plan the rate row made, so it comes second.
#[rustfmt::skip]
pub const NET_FAULT_OPTIONS: &[Opt<NetFaultPlan>] = &[
    Opt::new("--net-fault-rate F", "off", "seeded frame drops, delays, garbles and disconnects on F of frames",
        |p, v| cli::number(v).map(|r| if r > 0.0 { *p = NetFaultPlan::chaotic(r, NetFaultPlan::DEFAULT_SEED) })),
    Opt::new("--net-fault-seed N", "50181", "reseed the --net-fault-rate schedule",
        |p, v| cli::int(v).map(|seed| if p.is_active() { p.seed = seed })),
];

impl NetFaultPlan {
    /// The seed `--net-fault-rate` uses unless `--net-fault-seed` says
    /// otherwise.
    pub const DEFAULT_SEED: u64 = 0xC4_05;

    /// The no-op plan: every frame passes through byte-identical.
    pub fn inactive() -> NetFaultPlan {
        NetFaultPlan {
            seed: 0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            garble_rate: 0.0,
            disconnect_rate: 0.0,
            max_delay_ms: 0,
        }
    }

    /// A mixed-chaos plan faulting roughly `rate` of all frames,
    /// split 30% drops, 30% delays, 20% garbles, 20% disconnects —
    /// the network analogue of [`jtune_harness::FaultPlan::transient`].
    pub fn chaotic(rate: f64, seed: u64) -> NetFaultPlan {
        let rate = rate.clamp(0.0, 1.0);
        NetFaultPlan {
            seed,
            drop_rate: rate * 0.3,
            delay_rate: rate * 0.3,
            garble_rate: rate * 0.2,
            disconnect_rate: rate * 0.2,
            max_delay_ms: 25,
        }
    }

    /// Does this plan ever fault a frame?
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.delay_rate > 0.0
            || self.garble_rate > 0.0
            || self.disconnect_rate > 0.0
    }

    /// The fault (if any) injected on frame `frame` of connection
    /// `conn`. Pure: same plan, connection and frame index always give
    /// the same fault (the [`SplitMix64::keyed`] roll that
    /// [`jtune_harness::FaultPlan::roll`] also uses).
    pub fn roll(&self, conn: u64, frame: u64) -> NetFault {
        if !self.is_active() {
            return NetFault::None;
        }
        let mut rng = SplitMix64::keyed(self.seed, conn, frame);
        let rates = [
            self.drop_rate,
            self.delay_rate,
            self.garble_rate,
            self.disconnect_rate,
        ];
        match rng.next_bucket(&rates) {
            Some(0) => NetFault::Drop,
            Some(1) => NetFault::DelayMs(1 + rng.next_u64() % self.max_delay_ms.max(1)),
            Some(2) => NetFault::Garble,
            Some(_) => NetFault::Disconnect,
            None => NetFault::None,
        }
    }
}

/// Frame-writing wrapper applying a [`NetFaultPlan`] between the codec
/// and the socket. With an inactive plan it writes each frame and its
/// newline in one write; with an active one, each outbound frame rolls
/// the schedule and may be delayed, garbled, dropped or followed by a
/// connection kill. Injected kills surface as `ConnectionAborted`
/// errors so callers take their ordinary dead-connection path.
#[derive(Debug)]
pub struct ChaosWriter<W: Write> {
    inner: W,
    plan: NetFaultPlan,
    conn: u64,
    frame: u64,
    killed: bool,
}

impl<W: Write> ChaosWriter<W> {
    /// Wrap `inner` as connection `conn` of `plan`'s schedule.
    pub fn new(inner: W, plan: NetFaultPlan, conn: u64) -> ChaosWriter<W> {
        ChaosWriter {
            inner,
            plan,
            conn,
            frame: 0,
            killed: false,
        }
    }

    /// The wrapped writer (for flushes or socket-level calls).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    fn injected_kill(&mut self, what: &str) -> io::Error {
        self.killed = true;
        io::Error::new(
            io::ErrorKind::ConnectionAborted,
            format!("injected network fault: {what}"),
        )
    }

    /// Write one frame (a line, newline appended) through the fault
    /// schedule. Every path hands the socket the whole frame in one
    /// `write_all`: two small writes on a TCP stream leave as two
    /// segments, and the second one waits out the peer's delayed ACK.
    pub fn write_frame(&mut self, line: &str) -> io::Result<()> {
        if self.killed {
            return Err(self.injected_kill("connection already killed"));
        }
        let fault = self.plan.roll(self.conn, self.frame);
        self.frame += 1;
        match fault {
            NetFault::Drop => return Err(self.injected_kill("frame dropped")),
            NetFault::DelayMs(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            NetFault::None | NetFault::Garble | NetFault::Disconnect => {}
        }
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        if fault == NetFault::Garble {
            // Corrupt the frame but keep it one line: flip a byte in the
            // middle to break the JSON without hiding the tear.
            let mid = frame.len() / 2;
            if let Some(b) = frame.get_mut(mid) {
                *b = if *b == b'!' { b'?' } else { b'!' };
            }
            frame.retain(|&b| b != b'\n');
        }
        frame.push(b'\n');
        self.inner.write_all(&frame)?;
        if fault == NetFault::Disconnect {
            let _ = self.inner.flush();
            return Err(self.injected_kill("disconnect after frame"));
        }
        Ok(())
    }

    /// Flush the wrapped writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn frame_from(bytes: &[u8], cap: usize) -> Result<Option<String>, FrameReadError> {
        read_frame(&mut BufReader::with_capacity(8, bytes), cap)
    }

    #[test]
    fn reads_frames_like_read_line_but_bounded() {
        let mut r = BufReader::with_capacity(8, &b"{\"v\":1}\nsecond line\npartial"[..]);
        assert_eq!(
            read_frame(&mut r, 64).unwrap().as_deref(),
            Some("{\"v\":1}")
        );
        assert_eq!(
            read_frame(&mut r, 64).unwrap().as_deref(),
            Some("second line")
        );
        // A final unterminated line still parses (read_line semantics).
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some("partial"));
        assert_eq!(read_frame(&mut r, 64).unwrap(), None);
    }

    #[test]
    fn oversized_frames_fail_without_unbounded_buffering() {
        let big = vec![b'x'; 1024];
        match frame_from(&big, 100) {
            Err(FrameReadError::TooLarge { bytes, cap }) => {
                assert_eq!(cap, 100);
                // The reader gave up near the cap, not at the full line:
                // memory stays bounded however long the line runs.
                assert!(bytes <= 100 + 8 + 1, "buffered {bytes} bytes");
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(frame_from(&big, 100).unwrap_err().code(), "frame-too-large");
    }

    #[test]
    fn exact_cap_frames_pass() {
        let mut line = vec![b'y'; 100];
        line.push(b'\n');
        let want = "y".repeat(100);
        assert_eq!(
            frame_from(&line, 100).unwrap().as_deref(),
            Some(want.as_str())
        );
    }

    #[test]
    fn non_utf8_frames_are_bad_frames() {
        let err = frame_from(&[0xFF, 0xFE, b'\n'], 64).unwrap_err();
        assert!(matches!(err, FrameReadError::NotUtf8));
        assert_eq!(err.code(), "bad-frame");
        assert_eq!(err.to_wire_error().code, "bad-frame");
    }

    #[test]
    fn crlf_line_endings_are_trimmed() {
        assert_eq!(
            frame_from(b"{\"v\":1}\r\n", 64).unwrap().as_deref(),
            Some("{\"v\":1}")
        );
    }

    #[test]
    fn fault_plan_is_pure_and_inactive_by_default() {
        let off = NetFaultPlan::inactive();
        assert!(!off.is_active());
        for frame in 0..100 {
            assert_eq!(off.roll(1, frame), NetFault::None);
        }
        let plan = NetFaultPlan::chaotic(0.5, 42);
        assert!(plan.is_active());
        let a: Vec<NetFault> = (0..200).map(|f| plan.roll(3, f)).collect();
        let b: Vec<NetFault> = (0..200).map(|f| plan.roll(3, f)).collect();
        assert_eq!(a, b, "schedule must be a pure function");
        // The mix covers every fault kind at a 50% aggregate rate.
        assert!(a.contains(&NetFault::Drop));
        assert!(a.contains(&NetFault::Garble));
        assert!(a.contains(&NetFault::Disconnect));
        assert!(a.iter().any(|f| matches!(f, NetFault::DelayMs(_))));
        assert!(a.contains(&NetFault::None));
        // Different connections draw different schedules.
        let c: Vec<NetFault> = (0..200).map(|f| plan.roll(4, f)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn chaos_writer_with_inactive_plan_is_byte_transparent() {
        let mut out = Vec::new();
        let mut w = ChaosWriter::new(&mut out, NetFaultPlan::inactive(), 7);
        w.write_frame("{\"v\":1,\"ok\":true}").unwrap();
        w.write_frame("{\"v\":1,\"sid\":2}").unwrap();
        assert_eq!(out, b"{\"v\":1,\"ok\":true}\n{\"v\":1,\"sid\":2}\n");
    }

    /// A sink that counts `write` calls: each one is a `send()` on a
    /// socket, and so a TCP segment of its own.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_leaves_in_one_write() {
        let plans = [
            ("no fault", NetFaultPlan::inactive()),
            (
                "delay",
                NetFaultPlan {
                    seed: 1,
                    delay_rate: 1.0,
                    max_delay_ms: 1,
                    ..NetFaultPlan::inactive()
                },
            ),
            (
                "garble",
                NetFaultPlan {
                    seed: 1,
                    garble_rate: 1.0,
                    ..NetFaultPlan::inactive()
                },
            ),
        ];
        for (path, plan) in plans {
            let mut w = ChaosWriter::new(CountingWriter::default(), plan, 0);
            for frame in 1..=3 {
                w.write_frame("{\"v\":1,\"ok\":true}").unwrap();
                let sink = w.get_mut();
                assert_eq!(sink.writes, frame, "{path}: one write per frame");
                assert_eq!(sink.bytes.iter().filter(|&&b| b == b'\n').count(), frame);
                assert_eq!(sink.bytes.last(), Some(&b'\n'), "{path}");
            }
        }
    }

    #[test]
    fn chaos_writer_injects_faults_and_stays_dead_after_a_kill() {
        // A plan that always drops: the first write dies, and the
        // writer refuses further frames like a closed socket would.
        let plan = NetFaultPlan {
            seed: 1,
            drop_rate: 1.0,
            ..NetFaultPlan::inactive()
        };
        let mut out = Vec::new();
        let mut w = ChaosWriter::new(&mut out, plan, 0);
        let err = w.write_frame("{\"v\":1}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        assert!(w.write_frame("{\"v\":1}").is_err());
        assert!(out.is_empty(), "dropped frames never reach the wire");

        // A plan that always garbles: the frame arrives as one torn
        // line that no longer parses as the original bytes.
        let plan = NetFaultPlan {
            seed: 1,
            garble_rate: 1.0,
            ..NetFaultPlan::inactive()
        };
        let mut out = Vec::new();
        let mut w = ChaosWriter::new(&mut out, plan, 0);
        w.write_frame("{\"v\":1,\"ok\":true}").unwrap();
        let line = String::from_utf8(out).unwrap();
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        assert_ne!(line, "{\"v\":1,\"ok\":true}\n");
    }
}
