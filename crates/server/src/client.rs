//! Blocking TCP client for the daemon's JSONL protocol.
//!
//! One [`Client`] wraps one connection; each helper sends a request
//! frame and decodes the reply through the shared typed path
//! ([`wire::parse_response`]). Server-side errors surface as
//! [`WireError`]s carrying the server's stable code verbatim — an
//! `overloaded` rejection arrives as `code == "overloaded"` with its
//! `retry_after_ms` hint intact, not folded into the message text.
//!
//! Reads are bounded by [`net::PAYLOAD_MAX_FRAME`] — generous, because
//! reply lines legitimately scale with session size (a long session's
//! record is one multi-megabyte JSON line), but still finite so a
//! misbehaving (or impersonated) daemon cannot make a client buffer an
//! endless unterminated line. The strict 1 MiB request cap is the
//! daemon's; see [`net::DEFAULT_MAX_FRAME`].
//! [`with_retries`] layers jittered exponential backoff on top:
//! `overloaded` rejections and connection failures are always retried,
//! mid-flight I/O errors only when the caller marks the operation
//! idempotent (a `submit` cut off after the frame was sent may have
//! been admitted — blind resubmission would duplicate the session).

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use jtune_harness::BackoffPolicy;
use jtune_util::json::JsonValue;

use crate::net::{self, ChaosWriter, FrameReadError, NetFaultPlan};
use crate::session::SessionSpec;
use crate::wire::{self, Request, Response, WireError};

/// A blocking connection to a tuning daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: ChaosWriter<TcpStream>,
    /// Set by [`with_retries`] on a retry attempt: spliced into the next
    /// outbound frame so the daemon can count retry pressure.
    retry_tag: Option<(u64, u64)>,
}

impl Client {
    /// Connect to a daemon at `addr` (e.g. `127.0.0.1:7171`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_chaotic(addr, NetFaultPlan::inactive(), 0)
    }

    /// Connect with a seeded network-fault plan applied to this
    /// connection's outbound frames (chaos testing); `conn` indexes the
    /// connection into the plan's schedule. An inactive plan makes this
    /// identical to [`Client::connect`].
    pub fn connect_chaotic(
        addr: impl ToSocketAddrs,
        plan: NetFaultPlan,
        conn: u64,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Frames are strictly request/reply: Nagle would hold each one
        // back waiting for the ACK of the last.
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: ChaosWriter::new(stream, plan, conn),
            retry_tag: None,
        })
    }

    /// Apply read/write deadlines to this connection; a daemon that
    /// stalls mid-reply then surfaces as an `io-error` instead of
    /// hanging the caller forever.
    pub fn set_io_timeout(&mut self, timeout: std::time::Duration) -> std::io::Result<()> {
        let stream = self.writer.get_mut();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))
    }

    fn read_line(&mut self) -> Result<String, WireError> {
        match net::read_frame(&mut self.reader, net::PAYLOAD_MAX_FRAME) {
            Ok(Some(line)) => Ok(line),
            Ok(None) => Err(WireError::new(
                "io-error",
                "server closed the connection".to_string(),
            )),
            Err(FrameReadError::Io(e)) => {
                Err(WireError::new("io-error", format!("read failed: {e}")))
            }
            Err(e) => Err(e.to_wire_error()),
        }
    }

    fn write_request(&mut self, request: &Request) -> Result<(), WireError> {
        let mut frame = wire::render_request(request);
        if let Some((attempt, delay_ms)) = self.retry_tag.take() {
            frame = wire::tag_retry(&frame, attempt, delay_ms);
        }
        self.writer
            .write_frame(&frame)
            .map_err(|e| WireError::new("io-error", format!("write failed: {e}")))
    }

    /// Send a request and decode the typed reply; server errors come
    /// back as `Err` with the server's stable code.
    pub fn request(&mut self, request: &Request) -> Result<Response, WireError> {
        self.write_request(request)?;
        wire::parse_response(&self.read_line()?)
    }

    /// Send a request and return the raw ok-frame line verbatim (for
    /// byte-exact printing of `status`/`stats` payloads); server errors
    /// come back as `Err`.
    pub fn round_trip_raw(&mut self, request: &Request) -> Result<String, WireError> {
        self.write_request(request)?;
        let line = self.read_line()?;
        wire::parse_response(&line)?;
        Ok(line)
    }

    /// Send a request and return the parsed ok frame; server errors
    /// come back as `Err`.
    pub fn round_trip(&mut self, request: &Request) -> Result<JsonValue, WireError> {
        self.write_request(request)?;
        wire::parse_reply(&self.read_line()?)
    }

    /// Submit a session; returns its ID.
    pub fn submit(&mut self, spec: SessionSpec) -> Result<u64, WireError> {
        match self.request(&Request::Submit(spec))? {
            Response::Sid { sid } => Ok(sid),
            other => Err(unexpected("submit", &other)),
        }
    }

    /// Fetch status (all sessions, or one); returns the ok frame, whose
    /// `sessions` field is an array of per-session objects.
    pub fn status(&mut self, sid: Option<u64>) -> Result<JsonValue, WireError> {
        self.round_trip(&Request::Status { sid })
    }

    /// Fetch a completed session's record: the raw JSON line, byte-equal
    /// to one-shot `jtune tune ... --json` output for the same spec.
    pub fn result(&mut self, sid: u64) -> Result<String, WireError> {
        match self.request(&Request::Result { sid })? {
            Response::RecordFollows => self.read_line(),
            other => Err(unexpected("result", &other)),
        }
    }

    /// Cancel a session.
    pub fn cancel(&mut self, sid: u64) -> Result<(), WireError> {
        match self.request(&Request::Cancel { sid })? {
            Response::Sid { .. } => Ok(()),
            other => Err(unexpected("cancel", &other)),
        }
    }

    /// Fetch aggregated metrics (all sessions, or one): the ok frame's
    /// `sessions` array carries one row per session with its counters
    /// and wall histograms, and `server` carries the daemon's own
    /// frame-handling histogram.
    pub fn stats(&mut self, sid: Option<u64>) -> Result<JsonValue, WireError> {
        self.round_trip(&Request::Stats { sid })
    }

    /// Stop the daemon; `drain` checkpoints in-flight sessions first.
    pub fn shutdown(&mut self, drain: bool) -> Result<(), WireError> {
        match self.request(&Request::Shutdown { drain })? {
            Response::ShuttingDown { .. } => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }

    /// Watch a session's live trace: `on_event` receives each raw event
    /// JSON line until the session ends (the done frame). Returns the
    /// number of events streamed.
    pub fn watch(&mut self, sid: u64, mut on_event: impl FnMut(&str)) -> Result<u64, WireError> {
        match self.request(&Request::Watch { sid })? {
            Response::Sid { .. } => {}
            other => return Err(unexpected("watch", &other)),
        }
        let mut count = 0u64;
        loop {
            let line = self.read_line()?;
            match wire::unwrap_watch_event(&line) {
                Some(event) => {
                    on_event(event);
                    count += 1;
                }
                None => {
                    // Anything that is not an event line must be the
                    // done frame (or a server error).
                    wire::parse_response(&line)?;
                    return Ok(count);
                }
            }
        }
    }
}

/// Is this failure worth a fresh connection and another try?
///
/// `overloaded` always is — the daemon explicitly asked us to come back,
/// and its `retry_after_ms` hint rides along in the error. A connection
/// failure always is: nothing was sent, so retrying cannot duplicate
/// anything. A mid-flight `io-error` is retried only for idempotent
/// operations — a `submit` whose connection died after the frame left
/// may already be running server-side.
fn retryable(error: &WireError, idempotent: bool) -> bool {
    match error.code.as_str() {
        "overloaded" => true,
        "connect-error" => true,
        "io-error" => idempotent,
        _ => false,
    }
}

/// Run `op` against a fresh connection, retrying per `policy` on
/// retryable failures (see `retryable`). Each retry waits the
/// policy's jittered exponential backoff, floored by the server's
/// `retry_after_ms` hint when one came back; retried requests carry a
/// retry tag so the daemon's `clients_retried` counter sees them. A
/// progress note per retry goes to stderr (stdout stays parseable).
pub fn with_retries<T>(
    addr: &str,
    policy: &BackoffPolicy,
    idempotent: bool,
    mut op: impl FnMut(&mut Client) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut attempt: u32 = 0;
    let mut last_delay: u64 = 0;
    loop {
        let outcome = match Client::connect(addr) {
            Ok(mut client) => {
                if attempt > 0 {
                    // Tag the first frame of a retry attempt with the
                    // backoff we just served, for daemon-side counters.
                    client.retry_tag = Some((attempt as u64, last_delay));
                }
                op(&mut client)
            }
            Err(e) => Err(WireError::new(
                "connect-error",
                format!("cannot connect to {addr}: {e}"),
            )),
        };
        match outcome {
            Ok(value) => return Ok(value),
            Err(e) => {
                if !retryable(&e, idempotent) || !policy.retry.allows(attempt) {
                    return Err(e);
                }
                let delay = policy.delay_ms(attempt, e.retry_after_ms);
                last_delay = delay;
                eprintln!(
                    "jtune client: attempt {} failed ({}); retrying in {delay} ms",
                    attempt + 1,
                    e.code
                );
                std::thread::sleep(std::time::Duration::from_millis(delay));
                attempt += 1;
            }
        }
    }
}

fn unexpected(op: &str, response: &Response) -> WireError {
    WireError::new("bad-frame", format!("unexpected {op} reply: {response:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connected_clients_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.writer.get_mut().nodelay().unwrap());
    }
}
