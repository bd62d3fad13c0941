//! JSONL file sink: one event per line, append-ordered.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::bus::TuningObserver;
use crate::event::TraceEvent;

/// Streams events to a file as JSON Lines.
///
/// Writes are buffered; the stream is flushed on [`TuningObserver::flush`]
/// and on drop. Write errors after a successful open are counted, not
/// propagated (telemetry must never fail a tuning run), and surfaced via
/// [`JsonlSink::write_errors`].
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    write_errors: std::sync::atomic::AtomicU64,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it. Parent
    /// directories are created as needed.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(file)),
            write_errors: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Number of writes and flushes that failed; non-zero means the
    /// trace lost events.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl TuningObserver for JsonlSink {
    fn on_event(&self, event: &TraceEvent) {
        // Ephemeral events (resumes, spans, worker-plane and overload
        // events; see `TraceEvent::is_ephemeral`) describe this process
        // or deployment, not the session: serialising them would fork a
        // resumed, distributed or spans-on trace from the plain one it
        // must match byte for byte.
        if event.is_ephemeral() {
            return;
        }
        // A panic on another observer thread poisons the lock but leaves
        // the writer usable; recover instead of panicking the caller.
        let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        let line = event.to_json();
        if writeln!(out, "{line}").is_err() {
            self.write_errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let flushed = self.out.lock().unwrap_or_else(|p| p.into_inner()).flush();
        if flushed.is_err() {
            self.write_errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        TuningObserver::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_one_line_per_event_and_creates_parents() {
        let dir = std::env::temp_dir().join(format!("jtune-jsonl-{}", std::process::id()));
        let path = dir.join("nested/trace.jsonl");
        let sink = JsonlSink::create(&path).expect("create");
        let e = TraceEvent::RoundProposed {
            round: 0,
            technique: "t".into(),
            candidates: 1,
        };
        sink.on_event(&e);
        sink.on_event(&e);
        sink.flush();
        let content = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(content.lines().count(), 2);
        for line in content.lines() {
            assert!(line.starts_with("{\"type\":\"RoundProposed\""));
        }
        assert_eq!(sink.write_errors(), 0);
        drop(sink);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_flush_counts_as_a_write_error() {
        let sink = JsonlSink::create("/dev/full").expect("open /dev/full");
        sink.on_event(&TraceEvent::CheckpointWritten {
            trials: 1,
            spent_secs: 1.0,
        });
        sink.flush();
        assert!(sink.write_errors() >= 1, "{}", sink.write_errors());
    }

    #[test]
    fn ephemeral_events_are_not_serialised() {
        let dir = std::env::temp_dir().join(format!("jtune-jsonl-eph-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let sink = JsonlSink::create(&path).expect("create");
        let ephemeral: Vec<TraceEvent> = crate::event::tests::every_variant()
            .into_iter()
            .filter(TraceEvent::is_ephemeral)
            .collect();
        for e in &ephemeral {
            sink.on_event(e);
        }
        sink.on_event(&TraceEvent::CheckpointWritten {
            trials: 5,
            spent_secs: 1.0,
        });
        sink.flush();
        let content = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(content.lines().count(), 1);
        assert!(content.contains("CheckpointWritten"));
        drop(sink);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
