//! The crash-safe trial journal: write-ahead logging and replay.
//!
//! A tuning session is a pure function of its seed, so the only state a
//! crash can destroy is the *measurements already paid for*. The journal
//! records exactly those: one JSONL line per completed evaluation, in
//! measurement (slot) order, flushed before the result is acted on —
//! write-ahead semantics. On resume the tuner re-drives the whole
//! deterministic loop and a [`ReplayLog`] serves each evaluation from the
//! journal instead of the executor, so budget, cache, RNG and technique
//! state reconstruct themselves and the resumed session's trace is
//! byte-identical to an uninterrupted run.
//!
//! Two robustness properties:
//!
//! - **Torn tails are expected.** A session killed mid-write leaves a
//!   truncated last line; [`load`] stops there and replays the complete
//!   prefix. Nothing else in the file can be torn because every record is
//!   flushed whole.
//! - **Divergence stops replay, never corrupts it.** The header pins the
//!   session identity (program, executor description — which embeds any
//!   fault plan — seed, budget, options signature); a mismatch refuses to
//!   resume. If the stream still diverges mid-replay (a changed binary),
//!   [`ReplayLog::next_for`] switches to live measurement rather than
//!   serving a wrong result.
//!
//! The two line formats, [`SessionHeader`] and [`TrialLine`], are
//! declared as rows ([`jtune_util::rows`]); readers ignore keys a row
//! does not declare. Durations are stored as exact nanosecond integers:
//! `SimDuration`'s seconds round-trip is lossy, and a single ulp would
//! fork the trace.

use std::collections::VecDeque;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use jtune_util::json_rows;
use jtune_util::rows;
use jtune_util::SimDuration;

use crate::error::TrialError;
use crate::executor::RunCounters;
use crate::protocol::{Evaluation, RaceAbort, RetryRecord};

json_rows! {
    /// Identity of the session a journal belongs to: the journal's first
    /// line. All fields must match for a resume to be accepted.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SessionHeader: lenient ["type" = "JournalHeader", "version" = 1] {
        /// Workload / program label.
        pub program: String,
        /// `Executor::describe()` of the session's executor (embeds the
        /// fault plan when one is active).
        pub executor: String,
        /// The session master seed.
        pub seed: u64,
        /// Total tuning budget, exact nanoseconds.
        pub budget_nanos: u64,
        /// Canonical rendering of every option that affects the trial
        /// stream (worker count excluded: it never changes results).
        pub signature: String,
    }
}

json_rows! {
    /// One journaled evaluation: every line after the header. Durations
    /// are nanoseconds; `counters`, `raced` and each of `retries` are
    /// nested objects.
    #[derive(Clone, Debug, PartialEq)]
    pub struct TrialLine: lenient ["type" = "Trial"] {
        fp: u64,
        score: Option<u64> => OrNull,
        samples: Vec<u64>,
        cost: u64,
        runs: u64,
        retried: u64,
        error_kind: Option<String> => OrNull,
        error: Option<String> => OrNull,
        counters: Option<CountersLine> => OrNull,
        raced: Option<RaceLine> => OrNull,
        retries: Vec<RetryLine>,
    }
}

json_rows! {
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct CountersLine: lenient { gc_pause: u64, gc_n: u64, jit_time: u64, jit_n: u64 }
}

json_rows! {
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct RaceLine: lenient { after_runs: u64, p_value: f64, effect: f64, saved: u64 }
}

json_rows! {
    #[derive(Clone, Debug, PartialEq)]
    struct RetryLine: lenient { rep: u64, attempt: u64, kind: String, msg: String, cost: u64 }
}

impl TrialLine {
    /// The journal line of one completed evaluation.
    pub fn new(fingerprint: u64, ev: &Evaluation) -> TrialLine {
        TrialLine {
            fp: fingerprint,
            score: ev.score.map(SimDuration::as_nanos),
            samples: ev.samples.iter().map(|s| s.as_nanos()).collect(),
            cost: ev.cost.as_nanos(),
            runs: ev.runs.into(),
            retried: ev.retried.into(),
            error_kind: ev.error.as_ref().map(|e| e.kind().to_string()),
            error: ev.error.as_ref().map(|e| e.message().to_string()),
            counters: ev.counters.map(|c| CountersLine {
                gc_pause: c.gc_pause_total.as_nanos(),
                gc_n: c.gc_collections,
                jit_time: c.jit_compile_time.as_nanos(),
                jit_n: c.jit_compiles,
            }),
            raced: ev.raced.map(|r| RaceLine {
                after_runs: r.after_runs.into(),
                p_value: r.p_value,
                effect: r.effect,
                saved: r.saved.as_nanos(),
            }),
            retries: ev
                .retry_log
                .iter()
                .map(|r| RetryLine {
                    rep: r.rep.into(),
                    attempt: r.attempt.into(),
                    kind: r.error.kind().to_string(),
                    msg: r.error.message().to_string(),
                    cost: r.cost.as_nanos(),
                })
                .collect(),
        }
    }

    /// The fingerprint and evaluation this line journals. An error needs
    /// both its kind and its message; an unknown kind reads back as a
    /// crash.
    pub fn into_entry(self) -> (u64, Evaluation) {
        let nanos = SimDuration::from_nanos;
        let error_from = |kind: &str, msg: &str| {
            TrialError::from_kind(kind, msg).unwrap_or_else(|| TrialError::Crash(msg.to_string()))
        };
        let evaluation = Evaluation {
            score: self.score.map(nanos),
            samples: self.samples.into_iter().map(nanos).collect(),
            error: match (self.error_kind, self.error) {
                (Some(kind), Some(msg)) => Some(error_from(&kind, &msg)),
                _ => None,
            },
            cost: nanos(self.cost),
            counters: self.counters.map(|c| RunCounters {
                gc_pause_total: nanos(c.gc_pause),
                gc_collections: c.gc_n,
                jit_compile_time: nanos(c.jit_time),
                jit_compiles: c.jit_n,
            }),
            runs: self.runs as u32,
            raced: self.raced.map(|r| RaceAbort {
                after_runs: r.after_runs as u32,
                p_value: r.p_value,
                effect: r.effect,
                saved: nanos(r.saved),
            }),
            retried: self.retried as u32,
            retry_log: self
                .retries
                .into_iter()
                .map(|r| RetryRecord {
                    rep: r.rep as u32,
                    attempt: r.attempt as u32,
                    error: error_from(&r.kind, &r.msg),
                    cost: nanos(r.cost),
                })
                .collect(),
        };
        (self.fp, evaluation)
    }
}

/// Journal I/O or format failure.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file is not a journal, or its header is unreadable.
    Malformed(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Malformed(m) => write!(f, "malformed journal: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Write-ahead journal writer: truncates, writes the header, then one
/// flushed line per recorded trial.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<std::fs::File>,
    path: PathBuf,
    trials: u64,
}

impl JournalWriter {
    /// Create (or overwrite) the journal at `path`, writing the header
    /// eagerly so even a zero-trial journal identifies its session.
    pub fn create(path: impl Into<PathBuf>, header: &SessionHeader) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(&path)?;
        let mut writer = JournalWriter {
            out: BufWriter::new(file),
            path,
            trials: 0,
        };
        writer.write_line(&rows::encode(header))?;
        Ok(writer)
    }

    /// Append one completed evaluation, flushed to the OS before
    /// returning — the write-ahead guarantee.
    pub fn record(&mut self, fingerprint: u64, evaluation: &Evaluation) -> std::io::Result<()> {
        self.write_line(&rows::encode(&TrialLine::new(fingerprint, evaluation)))?;
        self.trials += 1;
        Ok(())
    }

    /// Trials recorded so far (excluding the header).
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }
}

/// Load a journal: the header plus every complete trial record, in
/// write order. A torn or corrupt *trailing* line (the signature of a
/// crash mid-write) is discarded; corruption anywhere else is an error.
pub fn load(
    path: impl AsRef<Path>,
) -> Result<(SessionHeader, Vec<(u64, Evaluation)>), JournalError> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| JournalError::Malformed("empty file".to_string()))?;
    let header =
        rows::decode(header_line).map_err(|e| JournalError::Malformed(format!("header: {e}")))?;
    let mut trials = Vec::new();
    let mut rest = lines.peekable();
    while let Some(line) = rest.next() {
        match rows::decode::<TrialLine>(line) {
            Ok(trial) => trials.push(trial.into_entry()),
            Err(e) if rest.peek().is_none() => {
                // Torn tail from a mid-write crash: replay the prefix.
                let _ = e;
                break;
            }
            Err(e) => return Err(JournalError::Malformed(format!("line: {e}"))),
        }
    }
    Ok((header, trials))
}

/// Compact the journal at `path` in place: load it (discarding any torn
/// trailing line) and rewrite it as exactly one header plus the complete
/// trial records — the same bytes [`JournalWriter`] would have produced
/// for an uninterrupted session. The rewrite goes through a sibling temp
/// file and an atomic rename, so a crash mid-compaction leaves either
/// the old journal or the new one, never a hybrid.
///
/// Returns what [`load`] would: the header and the surviving trials, so
/// a resuming session can compact and replay with a single read.
pub fn compact(
    path: impl AsRef<Path>,
) -> Result<(SessionHeader, Vec<(u64, Evaluation)>), JournalError> {
    let path = path.as_ref();
    let (header, trials) = load(path)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".compact");
    let tmp = PathBuf::from(tmp);
    {
        let mut writer = JournalWriter::create(&tmp, &header)?;
        for (fingerprint, evaluation) in &trials {
            writer.record(*fingerprint, evaluation)?;
        }
    }
    std::fs::rename(&tmp, path)?;
    Ok((header, trials))
}

/// Completed trials queued for replay, consumed in journal order.
#[derive(Debug, Default)]
pub struct ReplayLog {
    entries: VecDeque<(u64, Evaluation)>,
    served: u64,
    diverged: bool,
}

impl ReplayLog {
    /// Queue `entries` (from [`load`]) for replay.
    pub fn new(entries: Vec<(u64, Evaluation)>) -> ReplayLog {
        ReplayLog {
            entries: entries.into(),
            served: 0,
            diverged: false,
        }
    }

    /// Serve the next journaled evaluation if it belongs to
    /// `fingerprint`. A mismatch means the live session diverged from
    /// the journaled one; replay stops for good and every later trial
    /// is measured live.
    pub fn next_for(&mut self, fingerprint: u64) -> Option<Evaluation> {
        if self.diverged {
            return None;
        }
        match self.entries.front() {
            Some((fp, _)) if *fp == fingerprint => {
                self.served += 1;
                self.entries.pop_front().map(|(_, ev)| ev)
            }
            Some(_) => {
                self.diverged = true;
                None
            }
            None => None,
        }
    }

    /// Evaluations served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Evaluations still queued.
    pub fn remaining(&self) -> usize {
        self.entries.len()
    }

    /// Did replay hit a fingerprint mismatch?
    pub fn diverged(&self) -> bool {
        self.diverged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SessionHeader {
        SessionHeader {
            program: "spec.compress".to_string(),
            executor: "sim:spec.compress".to_string(),
            seed: 42,
            budget_nanos: 12_000_000_000_000,
            signature: "v1 seed=42 batch=4".to_string(),
        }
    }

    fn rich_eval() -> Evaluation {
        Evaluation {
            score: Some(SimDuration::from_nanos(5_000_000_001)),
            samples: vec![
                SimDuration::from_nanos(4_999_999_999),
                SimDuration::from_nanos(5_000_000_001),
                SimDuration::from_nanos(5_000_000_003),
            ],
            error: None,
            cost: SimDuration::from_nanos(16_500_000_021),
            counters: Some(RunCounters {
                gc_pause_total: SimDuration::from_nanos(123_456_789),
                gc_collections: 17,
                jit_compile_time: SimDuration::from_nanos(987_654_321),
                jit_compiles: 250,
            }),
            runs: 3,
            raced: None,
            retried: 1,
            retry_log: vec![RetryRecord {
                rep: 1,
                attempt: 0,
                error: TrialError::Timeout("injected hang: run timed out after 2m".to_string()),
                cost: SimDuration::from_nanos(120_000_000_000),
            }],
        }
    }

    fn failed_eval() -> Evaluation {
        Evaluation {
            score: None,
            samples: vec![SimDuration::from_nanos(7)],
            error: Some(TrialError::Oom("java.lang.OutOfMemoryError".to_string())),
            cost: SimDuration::from_nanos(99),
            counters: None,
            runs: 2,
            raced: Some(RaceAbort {
                after_runs: 1,
                p_value: 0.1234567890123,
                effect: 2.0 / 3.0,
                saved: SimDuration::from_nanos(31),
            }),
            retried: 0,
            retry_log: Vec::new(),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("jtune-journal-{}-{name}", std::process::id()))
    }

    /// The exact journal lines: the header, then [`rich_eval`] and
    /// [`failed_eval`] as trials.
    const EXPECTED_LINES: [&str; 3] = [
        r#"{"type":"JournalHeader","version":1,"program":"spec.compress","executor":"sim:spec.compress","seed":42,"budget_nanos":12000000000000,"signature":"v1 seed=42 batch=4"}"#,
        r#"{"type":"Trial","fp":16045690984833335023,"score":5000000001,"samples":[4999999999,5000000001,5000000003],"cost":16500000021,"runs":3,"retried":1,"error_kind":null,"error":null,"counters":{"gc_pause":123456789,"gc_n":17,"jit_time":987654321,"jit_n":250},"raced":null,"retries":[{"rep":1,"attempt":0,"kind":"timeout","msg":"injected hang: run timed out after 2m","cost":120000000000}]}"#,
        r#"{"type":"Trial","fp":7,"score":null,"samples":[7],"cost":99,"runs":2,"retried":0,"error_kind":"oom","error":"java.lang.OutOfMemoryError","counters":null,"raced":{"after_runs":1,"p_value":0.1234567890123,"effect":0.6666666666666666,"saved":31},"retries":[]}"#,
    ];

    #[test]
    fn journal_lines_keep_their_pinned_bytes() {
        let path = temp_path("pinned");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.record(0xDEAD_BEEF_DEAD_BEEF, &rich_eval()).unwrap();
        w.record(7, &failed_eval()).unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), EXPECTED_LINES);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_round_trips_evaluations_exactly() {
        let path = temp_path("roundtrip");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.record(0xDEAD_BEEF_DEAD_BEEF, &rich_eval()).unwrap();
        w.record(7, &failed_eval()).unwrap();
        assert_eq!(w.trials(), 2);
        drop(w);
        let (h, trials) = load(&path).unwrap();
        assert_eq!(h, header());
        assert_eq!(trials.len(), 2);
        assert_eq!(trials[0].0, 0xDEAD_BEEF_DEAD_BEEF);
        assert_eq!(trials[0].1, rich_eval());
        assert_eq!(trials[1].0, 7);
        assert_eq!(trials[1].1, failed_eval());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_but_inner_corruption_is_an_error() {
        let path = temp_path("torn");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.record(1, &rich_eval()).unwrap();
        w.record(2, &failed_eval()).unwrap();
        drop(w);
        let full = std::fs::read_to_string(&path).unwrap();
        // Kill mid-write: chop the last line in half.
        let torn = &full[..full.len() - 40];
        std::fs::write(&path, torn).unwrap();
        let (_, trials) = load(&path).unwrap();
        assert_eq!(trials.len(), 1, "torn tail should be dropped");
        assert_eq!(trials[0].0, 1);
        // Corruption *before* the tail is not a crash signature: refuse.
        let mut lines: Vec<&str> = full.lines().collect();
        lines[1] = "{garbage";
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(matches!(load(&path), Err(JournalError::Malformed(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_torn_tails_and_is_idempotent() {
        let path = temp_path("compact");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.record(1, &rich_eval()).unwrap();
        w.record(2, &failed_eval()).unwrap();
        drop(w);
        let clean = std::fs::read(&path).unwrap();
        // A crash tore the last record mid-write: dead bytes on disk.
        let mut torn = clean.clone();
        torn.extend_from_slice(b"{\"type\":\"Trial\",\"fp\":3,\"sco");
        std::fs::write(&path, &torn).unwrap();
        let (h, trials) = compact(&path).unwrap();
        assert_eq!(h, header());
        assert_eq!(trials.len(), 2);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            clean,
            "compaction must rewrite exactly the complete prefix"
        );
        // Compacting an already-clean journal changes nothing.
        compact(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), clean);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_serves_in_order_and_stops_on_divergence() {
        let mut log = ReplayLog::new(vec![(1, rich_eval()), (2, failed_eval()), (3, rich_eval())]);
        assert_eq!(log.remaining(), 3);
        assert!(log.next_for(1).is_some());
        // Wrong fingerprint: replay is over, even for entries still queued.
        assert!(log.next_for(99).is_none());
        assert!(log.diverged());
        assert!(log.next_for(2).is_none());
        assert_eq!(log.served(), 1);
    }

    #[test]
    fn empty_or_headerless_files_are_rejected() {
        let path = temp_path("empty");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(load(&path), Err(JournalError::Malformed(_))));
        std::fs::write(&path, "{\"type\":\"Trial\"}\n").unwrap();
        assert!(matches!(load(&path), Err(JournalError::Malformed(_))));
        let _ = std::fs::remove_file(&path);
    }
}
