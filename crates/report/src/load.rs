//! Input discovery: turn a path — trace file, session directory,
//! experiment trace directory, or server state directory — into an
//! ordered list of [`SessionSummary`]s. Every shape holds JSONL traces;
//! the report reads nothing else.
//!
//! Discovery is deterministic: directory entries are sorted by name
//! (server sessions numerically by ID), so the same directory always
//! produces the same report regardless of filesystem enumeration order.

use std::path::Path;

use jtune_util::json::{self, JsonValue};

use crate::summary::SessionSummary;

/// A loaded report input: a titled, ordered collection of sessions.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Report title (the input file or directory name).
    pub title: String,
    /// Sessions in deterministic (name / session-ID) order.
    pub sessions: Vec<SessionSummary>,
    /// Daemon-level overload/robustness counters, present when the
    /// input is a server state directory whose daemon left a
    /// `server-metrics.json` snapshot at shutdown.
    pub daemon: Option<DaemonCounters>,
}

/// The daemon counters a report can explain a chaos run with — how much
/// load was shed, how often peers misbehaved, and how hard the retry
/// and reconnect machinery worked — as `(key in server-metrics.json,
/// label in the rendered tables)`, in display order.
pub const DAEMON_COUNTERS: [(&str, &str); 7] = [
    // Submits shed with `overloaded` plus connections shed at the
    // connection limit.
    ("connections_rejected", "connections rejected"),
    // Frames rejected at the wire (oversized, non-UTF-8, undecodable).
    ("frames_rejected", "frames rejected"),
    // Requests that arrived carrying a client retry tag.
    ("clients_retried", "client retries seen"),
    // Workers that re-registered as successors of a lost identity.
    ("workers_reconnected", "worker reconnects"),
    // Worker registrations accepted.
    ("workers_registered", "workers registered"),
    // Trials leased to remote workers.
    ("trials_leased", "trials leased"),
    // Leases reissued after a deadline, worker death, or `fail`.
    ("leases_expired", "leases expired"),
];

/// Values of [`DAEMON_COUNTERS`], index for index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonCounters(pub [u64; 7]);

/// The `server-metrics.json` snapshot a draining daemon writes into its
/// state directory, if present and parseable. Counters the daemon never
/// bumped read as zero.
fn load_daemon_counters(state_dir: &Path) -> Option<DaemonCounters> {
    let text = std::fs::read_to_string(state_dir.join("server-metrics.json")).ok()?;
    let v = json::parse(&text).ok()?;
    let counters = v.get("counters")?;
    Some(DaemonCounters(DAEMON_COUNTERS.map(|(key, _)| {
        counters.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
    })))
}

fn label_of(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

fn title_of(path: &Path) -> String {
    path.file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

fn load_trace_file(path: &Path) -> Result<SessionSummary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    SessionSummary::from_trace(&label_of(path), &text)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Sorted entries of `dir` whose file name passes `keep`.
fn entries(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<Vec<std::path::PathBuf>, String> {
    let mut out: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .map(|n| keep(&n.to_string_lossy()))
                .unwrap_or(false)
        })
        .collect();
    out.sort();
    Ok(out)
}

/// The input shapes [`load`] accepts, as its errors list them.
const SHAPES: &str = "a .jsonl trace file, a directory holding trace.jsonl, \
                      a server state directory of numbered session directories, \
                      or a directory of *.jsonl traces";

/// Load a report from `path`. Accepted shapes:
///
/// - a `.jsonl` trace file (one session);
/// - a session directory holding `trace.jsonl` (one session, e.g. a
///   server session's state subdirectory);
/// - a server state directory: numeric subdirectories each holding
///   `trace.jsonl`, ordered by session ID;
/// - an experiment trace directory: `*.jsonl` files, ordered by name
///   (e.g. `results/traces/e1_specjvm/`).
pub fn load(path: &Path) -> Result<Report, String> {
    let (sessions, daemon) = discover(path)?;
    Ok(Report {
        title: title_of(path),
        sessions,
        daemon,
    })
}

/// The sessions [`load`] finds at `path`, with the daemon counters of a
/// server state directory.
fn discover(path: &Path) -> Result<(Vec<SessionSummary>, Option<DaemonCounters>), String> {
    if path.is_file() {
        // A .jsonl file that fails to decode is a broken trace; any other
        // file may not be a trace at all, so name what would be.
        let trace = path.extension().is_some_and(|ext| ext == "jsonl");
        let session = match load_trace_file(path) {
            Err(e) if !trace => return Err(format!("{e}; expected {SHAPES}")),
            loaded => loaded?,
        };
        return Ok((vec![session], None));
    }
    if !path.is_dir() {
        return Err(format!("{}: no such file or directory", path.display()));
    }

    // A session directory: its own trace.jsonl.
    if path.join("trace.jsonl").is_file() {
        let mut session = load_trace_file(&path.join("trace.jsonl"))?;
        session.label = label_of(path);
        return Ok((vec![session], None));
    }

    // A server state directory: numeric session subdirectories.
    let mut session_dirs: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter_map(|p| {
            let sid: u64 = p.file_name()?.to_str()?.parse().ok()?;
            p.join("trace.jsonl").is_file().then_some((sid, p))
        })
        .collect();
    session_dirs.sort();
    if !session_dirs.is_empty() {
        let sessions = session_dirs
            .into_iter()
            .map(|(sid, dir)| {
                load_trace_file(&dir.join("trace.jsonl")).map(|mut s| {
                    s.label = format!("session {sid}");
                    s
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok((sessions, load_daemon_counters(path)));
    }

    // An experiment trace directory (*.jsonl).
    let traces = entries(path, |n| n.ends_with(".jsonl"))?;
    if !traces.is_empty() {
        let sessions = traces
            .iter()
            .map(|p| load_trace_file(p))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok((sessions, None));
    }
    Err(format!(
        "{}: no traces found; expected {SHAPES}",
        path.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jtune-report-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn tiny_trace(program: &str) -> String {
        [
            format!(r#"{{"type":"SessionStarted","program":"{program}","executor":"sim:{program}","technique":"ensemble","manipulator":"hierarchical","budget_secs":60,"seed":1,"batch":4,"repeats":3}}"#),
            r#"{"type":"TrialEvaluated","index":0,"technique":"default","delta":[],"repeat_secs":[5.0],"score_secs":5.0,"cost_secs":5.0,"budget_spent_secs":5.0,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":null}"#.to_string(),
            format!(r#"{{"type":"SessionFinished","program":"{program}","default_secs":5,"best_secs":5,"improvement_percent":0,"evaluations":1,"spent_secs":5,"best_delta":[]}}"#),
            String::new(),
        ]
        .join("\n")
    }

    #[test]
    fn loads_single_trace_file() {
        let dir = temp_dir("file");
        let path = dir.join("run.jsonl");
        std::fs::write(&path, tiny_trace("compress")).unwrap();
        let r = load(&path).expect("load");
        assert_eq!(r.title, "run.jsonl");
        assert_eq!(r.sessions.len(), 1);
        assert_eq!(r.sessions[0].label, "run");
        assert_eq!(r.sessions[0].program, "compress");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_experiment_directory_in_name_order() {
        let dir = temp_dir("exp");
        std::fs::write(dir.join("b.jsonl"), tiny_trace("serial")).unwrap();
        std::fs::write(dir.join("a.jsonl"), tiny_trace("compress")).unwrap();
        let r = load(&dir).expect("load");
        let programs: Vec<&str> = r.sessions.iter().map(|s| s.program.as_str()).collect();
        assert_eq!(programs, vec!["compress", "serial"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_server_state_directory_by_session_id() {
        let dir = temp_dir("state");
        for sid in [10u64, 2] {
            let sub = dir.join(sid.to_string());
            std::fs::create_dir_all(&sub).unwrap();
            std::fs::write(sub.join("trace.jsonl"), tiny_trace("compress")).unwrap();
        }
        // A non-session entry must not confuse discovery.
        std::fs::write(dir.join("server.lock"), "x").unwrap();
        let r = load(&dir).expect("load");
        let labels: Vec<&str> = r.sessions.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["session 2", "session 10"]);
        // No metrics snapshot was written, so there is no daemon block.
        assert_eq!(r.daemon, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_state_directory_surfaces_daemon_counters() {
        let dir = temp_dir("state-metrics");
        let sub = dir.join("1");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(sub.join("trace.jsonl"), tiny_trace("compress")).unwrap();
        std::fs::write(
            dir.join("server-metrics.json"),
            r#"{"counters":{"connections_rejected":3,"frames_rejected":2,"clients_retried":5,"workers_reconnected":1,"trials_leased":9},"histograms":{},"wall":{}}"#,
        )
        .unwrap();
        let r = load(&dir).expect("load");
        let d = r.daemon.expect("daemon counters");
        // In DAEMON_COUNTERS order; counters the daemon never bumped
        // (workers_registered, leases_expired) default to zero.
        assert_eq!(d, DaemonCounters([3, 2, 5, 1, 0, 9, 0]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_session_directory_with_trace() {
        let dir = temp_dir("session");
        std::fs::write(dir.join("trace.jsonl"), tiny_trace("serial")).unwrap();
        let r = load(&dir).expect("load");
        assert_eq!(r.sessions.len(), 1);
        assert_eq!(r.sessions[0].program, "serial");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_broken_trace_file_names_its_line_without_the_shapes_hint() {
        let dir = temp_dir("broken");
        let path = dir.join("run.jsonl");
        let broken = tiny_trace("compress").replace("budget_spent_secs", "budget_used_secs");
        std::fs::write(&path, broken).unwrap();
        let err = load(&path).expect_err("a renamed field must not load");
        assert!(
            err.ends_with("line 2: TrialEvaluated: missing field `budget_spent_secs`"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_inputs_error() {
        let dir = temp_dir("empty");
        assert!(load(&dir).is_err());
        assert!(load(&dir.join("nope")).is_err());
        // Session records are not a report input: neither a bare one
        // nor a directory of them.
        let records = dir.join("records");
        std::fs::create_dir_all(&records).unwrap();
        let record = records.join("compress.tsv");
        std::fs::write(
            &record,
            "#session\tcompress\tsim:compress\t200\t2.5\t2.2\t4\t\n",
        )
        .unwrap();
        assert!(!SHAPES.contains("tsv"), "{SHAPES}");
        for input in [&records, &record] {
            let err = load(input).expect_err("a .tsv input must not load");
            assert!(err.ends_with(&format!("expected {SHAPES}")), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
