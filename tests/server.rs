//! Daemon end-to-end test through the real binary: start `jtune serve`
//! on an ephemeral port, run three concurrent sessions through
//! `jtune client`, kill the daemon mid-run, restart it on the same
//! state dir, and require every resumed trace and result to be
//! byte-identical to the uninterrupted one-shot run.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn jtune() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jtune"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jtune-daemon-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

struct Daemon {
    child: Child,
    addr: String,
}

fn start_daemon(state_dir: &Path) -> Daemon {
    start_daemon_with(state_dir, &[])
}

fn start_daemon_with(state_dir: &Path, extra: &[&str]) -> Daemon {
    let mut child = jtune()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--state-dir",
            state_dir.to_str().expect("utf8 path"),
            "--slots",
            "2",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read bound address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
        .to_string();
    Daemon { child, addr }
}

fn client(addr: &str, args: &[&str]) -> std::process::Output {
    jtune()
        .arg("client")
        .args(args)
        .args(["--addr", addr])
        .output()
        .expect("run client")
}

/// `client result` polled until the session completes; returns the raw
/// record line.
fn await_result(addr: &str, sid: &str) -> String {
    let start = Instant::now();
    loop {
        let out = client(addr, &["result", sid]);
        if out.status.success() {
            return String::from_utf8(out.stdout)
                .expect("utf8 record")
                .trim_end()
                .to_string();
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "session {sid} did not complete: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The uninterrupted one-shot equivalent of a daemon session: same
/// budget/seed, checkpointing on (the daemon always journals), traced.
/// Returns (trace bytes, record line).
fn one_shot(dir: &Path, seed: &str, budget: &str) -> (String, String) {
    let trace = dir.join("trace.jsonl");
    let out = jtune()
        .args([
            "tune",
            "compress",
            "--budget",
            budget,
            "--seed",
            seed,
            "--checkpoint",
            dir.join("journal.jsonl").to_str().expect("utf8"),
            "--trace",
            trace.to_str().expect("utf8"),
            "--json",
        ])
        .output()
        .expect("one-shot run");
    assert!(
        out.status.success(),
        "one-shot failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        std::fs::read_to_string(&trace).expect("one-shot trace"),
        String::from_utf8(out.stdout)
            .expect("utf8 record")
            .trim_end()
            .to_string(),
    )
}

#[test]
fn remote_workers_produce_byte_identical_results_through_the_binary() {
    let root = temp_dir("workers-cli");
    let state = root.join("state");
    let mut daemon = start_daemon(&state);

    // Two worker processes attach over TCP.
    let mut workers: Vec<Child> = [
        vec!["worker", "--connect", daemon.addr.as_str()],
        vec!["worker", "--connect", daemon.addr.as_str(), "--slots", "2"],
    ]
    .into_iter()
    .map(|args| {
        jtune()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn worker")
    })
    .collect();

    // Wait until both registrations show up in the daemon stats.
    let start = Instant::now();
    loop {
        let out = client(&daemon.addr, &["stats"]);
        assert!(out.status.success());
        if String::from_utf8_lossy(&out.stdout).contains("\"workers_registered\":2") {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "workers never registered"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let out = client(
        &daemon.addr,
        &["submit", "compress", "--budget", "10", "--seed", "77"],
    );
    assert!(
        out.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sid = String::from_utf8(out.stdout)
        .expect("utf8 sid")
        .trim()
        .to_string();
    let record = await_result(&daemon.addr, &sid);

    // Trials really ran on the workers.
    let stats = client(&daemon.addr, &["stats"]);
    assert!(stats.status.success());
    let stats_line = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(
        !stats_line.contains("\"trials_leased\":0"),
        "no trial was leased to a worker: {stats_line}"
    );
    assert!(stats_line.contains("\"trials_leased\":"), "{stats_line}");

    // Byte-identical to the uninterrupted single-host run.
    let reference = temp_dir("workers-cli-ref");
    let (want_trace, want_record) = one_shot(&reference, "77", "10");
    let got_trace =
        std::fs::read_to_string(state.join(&sid).join("trace.jsonl")).expect("session trace");
    assert_eq!(got_trace, want_trace, "distributed trace diverged");
    assert_eq!(record, want_record, "distributed record diverged");

    // Shutdown drains the workers: both exit 0 after reporting stats.
    let shutdown = client(&daemon.addr, &["shutdown", "--no-drain"]);
    assert!(shutdown.status.success());
    for worker in &mut workers {
        let status = worker.wait().expect("worker exit");
        assert!(status.success(), "worker exited non-zero: {status}");
    }
    daemon.child.wait().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&root);
}

/// The full chaos gauntlet through the real binary: a daemon with wire
/// deadlines, workers whose frames run through seeded fault plans, a
/// worker killed mid-run and replaced, and a retrying client — with the
/// session's trace and record still byte-identical to the undisturbed
/// one-shot run.
#[test]
fn chaos_run_with_worker_churn_matches_one_shot_byte_for_byte() {
    let root = temp_dir("chaos-cli");
    let state = root.join("state");
    let mut daemon = start_daemon_with(&state, &["--io-timeout-ms", "5000"]);

    let spawn_worker = |seed: &str| -> Child {
        jtune()
            .args([
                "worker",
                "--connect",
                daemon.addr.as_str(),
                "--net-fault-rate",
                "0.15",
                "--net-fault-seed",
                seed,
                "--retries",
                "10",
                "--retry-max-ms",
                "1000",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn worker")
    };
    let mut doomed = spawn_worker("48879");
    let mut steady = spawn_worker("51966");

    // Both registrations reach the daemon (chaos notwithstanding).
    let start = Instant::now();
    loop {
        let out = client(&daemon.addr, &["stats"]);
        assert!(out.status.success());
        if String::from_utf8_lossy(&out.stdout).contains("\"workers_registered\":2") {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "workers never registered under chaos"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Submit through the retrying client path.
    let out = client(
        &daemon.addr,
        &[
            "submit",
            "compress",
            "--budget",
            "10",
            "--seed",
            "55",
            "--retries",
            "3",
        ],
    );
    assert!(
        out.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sid = String::from_utf8(out.stdout)
        .expect("utf8 sid")
        .trim()
        .to_string();

    // Worker churn: one worker dies mid-run and a replacement arrives.
    std::thread::sleep(Duration::from_millis(100));
    doomed.kill().expect("kill worker");
    doomed.wait().expect("reap worker");
    let mut replacement = spawn_worker("57005");

    let record = await_result(&daemon.addr, &sid);

    let reference = temp_dir("chaos-cli-ref");
    let (want_trace, want_record) = one_shot(&reference, "55", "10");
    let got_trace =
        std::fs::read_to_string(state.join(&sid).join("trace.jsonl")).expect("session trace");
    assert_eq!(got_trace, want_trace, "chaos trace diverged");
    assert_eq!(record, want_record, "chaos record diverged");

    // Shut down; the surviving workers may drain cleanly or exhaust
    // their reconnect budgets against the stopped daemon — either way
    // they must exit rather than wedge.
    let shutdown = client(&daemon.addr, &["shutdown", "--no-drain"]);
    assert!(shutdown.status.success());
    steady.wait().expect("steady worker exit");
    replacement.wait().expect("replacement worker exit");
    daemon.child.wait().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn killed_daemon_resumes_sessions_with_byte_identical_traces() {
    let root = temp_dir("kill-resume");
    let state = root.join("state");
    let budget = "600";
    let seeds = ["101", "202", "303"];

    let mut daemon = start_daemon(&state);
    let mut sids = Vec::new();
    for seed in seeds {
        let out = client(
            &daemon.addr,
            &["submit", "compress", "--budget", budget, "--seed", seed],
        );
        assert!(
            out.status.success(),
            "submit failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        sids.push(
            String::from_utf8(out.stdout)
                .expect("utf8 sid")
                .trim()
                .to_string(),
        );
    }

    // Status must list all three sessions.
    let status = client(&daemon.addr, &["status"]);
    assert!(status.status.success());
    let status_line = String::from_utf8_lossy(&status.stdout).into_owned();
    for sid in &sids {
        assert!(
            status_line.contains(&format!("\"sid\":{sid}")),
            "{status_line}"
        );
    }

    // Kill the daemon hard, mid-run: no drain, no clean checkpoint
    // boundary — the journals' torn tails must not matter.
    daemon.child.kill().expect("kill daemon");
    daemon.child.wait().expect("reap daemon");

    // Restart over the same state dir: sessions resume and finish.
    let mut daemon = start_daemon(&state);
    let records: Vec<String> = sids
        .iter()
        .map(|sid| await_result(&daemon.addr, sid))
        .collect();

    for (i, (sid, seed)) in sids.iter().zip(seeds).enumerate() {
        let reference = temp_dir(&format!("kill-resume-ref-{seed}"));
        let (want_trace, want_record) = one_shot(&reference, seed, budget);
        let got_trace =
            std::fs::read_to_string(state.join(sid).join("trace.jsonl")).expect("session trace");
        assert_eq!(
            got_trace, want_trace,
            "session {sid} (seed {seed}) trace diverged after kill+resume"
        );
        assert_eq!(
            records[i], want_record,
            "session {sid} (seed {seed}) record diverged after kill+resume"
        );
        let _ = std::fs::remove_dir_all(&reference);
    }

    let shutdown = client(&daemon.addr, &["shutdown", "--no-drain"]);
    assert!(shutdown.status.success());
    daemon.child.wait().expect("daemon exit");
    let _ = std::fs::remove_dir_all(&root);
}
