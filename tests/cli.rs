//! CLI argument validation: unknown flags and malformed values must
//! exit non-zero with usage instead of warning and tuning anyway; every
//! accepted line must map to the session it always meant; and the README
//! flag reference must match the option rows.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use hotspot_autotuner::experiments::suite_sessions;
use hotspot_autotuner::prelude::*;
use hotspot_autotuner::tuner::analysis::ImpactOptions;
use hotspot_autotuner::util::json;

fn jtune(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jtune"))
        .args(args)
        .output()
        .expect("run jtune")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jtune-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn unknown_top_level_flag_exits_nonzero_with_usage() {
    let out = jtune(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("USAGE"), "{}", stderr_of(&out));
}

#[test]
fn unknown_tune_flag_exits_nonzero_with_usage() {
    let out = jtune(&["tune", "compress", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("unknown flag"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn malformed_values_exit_nonzero() {
    for args in [
        ["tune", "compress", "--budget", "nope"],
        ["tune", "compress", "--seed", "3.5"],
        ["tune", "compress", "--workers", "many"],
        ["tune", "compress", "--deadline", "-1"],
        ["suite", "spec", "--budget", "nope"],
    ] {
        let out = jtune(&args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(
            stderr_of(&out).contains("invalid options") || stderr_of(&out).contains("is not"),
            "args: {args:?}, stderr: {}",
            stderr_of(&out)
        );
    }
}

/// A journal belongs to one session and suite sessions run side by
/// side, so `suite` leaves journals to `tune`; its `--trace` names a
/// directory. Each line is refused before any session starts.
#[test]
fn suite_rejects_journals_and_a_trace_file() {
    let dir = temp_dir("suite-refusals");
    let journal = dir.join("journal.jsonl");
    let file = dir.join("trace.jsonl");
    std::fs::write(&file, "kept\n").expect("write trace file");
    let (journal, file) = (journal.to_str().unwrap(), file.to_str().unwrap());
    for (flag, path, want) in [
        ("--checkpoint", journal, "use `jtune tune`"),
        ("--resume", journal, "use `jtune tune`"),
        ("--trace", file, "names a directory of traces, not a file"),
    ] {
        let out = jtune(&["suite", "spec", "--budget", "1", flag, path]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(err.contains(want) && err.contains("USAGE"), "{flag}: {err}");
        assert!(out.stdout.is_empty(), "{flag}");
    }
    assert!(!Path::new(journal).exists(), "no session ran");
    assert_eq!(std::fs::read_to_string(file).unwrap(), "kept\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flag_missing_its_value_exits_nonzero() {
    let out = jtune(&["tune", "compress", "--budget"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("requires a value"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn conflicting_resume_signature_exits_nonzero() {
    let dir = temp_dir("resume-conflict");
    let journal = dir.join("journal.jsonl");
    let journal = journal.to_str().expect("utf8 path");

    let first = jtune(&[
        "tune",
        "compress",
        "--budget",
        "1",
        "--seed",
        "5",
        "--checkpoint",
        journal,
        "--json",
    ]);
    assert_eq!(first.status.code(), Some(0), "{}", stderr_of(&first));

    // Same journal, different budget: the session signature conflicts
    // and the tuner must refuse rather than silently diverge.
    let second = jtune(&[
        "tune", "compress", "--budget", "2", "--seed", "5", "--resume", journal,
    ]);
    assert_eq!(second.status.code(), Some(1), "{}", stderr_of(&second));
    assert!(
        stderr_of(&second).contains("refusing to resume"),
        "{}",
        stderr_of(&second)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_a_missing_journal_exits_nonzero() {
    let out = jtune(&[
        "tune",
        "compress",
        "--budget",
        "1",
        "--resume",
        "/nonexistent/journal.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("cannot resume"),
        "{}",
        stderr_of(&out)
    );
}

/// Lines the parser must reject, each with the message it must print
/// (exit 2, usage follows).
#[test]
fn parser_defects_stay_fixed() {
    for (args, want) in [
        // A value that is itself a flag: no trace file named `--json`.
        (
            &["tune", "serial", "--trace", "--json"][..],
            "tune: flag --trace requires a value",
        ),
        (
            &["tune", "compress", "--seed", "1", "--seed", "2"][..],
            "tune: flag --seed given twice",
        ),
        (
            &["tune", "compress", "extra"][..],
            "tune: unexpected argument \"extra\"",
        ),
        (
            &["suite", "spec", "--budget", "1", "--budget", "2"][..],
            "given twice",
        ),
        (
            &["serve", "--max-frame", "0"][..],
            "serve: --max-frame \"0\" must be at least 1",
        ),
        (
            &["worker", "--connect", "x", "--slots", "0"][..],
            "worker: --slots \"0\" must be",
        ),
        (
            &["worker", "--slots", "2"][..],
            "worker: missing --connect HOST:PORT",
        ),
        (
            &["client", "status", "--retries", "lots"][..],
            "client status: --retries \"lots\"",
        ),
        (
            &["report", "x", "--format", "pdf"][..],
            "report: --format \"pdf\" is not md, html or json",
        ),
    ] {
        let out = jtune(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = stderr_of(&out);
        assert!(
            err.contains(want) && err.contains("USAGE"),
            "args: {args:?}: {err}"
        );
    }
}

#[test]
fn positionals_may_follow_options() {
    let out = jtune(&["tune", "--budget", "1", "--json", "compress"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    // No daemon listens on port 1: the submit gets as far as connecting.
    let out = jtune(&[
        "client",
        "submit",
        "--budget",
        "5",
        "compress",
        "--addr",
        "127.0.0.1:1",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(err.starts_with("client submit: connect-error"), "{err}");
}

#[test]
fn client_errors_name_the_subcommand_once() {
    for (args, want) in [
        (
            &["client", "submit"][..],
            "client submit: missing workload name\n",
        ),
        (
            &["client", "watch"][..],
            "client watch: missing session ID\n",
        ),
        (
            &["client", "cancel", "x"][..],
            "client cancel: session ID must be an integer\n",
        ),
    ] {
        let out = jtune(args);
        assert_eq!(out.status.code(), Some(1), "args: {args:?}");
        assert_eq!(stderr_of(&out), want, "args: {args:?}");
    }
}

/// Every implication rule, and `--portfolio` against `--technique`, as
/// the journal header each line writes: executor tag, seed and
/// `TunerOptions::signature()`, recorded before the option tables
/// replaced the hand-written parsers.
#[rustfmt::skip]
#[test]
fn argv_maps_to_the_pinned_session_signature() {
    const SIM: &str = "sim:compress";
    const FAULTY: &str = "faulty[seed=1024023,crash=0.03,hang=0.010000000000000002,noise=0.010000000000000002x3]:sim:compress";
    const FAULTY_11: &str = "faulty[seed=11,crash=0.03,hang=0.010000000000000002,noise=0.010000000000000002x3]:sim:compress";
    let cases: &[(&str, &str, u64, &str)] = &[
        ("", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
        ("--cache", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true cache=0"),
        ("--cache-recharge 0.5", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true cache=0.5"),
        ("--cache --cache-recharge 0.25", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true cache=0.25"),
        ("--racing", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true racing=2a0.2"),
        ("--min-repeats 3", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true racing=3a0.2"),
        ("--racing --min-repeats 4", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true racing=4a0.2"),
        ("--retries 2", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true retry=2x1.5"),
        ("--retry-backoff 2", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true retry=2x2"),
        ("--retries 3 --retry-backoff 1.25", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true retry=3x1.25"),
        ("--quarantine 4", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true quarantine=4"),
        ("--no-fail-fast", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=false"),
        ("--model", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true model=4w12k1"),
        ("--screen-ratio 2", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true model=2w12k1"),
        ("--model --screen-ratio 6", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true model=6w12k1"),
        ("--portfolio", SIM, 319242456645, "v1 technique=portfolio manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
        ("--portfolio --technique random", SIM, 319242456645, "v1 technique=random manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
        ("--technique hillclimb --portfolio", SIM, 319242456645, "v1 technique=hillclimb manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
        ("--model --portfolio", SIM, 319242456645, "v1 technique=portfolio manipulator=hierarchical batch=4 repeats=3 fail_fast=true model=4w12k1"),
        ("--technique model:ensemble", SIM, 319242456645, "v1 technique=model:ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
        ("--manipulator flat --batch 6", SIM, 319242456645, "v1 technique=ensemble manipulator=flat batch=6 repeats=3 fail_fast=true"),
        ("--manipulator subset --workers 2", SIM, 319242456645, "v1 technique=ensemble manipulator=gc-subset batch=4 repeats=3 fail_fast=true"),
        ("--seed 9", SIM, 9, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
        ("--fault-rate 0.05", FAULTY, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
        ("--fault-rate 0.05 --fault-seed 11", FAULTY_11, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
        ("--deadline 30", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
        ("--fault-seed 11", SIM, 319242456645, "v1 technique=ensemble manipulator=hierarchical batch=4 repeats=3 fail_fast=true"),
    ];
    let dir = temp_dir("signatures");
    for (i, (line, executor, seed, signature)) in cases.iter().enumerate() {
        let journal = dir.join(format!("{i}.jsonl"));
        let mut args = vec!["tune", "compress", "--budget", "1", "--json"];
        args.extend(line.split_whitespace());
        args.extend(["--checkpoint", journal.to_str().expect("utf8 path")]);
        let out = jtune(&args);
        assert_eq!(out.status.code(), Some(0), "{line}: {}", stderr_of(&out));
        let text = std::fs::read_to_string(&journal).expect("journal written");
        let header = format!(
            "{{\"type\":\"JournalHeader\",\"version\":1,\"program\":\"compress\",\"executor\":\"{executor}\",\"seed\":{seed},\"budget_nanos\":60000000000,\"signature\":\"{signature}\"}}"
        );
        assert_eq!(text.lines().next(), Some(header.as_str()), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn minimize_lists_only_impacts_above_the_hitchhiker_threshold() {
    let out = jtune(&[
        "tune",
        "serial",
        "--budget",
        "2",
        "--seed",
        "7",
        "--minimize",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let table = stdout
        .split_once("impact\n")
        .map(|(_, rest)| rest)
        .expect("impact table header");
    let (rows, hitchhikers) = table
        .split_once("(+ ")
        .expect("hitchhiker line after the table");
    assert!(
        hitchhikers.ends_with(" inert hitchhiker flags omitted)\n"),
        "{stdout}"
    );
    let threshold = ImpactOptions::default().hitchhiker_threshold;
    assert!(!rows.is_empty(), "{stdout}");
    for row in rows.lines() {
        let impact: f64 = row
            .split_whitespace()
            .last()
            .and_then(|v| v.strip_suffix('%'))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no impact in {row:?}"));
        assert!(impact.abs() >= threshold, "{row:?} is a hitchhiker");
    }
}

/// `jtune suite` seeds program `i` by the one suite rule, so its records
/// are the sessions the experiment drivers run under the same seed.
#[test]
fn suite_seeds_programs_through_the_shared_rule() {
    let out = jtune(&["suite", "dacapo", "--seed", "7", "--budget", "1", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let base = TunerOptions {
        budget: SimDuration::from_mins(1),
        seed: 7,
        ..TunerOptions::default()
    };
    let records: Vec<String> = suite_sessions(&base, dacapo())
        .map(|(w, opts)| {
            let name = w.name.clone();
            let executor = SimExecutor::new(w);
            let result = Tuner::new(opts).run(&executor, &name, &TelemetryBus::disabled());
            result.session.to_json()
        })
        .collect();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{}\n", json::array_of(&records))
    );
}

/// A program whose default configuration fails under the deadline has
/// no improvement: its row reads `NaN%`, and the average and top three
/// are taken over the programs that have one.
#[test]
fn suite_table_survives_failed_defaults() {
    let out = jtune(&[
        "suite",
        "dacapo",
        "--budget",
        "1",
        "--seed",
        "7",
        "--deadline",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NaN%"), "no failed default row:\n{stdout}");
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("average improvement: "))
        .unwrap_or_else(|| panic!("no summary line:\n{stdout}"));
    assert!(!summary.contains("NaN"), "{summary}");
    assert_eq!(summary.matches('%').count(), 4, "{summary}");
}

/// `jtune suite --trace DIR` writes one trace per program, and each is
/// the trace `jtune tune` writes for that program under its suite seed:
/// the executor rows (here `--deadline`) reach every suite session.
#[test]
fn suite_traces_one_file_per_program_as_tune_does() {
    let dir = temp_dir("suite-traces");
    let seed_of = |program: &str| {
        let base = TunerOptions {
            seed: 7,
            ..TunerOptions::default()
        };
        let (_, opts) = suite_sessions(&base, dacapo())
            .find(|(w, _)| w.name == program)
            .expect("a DaCapo program");
        opts.seed.to_string()
    };
    let suite = |name: &str, extra: &[&str]| {
        let traces = dir.join(name);
        let mut args = vec!["suite", "dacapo", "--budget", "1", "--seed", "7"];
        args.extend(extra);
        args.extend(["--trace", traces.to_str().unwrap()]);
        let out = jtune(&args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        traces
    };
    let tune = |program: &str, extra: &[&str]| {
        let trace = dir.join(format!("tune-{program}.jsonl"));
        let seed = seed_of(program);
        let mut args = vec!["tune", program, "--budget", "1", "--seed", &seed];
        args.extend(extra);
        args.extend(["--trace", trace.to_str().unwrap()]);
        let out = jtune(&args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        std::fs::read_to_string(trace).expect("tune trace")
    };
    let read = |path: PathBuf| std::fs::read_to_string(path).expect("suite trace");
    let plain = suite("plain", &[]);
    let mut files: Vec<String> = std::fs::read_dir(&plain)
        .expect("suite trace dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut want: Vec<String> = dacapo()
        .iter()
        .map(|w| format!("{}.jsonl", w.name))
        .collect();
    want.sort();
    assert_eq!(files.len(), 13);
    assert_eq!(files, want);
    assert_eq!(read(plain.join("h2.jsonl")), tune("h2", &[]));

    // A 20 s watchdog kills some of jython's runs, so its trace changes.
    let deadline = suite("deadline", &["--deadline", "20"]);
    let jython = read(deadline.join("jython.jsonl"));
    assert_ne!(jython, read(plain.join("jython.jsonl")));
    assert_eq!(jython, tune("jython", &["--deadline", "20"]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The README's flag reference is the one `jtune --help` renders from
/// the tune/suite rows: every row's flag and default, line for line.
#[test]
fn readme_flag_reference_matches_the_rows() {
    use hotspot_autotuner::harness::EXECUTOR_OPTIONS;
    use hotspot_autotuner::tuner::TUNER_OPTIONS;

    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let infos = TUNER_OPTIONS.iter().map(|o| o.info);
    for info in infos.chain(EXECUTOR_OPTIONS.iter().map(|o| o.info)) {
        let usage = format!("{} ", info.usage);
        let line = readme.lines().find(|l| l.trim_start().starts_with(&usage));
        assert!(
            line.is_some_and(|l| l.contains(&format!(" {} ", info.default))),
            "README lacks `{}` with default {}",
            info.usage,
            info.default
        );
    }
    let help = stderr_of(&jtune(&["--help"]));
    let section = help
        .split("tune / suite options:\n")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .expect("tune / suite section");
    for line in section.lines() {
        assert!(readme.contains(line), "README lacks help line {line:?}");
    }
}

/// The daemon and worker rows keep the rules their hand-written
/// parsers had.
#[test]
fn daemon_and_worker_rows_keep_their_rules() {
    use hotspot_autotuner::harness::{BackoffPolicy, BACKOFF_OPTIONS};
    use hotspot_autotuner::server::{
        NetFaultPlan, ServerConfig, WorkerOptions, NET_FAULT_OPTIONS, SERVER_OPTIONS,
        WORKER_OPTIONS,
    };
    use hotspot_autotuner::util::cli::Args;

    let argv = |line: &str| {
        line.split_whitespace()
            .map(String::from)
            .collect::<Vec<_>>()
    };
    let serve = |line: &str| {
        let args = Args::parse(
            "serve",
            &argv(line),
            &[&SERVER_OPTIONS, &NET_FAULT_OPTIONS],
            0,
        )
        .expect("valid line");
        let mut config = ServerConfig::new("state");
        args.apply(&mut config, SERVER_OPTIONS)
            .expect("valid values");
        args.apply(&mut config.net_faults, NET_FAULT_OPTIONS)
            .expect("valid values");
        config
    };
    let config = serve("--capacity 3");
    assert_eq!(
        (config.capacity, config.queue),
        (3, 3),
        "--capacity sets --queue"
    );
    let config = serve("--queue 1 --capacity 3");
    assert_eq!(
        (config.capacity, config.queue),
        (3, 1),
        "an explicit --queue wins"
    );
    assert_eq!(
        serve("--net-fault-seed 9").net_faults,
        NetFaultPlan::inactive()
    );
    let plan = NetFaultPlan::chaotic(0.1, NetFaultPlan::DEFAULT_SEED);
    assert_eq!(serve("--net-fault-rate 0.1").net_faults, plan);
    let reseeded = serve("--net-fault-seed 9 --net-fault-rate 0.1").net_faults;
    assert_eq!(reseeded, NetFaultPlan { seed: 9, ..plan });

    let line = argv("--connect h:1 --retries 2 --retry-max-ms 0");
    let tables: &[&dyn hotspot_autotuner::util::cli::Table] =
        &[&WORKER_OPTIONS, &BACKOFF_OPTIONS, &NET_FAULT_OPTIONS];
    let args = Args::parse("worker", &line, tables, 0).expect("valid line");
    let mut options = WorkerOptions::new("");
    assert_eq!(
        options.backoff,
        BackoffPolicy::default(),
        "5 reconnects by default"
    );
    args.apply(&mut options, WORKER_OPTIONS)
        .expect("valid values");
    args.apply(&mut options.backoff, BACKOFF_OPTIONS)
        .expect("valid values");
    assert_eq!(options.addr, "h:1");
    assert_eq!(options.backoff.retry.max_retries, 2);
    assert_eq!(options.backoff.cap_ms, 1, "a zero cap is floored at 1 ms");
}

#[test]
fn report_rejects_a_trace_it_cannot_decode() {
    let dir = temp_dir("report-decode");
    let trace = dir.join("compress.jsonl");
    let trace_arg = trace.to_str().expect("utf-8 path");
    let out = jtune(&[
        "tune", "compress", "--budget", "2", "--seed", "3", "--trace", trace_arg,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert_eq!(jtune(&["report", trace_arg]).status.code(), Some(0));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    for (from, to, names) in [
        (
            "budget_spent_secs",
            "budget_used_secs",
            "missing field `budget_spent_secs`",
        ),
        (
            "\"type\":\"RoundProposed\"",
            "\"type\":\"RoundPlanned\"",
            "unknown event type \"RoundPlanned\"",
        ),
    ] {
        std::fs::write(&trace, text.replacen(from, to, 1)).expect("rewrite trace");
        let out = jtune(&["report", trace_arg]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(
            err.contains(trace_arg) && err.contains(": line ") && err.contains(names),
            "{err}"
        );
        assert!(
            err.trim_end().ends_with(names),
            "no input-shapes hint: {err}"
        );
        assert!(out.stdout.is_empty());
    }
    // Two sessions concatenated are not one trace.
    let lines = text.lines().count();
    std::fs::write(&trace, format!("{text}{text}")).expect("rewrite trace");
    let out = jtune(&["report", trace_arg]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let want = format!("line {}: a second SessionStarted", lines + 1);
    assert!(err.contains(trace_arg) && err.contains(&want), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that stops after the first line (`jtune tune … | head -1`)
/// closes the pipe while the session still runs; the summary written
/// after it must be dropped quietly, not panic.
#[test]
fn tune_survives_a_reader_that_closes_stdout_early() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_jtune"))
        .args(["tune", "serial", "--budget", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run jtune");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.starts_with("tuning serial"), "{first}");
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut err)
        .expect("read stderr");
    let status = child.wait().expect("wait for jtune");
    assert_eq!(status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
