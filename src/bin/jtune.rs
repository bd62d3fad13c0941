//! `jtune` — the HotSpot auto-tuner command line.
//!
//! `jtune --help` prints the synopsis and the flag reference. Both are
//! rendered from the option rows each command parses with: the library's
//! tables (tuner, executor, daemon, worker, session, backoff, chaos) plus
//! the few below that only the command line has.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use hotspot_autotuner::experiments::{render_suite_table, Experiment, ExperimentTelemetry};
use hotspot_autotuner::flagtree::SpaceStats;
use hotspot_autotuner::harness::{BackoffPolicy, BACKOFF_OPTIONS, EXECUTOR_OPTIONS};
use hotspot_autotuner::prelude::*;
use hotspot_autotuner::report::Format;
use hotspot_autotuner::server::{
    with_retries, Request, WorkerOptions, NET_FAULT_OPTIONS, SERVER_OPTIONS, SESSION_OPTIONS,
    WORKER_OPTIONS,
};
use hotspot_autotuner::tuner::analysis::{flag_impact, split_hitchhikers, ImpactOptions};
use hotspot_autotuner::tuner::{TracedSession, TUNER_OPTIONS};
use hotspot_autotuner::util::cli::{self, Args, Opt, Table};
use hotspot_autotuner::util::json;

/// What the command line sets besides the library's option structs.
#[derive(Default)]
struct Local {
    minimize: bool,
    trace: Option<String>,
    progress: bool,
    json: bool,
    listen: Option<String>,
    addr: Option<String>,
    no_drain: bool,
    format: Option<Format>,
    out: Option<String>,
}

/// Where `serve` listens and `client` connects by default.
const DEFAULT_ADDR: &str = "127.0.0.1:7171";

#[rustfmt::skip]
const OUTPUT: &[Opt<Local>] = &[
    Opt::new("--minimize", "off", "(tune only) rank the best flags by marginal impact, reverting one at a time",
        |l, _| { l.minimize = true; Ok(()) }),
    Opt::new("--trace PATH", "off", "stream one JSON event per trial (JSON Lines, deterministic per seed): tune to the file PATH, suite to PATH/<program>.jsonl",
        |l, v| { l.trace = Some(v.to_string()); Ok(()) }),
    Opt::new("--progress", "off", "report live tuning progress on stderr",
        |l, _| { l.progress = true; Ok(()) }),
    Opt::new("--json", "off", "print the session record(s) as JSON instead of the summary",
        |l, _| { l.json = true; Ok(()) }),
];

#[rustfmt::skip]
const LISTEN: &[Opt<Local>] = &[
    Opt::new("--listen ADDR", "127.0.0.1:7171", "address to serve on (port 0 picks one; it is printed)",
        |l, v| { l.listen = Some(v.to_string()); Ok(()) }),
];

#[rustfmt::skip]
const CLIENT: &[Opt<Local>] = &[
    Opt::new("--addr HOST:PORT", "127.0.0.1:7171", "the daemon to talk to",
        |l, v| { l.addr = Some(v.to_string()); Ok(()) }),
    Opt::new("--no-drain", "drain", "shutdown: stop at once instead of checkpointing running sessions",
        |l, _| { l.no_drain = true; Ok(()) }),
];

#[rustfmt::skip]
const REPORT: &[Opt<Local>] = &[
    Opt::new("--format FMT", "md", "md, html or json",
        |l, v| v.parse().map(|f| l.format = Some(f)).map_err(|_| "is not md, html or json".into())),
    Opt::new("--out PATH", "stdout", "write the report to PATH",
        |l, v| { l.out = Some(v.to_string()); Ok(()) }),
];

/// Each command with an option surface: its synopsis head, its help
/// section title and the tables it parses, in application order.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, &[&dyn Table])] = &[
    ("tune <workload>", "tune / suite", &[&TUNER_OPTIONS, &EXECUTOR_OPTIONS, &OUTPUT]),
    ("suite <spec|dacapo>", "", &[&TUNER_OPTIONS, &EXECUTOR_OPTIONS, &OUTPUT]),
    ("serve", "serve", &[&LISTEN, &SERVER_OPTIONS, &NET_FAULT_OPTIONS]),
    ("worker", "worker", &[&WORKER_OPTIONS, &BACKOFF_OPTIONS, &NET_FAULT_OPTIONS]),
    ("client <subcommand> [ARG]", "client", &[&CLIENT, &SESSION_OPTIONS, &BACKOFF_OPTIONS]),
    ("report <dir-or-trace>", "report", &[&REPORT]),
];

/// The tables `jtune <cmd>` parses.
fn surface(cmd: &str) -> &'static [&'static dyn Table] {
    let (_, _, tables) = COMMANDS
        .iter()
        .find(|(head, _, _)| head.starts_with(cmd))
        .unwrap();
    tables
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        std::process::exit(usage(2));
    };
    let outcome = match cmd.as_str() {
        "tune" => cmd_tune(rest),
        "suite" => cmd_suite(rest),
        "serve" => cmd_serve(rest),
        "worker" => cmd_worker(rest),
        "client" => cmd_client(rest),
        "report" => cmd_report(rest),
        "simulate" => Ok(cmd_simulate(rest)),
        "flags" => Ok(cmd_flags(rest)),
        "tree" => Ok(cmd_tree()),
        "workloads" => Ok(cmd_workloads()),
        "--help" | "-h" | "help" => Ok(usage(0)),
        other => Err(format!("unknown command {other:?}")),
    };
    // A usage error prints its message and then the usage.
    std::process::exit(outcome.unwrap_or_else(|e| {
        eprintln!("{e}\n");
        usage(2)
    }));
}

fn usage(code: i32) -> i32 {
    let mut text = "jtune — search-based whole-JVM auto-tuner (IPDPSW'15 reproduction)\n\nUSAGE:\n"
        .to_string();
    for (head, _, tables) in COMMANDS {
        text += &cli::synopsis(&format!("  jtune {head}"), tables);
        text.push('\n');
    }
    text += "  jtune simulate <workload> [--gclog] [-XX:...flag ...]
  jtune flags [substring]      list the 750-flag registry
  jtune tree                   print the flag hierarchy + space statistics
  jtune workloads              list built-in workload models

Workload names are bare (`serial`) or suite-qualified (`dacapo:h2`,
`spec:sunflow`). Budgets are virtual minutes; the paper used 200. With
every option off, sessions are byte-identical to earlier releases, and
a daemon session is byte-identical to the one-shot run of its spec.
Client subcommands: submit <workload>, status [SID], watch <SID>,
result <SID>, cancel <SID>, stats [SID], shutdown.
Exit status: 0 ok, 1 run failure, 2 usage error.
";
    for (_, title, tables) in COMMANDS.iter().filter(|(_, title, _)| !title.is_empty()) {
        text += &format!("\n{title} options:\n{}", cli::reference(tables, false));
    }
    eprint!("{text}");
    code
}

/// Parse `tune`'s or `suite`'s line into validated tuner options and
/// the output settings; the caller applies the executor rows.
fn parse_tune(cmd: &str, rest: &[String]) -> Result<(Args, TunerOptions, Local), String> {
    let args = Args::parse(cmd, rest, surface(cmd), 1)?;
    let (mut opts, mut local) = (TunerOptions::default(), Local::default());
    args.apply(&mut opts, TUNER_OPTIONS)?;
    args.apply(&mut local, OUTPUT)?;
    opts.validate()
        .map_err(|e| format!("{cmd}: invalid options: {e}"))?;
    Ok((args, opts, local))
}

fn cmd_tune(rest: &[String]) -> Result<i32, String> {
    // Here and in `suite`, `simulate` and `report`, write errors are
    // ignored as in the listings: a reader that closes stdout early
    // (`jtune tune serial | head -1`) is a normal way to consume output.
    let mut out = std::io::stdout();
    let (args, opts, local) = parse_tune("tune", rest)?;
    let name = args.positional(0).ok_or("tune: missing workload name")?;
    let workload = workload_by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?} (see `jtune workloads`)"))?;
    // Fault injection applies to the *tuning* run only; flag-impact
    // attribution below always measures fault-free.
    let mut spec = ExecutorSpec::sim(workload);
    args.apply(&mut spec, EXECUTOR_OPTIONS)?;
    let trace = local.trace.as_deref().map(Path::new);
    let (session, error) = TracedSession::open(trace, local.progress, false, []);
    if let Some(e) = error {
        eprintln!("warning: {e}");
    }
    if !local.json {
        let _ = writeln!(
            out,
            "tuning {name} ({} budget, technique {}, {:?} manipulator)",
            opts.budget, opts.technique, opts.manipulator
        );
    }
    let tuning_executor = spec.build();
    // Session errors (unreadable or mismatched --resume journal, bad
    // --technique) are operator errors, not bugs: report and exit 1.
    let result = match session.run(tuning_executor.as_ref(), opts, name) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("tune: {e}");
            return Ok(1);
        }
    };
    if local.json {
        let _ = writeln!(out, "{}", result.session.to_json());
        return Ok(0);
    }
    let _ = writeln!(
        out,
        "default {:.3}s -> best {:.3}s  ({:+.1}%)  [{} candidates]",
        result.session.default_secs,
        result.session.best_secs,
        result.improvement_percent(),
        result.session.evaluations
    );
    if local.minimize {
        let _ = writeln!(
            out,
            "\nmeasuring marginal flag impacts (reverting one at a time)..."
        );
        let impact_executor = spec.with_fault(None).build();
        let opts = ImpactOptions::default();
        let impacts = flag_impact(impact_executor.as_ref(), &result.best_config, opts);
        let (load_bearing, hitchhikers) = split_hitchhikers(impacts, opts.hitchhiker_threshold);
        let _ = writeln!(out, "{:<44} {:>10}", "flag", "impact");
        for i in &load_bearing {
            let _ = writeln!(
                out,
                "{:<44} {:>9.1}%",
                format!("{}={}", i.name, i.value),
                i.impact_percent
            );
        }
        let _ = writeln!(
            out,
            "(+ {} inert hitchhiker flags omitted)",
            hitchhikers.len()
        );
    } else {
        let _ = writeln!(out, "\nrecommended flags:");
        for f in &result.session.best_delta {
            let _ = writeln!(out, "  {f}");
        }
    }
    Ok(0)
}

/// Tune every program of a suite through the experiment runner: one
/// session per program, side by side, each traced to its own file.
fn cmd_suite(rest: &[String]) -> Result<i32, String> {
    let mut out = std::io::stdout();
    let (args, base, local) = parse_tune("suite", rest)?;
    let (suite, workloads) = match args.positional(0) {
        Some("spec") => ("SPECjvm2008 startup", specjvm2008_startup()),
        Some("dacapo") => ("DaCapo", dacapo()),
        Some(other) => return Err(format!("unknown suite {other:?}")),
        None => return Err("suite: expected `spec` or `dacapo`".to_string()),
    };
    // Suite sessions run side by side, and a journal belongs to one.
    if base.checkpoint.is_some() || base.resume.is_some() {
        return Err("suite: --checkpoint/--resume journal one session; use `jtune tune`".into());
    }
    let trace = local.trace.map(PathBuf::from);
    if trace.as_ref().is_some_and(|path| path.is_file()) {
        return Err("suite: --trace names a directory of traces, not a file".into());
    }
    let mut exp = Experiment::new(base);
    args.apply(&mut exp.executor, EXECUTOR_OPTIONS)?;
    exp.telemetry = ExperimentTelemetry::new(trace, local.progress);
    let rows = exp.run(exp.suite(workloads));
    if local.json {
        let records: Vec<String> = rows.iter().map(|r| r.result.session.to_json()).collect();
        let _ = writeln!(out, "{}", json::array_of(&records));
    } else {
        let budget = exp.options.budget.as_mins_f64();
        let title = format!("{suite}, {budget}-minute budget per program");
        let _ = write!(out, "{}", render_suite_table(&title, &rows));
    }
    Ok(0)
}

fn cmd_serve(rest: &[String]) -> Result<i32, String> {
    let args = Args::parse("serve", rest, surface("serve"), 0)?;
    let mut local = Local::default();
    let mut config = ServerConfig::new("jtune-state");
    args.apply(&mut local, LISTEN)?;
    args.apply(&mut config, SERVER_OPTIONS)?;
    args.apply(&mut config.net_faults, NET_FAULT_OPTIONS)?;
    let listen = local.listen.as_deref().unwrap_or(DEFAULT_ADDR);
    let listener = match std::net::TcpListener::bind(listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: cannot listen on {listen}: {e}");
            return Ok(1);
        }
    };
    let server = match TuneServer::new(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot open state dir: {e}");
            return Ok(1);
        }
    };
    // Print the bound address (matters with `--listen 127.0.0.1:0`) so
    // scripts and tests can discover the ephemeral port.
    match listener.local_addr() {
        Ok(addr) => {
            println!("listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("serve: cannot read bound address: {e}");
            return Ok(1);
        }
    }
    Ok(match server.serve(listener) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    })
}

fn cmd_worker(rest: &[String]) -> Result<i32, String> {
    let args = Args::parse("worker", rest, surface("worker"), 0)?;
    let mut options = WorkerOptions::new("");
    args.apply(&mut options, WORKER_OPTIONS)?;
    args.apply(&mut options.backoff, BACKOFF_OPTIONS)?;
    args.apply(&mut options.net_faults, NET_FAULT_OPTIONS)?;
    if options.addr.is_empty() {
        return Err("worker: missing --connect HOST:PORT".to_string());
    }
    println!(
        "worker connecting to {} ({} slot{})",
        options.addr,
        options.slots,
        if options.slots == 1 { "" } else { "s" }
    );
    // Run until the daemon drains (clean exit). A dropped connection
    // is retried with jittered backoff per --retries/--retry-max-ms;
    // exit 1 means a whole reconnect budget was exhausted without
    // registering.
    Ok(match hotspot_autotuner::server::run_worker(&options) {
        Ok(stats) => {
            println!(
                "worker {} drained: {} completed, {} failed",
                stats.wid, stats.completed, stats.failed
            );
            0
        }
        Err(e) => {
            eprintln!("worker: {e}");
            1
        }
    })
}

fn cmd_client(rest: &[String]) -> Result<i32, String> {
    let Some((sub, rest)) = rest.split_first() else {
        return Err(
            "client: expected submit|status|watch|result|cancel|stats|shutdown".to_string(),
        );
    };
    // submit takes a workload positional; watch/result/cancel a session
    // ID; status/stats an optional session ID; shutdown none.
    let args = Args::parse(
        &format!("client {sub}"),
        rest,
        surface("client"),
        usize::from(sub != "shutdown"),
    )?;
    let mut local = Local::default();
    let mut spec = SessionSpec::new("");
    // --retries 0 (the client default) preserves single-shot behaviour;
    // with retries on, `overloaded` rejections and connection failures
    // back off and try again.
    let mut policy = BackoffPolicy::default();
    policy.retry.max_retries = 0;
    args.apply(&mut local, CLIENT)?;
    args.apply(&mut spec, SESSION_OPTIONS)?;
    args.apply(&mut policy, BACKOFF_OPTIONS)?;
    let addr = local.addr.as_deref().unwrap_or(DEFAULT_ADDR);
    let positional = args.positional(0);
    let sid = || -> Result<u64, String> {
        positional
            .ok_or("missing session ID")?
            .parse()
            .map_err(|_| "session ID must be an integer".to_string())
    };
    let maybe_sid = || positional.map(|_| sid()).transpose();
    let outcome = match sub.as_str() {
        "submit" => positional
            .ok_or("missing workload name".to_string())
            .and_then(|program| {
                spec.program = program.to_string();
                // Not idempotent: a submit cut off mid-flight may already
                // be admitted, so only `overloaded`/connect failures retry.
                with_retries(addr, &policy, false, |client| client.submit(spec.clone()))
                    .map(|sid| println!("{sid}"))
                    .map_err(|e| e.to_string())
            }),
        "status" | "stats" => maybe_sid().and_then(|sid| {
            let request = match sub.as_str() {
                "status" => Request::Status { sid },
                _ => Request::Stats { sid },
            };
            with_retries(addr, &policy, true, |client| {
                client.round_trip_raw(&request)
            })
            .map(|line| println!("{line}"))
            .map_err(|e| e.to_string())
        }),
        "watch" => sid().and_then(|sid| {
            // Streaming: replaying a half-watched session would repeat
            // events, so only connect failures/overloaded retry.
            with_retries(addr, &policy, false, |client| {
                client.watch(sid, |event| println!("{event}")).map(|_| ())
            })
            .map_err(|e| e.to_string())
        }),
        "result" => sid().and_then(|sid| {
            with_retries(addr, &policy, true, |client| client.result(sid))
                .map(|record| println!("{record}"))
                .map_err(|e| e.to_string())
        }),
        "cancel" => sid().and_then(|sid| {
            with_retries(addr, &policy, false, |client| client.cancel(sid))
                .map(|()| println!("cancelled {sid}"))
                .map_err(|e| e.to_string())
        }),
        "shutdown" => {
            let drain = !local.no_drain;
            with_retries(addr, &policy, false, |client| client.shutdown(drain))
                .map(|()| println!("shutdown acknowledged (drain: {drain})"))
                .map_err(|e| e.to_string())
        }
        other => return Err(format!("client: unknown subcommand {other:?}")),
    };
    Ok(match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("client {sub}: {e}");
            1
        }
    })
}

fn cmd_report(rest: &[String]) -> Result<i32, String> {
    let args = Args::parse("report", rest, surface("report"), 1)?;
    let mut local = Local::default();
    args.apply(&mut local, REPORT)?;
    let input = args
        .positional(0)
        .ok_or("report: missing input (a trace file, session/experiment/state directory)")?;
    let report = match hotspot_autotuner::report::load(std::path::Path::new(input)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("report: {e}");
            return Ok(1);
        }
    };
    let format = local.format.unwrap_or(Format::Markdown);
    let rendered = hotspot_autotuner::report::render(&report, format);
    match local.out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                eprintln!("report: cannot write {path}: {e}");
                return Ok(1);
            }
        }
        None => {
            let _ = std::io::stdout().write_all(rendered.as_bytes());
        }
    }
    Ok(0)
}

fn cmd_simulate(rest: &[String]) -> i32 {
    let Some(name) = rest.first() else {
        eprintln!("simulate: missing workload name");
        return 2;
    };
    let Some(workload) = workload_by_name(name) else {
        eprintln!("unknown workload {name:?}");
        return 2;
    };
    let registry = hotspot_registry();
    let flag_args: Vec<String> = rest[1..]
        .iter()
        .filter(|a| *a != "--gclog")
        .cloned()
        .collect();
    let config = match JvmConfig::parse_args(registry, &flag_args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad flags: {e}");
            return 2;
        }
    };
    let gclog = rest.iter().any(|a| a == "--gclog");
    let mut out = std::io::stdout();
    let executor = SimExecutor::new(workload);
    let outcome = executor.run_full(&config, 1);
    if gclog {
        let machine = hotspot_autotuner::jvmsim::Machine::default();
        match hotspot_autotuner::jvmsim::FlagView::resolve(registry, &config, &machine) {
            Ok((view, _)) => {
                let log = hotspot_autotuner::jvmsim::gclog::render(&outcome, view.collector);
                let _ = out.write_all(log.as_bytes());
            }
            // The VM refused to start (e.g. conflicting collector
            // selections): there is no collector to render a log for.
            Err(e) => eprintln!("run FAILED: {e}"),
        }
        return if outcome.ok() { 0 } else { 1 };
    }
    if let Some(f) = &outcome.failure {
        let _ = writeln!(out, "run FAILED: {f}");
        return 1;
    }
    let _ = writeln!(out, "total      {}", outcome.total);
    let _ = writeln!(out, "startup    {}", outcome.breakdown.startup);
    let _ = writeln!(out, "mutator    {}", outcome.breakdown.mutator);
    let _ = writeln!(
        out,
        "gc pauses  {} ({} young, {} full, p99 {})",
        outcome.breakdown.gc_pause,
        outcome.gc.young_collections,
        outcome.gc.full_collections,
        outcome.gc.pauses.percentile(99.0)
    );
    let _ = writeln!(out, "gc drag    {}", outcome.breakdown.gc_concurrent_drag);
    let _ = writeln!(
        out,
        "jit stalls {} ({} C1 + {} C2 compiles, {:.0}% of work at C2)",
        outcome.breakdown.jit_stall,
        outcome.jit.c1_compiles,
        outcome.jit.c2_compiles,
        outcome.jit.c2_work_fraction * 100.0
    );
    let _ = writeln!(out, "peak heap  {:.1} MB", outcome.peak_heap / 1e6);
    for w in &outcome.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    0
}

fn cmd_flags(rest: &[String]) -> i32 {
    let registry = hotspot_registry();
    let filter = rest.first().map(String::as_str).unwrap_or("");
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut shown = 0;
    for (_, spec) in registry.iter() {
        if !filter.is_empty() && !spec.name.to_lowercase().contains(&filter.to_lowercase()) {
            continue;
        }
        shown += 1;
        // Ignore write errors: a closed pipe (`jtune flags | head`) is a
        // normal way to consume this listing.
        if writeln!(
            out,
            "{:<40} {:<22} default={:<12} {}",
            spec.name,
            spec.category.name(),
            spec.default.to_string(),
            spec.desc
        )
        .is_err()
        {
            return 0;
        }
    }
    let _ = writeln!(out, "\n{shown} of {} flags shown", registry.len());
    0
}

fn cmd_tree() -> i32 {
    let registry = hotspot_registry();
    let tree = hotspot_tree();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    // Ignore write errors: a closed pipe (`jtune tree | head`) is a
    // normal way to consume this listing.
    if write!(out, "{}", tree.render_skeleton(registry)).is_err() {
        return 0;
    }
    let stats = SpaceStats::compute(tree, registry);
    let _ = writeln!(
        out,
        "\nflat space: 10^{:.0} configurations over {} tunable flags",
        stats.flat_log10, stats.tunable_flags
    );
    let _ = writeln!(
        out,
        "hierarchical space: 10^{:.0}  (10^{:.0} smaller)",
        stats.hierarchical_log10,
        stats.reduction_log10()
    );
    0
}

fn cmd_workloads() -> i32 {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let _ = writeln!(out, "SPECjvm2008 startup (16):");
    for w in specjvm2008_startup() {
        if writeln!(
            out,
            "  spec:{:<22} work {:>8.1e}  live {:>5.0} MB  {} threads",
            w.name,
            w.total_work,
            w.live_set / 1e6,
            w.threads
        )
        .is_err()
        {
            return 0;
        }
    }
    let _ = writeln!(out, "DaCapo (13):");
    for w in dacapo() {
        if writeln!(
            out,
            "  dacapo:{:<20} work {:>8.1e}  live {:>5.0} MB  {} threads",
            w.name,
            w.total_work,
            w.live_set / 1e6,
            w.threads
        )
        .is_err()
        {
            return 0;
        }
    }
    0
}
