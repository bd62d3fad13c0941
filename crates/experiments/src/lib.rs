//! # jtune-experiments
//!
//! Shared machinery for the experiment drivers (`e1_specjvm` …
//! `e10_model`), one binary per table/figure of the paper. See
//! DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.
//!
//! Each driver parses its run once, in `main`, with
//! [`Experiment::from_env`]: its command line first, then the
//! environment. It accepts exactly the option rows that name a `JTUNE_*`
//! variable — in [`TUNER_OPTIONS`], [`EXECUTOR_OPTIONS`] and
//! [`EXPERIMENT_OPTIONS`] — and lists them on a usage error. The
//! drivers' own defaults replace two of the rows': the budget is the
//! experiment's paper value and the master seed is 7. Every pipeline
//! feature defaults **off**, in which case every driver produces output
//! byte-identical to the published `results/` tables.
//!
//! By default every tuning session streams its trial events to
//! `results/traces/<experiment>/<label>.jsonl`, and after the run every
//! session-running driver renders that directory into `<dir>/report.md`
//! via [`ExperimentTelemetry::write_report`] (plus `<dir>/metrics.txt`,
//! a [`MetricsRegistry`] aggregated over the run, with spans on). Spans
//! are ephemeral: the JSONL traces stay byte-identical either way.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::Arc;

use autotuner_core::{Tuner, TunerOptions, TuningResult, TUNER_OPTIONS};
use jtune_harness::{ExecutorSpec, FaultPlan, EXECUTOR_OPTIONS};
use jtune_jvmsim::Workload;
use jtune_telemetry::{JsonlSink, MetricsRegistry, ProgressReporter, TelemetryBus};
use jtune_util::cli::{self, Args, Opt, Table};
use jtune_util::table::{fnum, fpct, Align, Table as TextTable};
use jtune_util::{stats, SimDuration};

/// A tuned program's headline row.
#[derive(Clone, Debug)]
pub struct SuiteRow {
    /// Program name.
    pub program: String,
    /// Default run time (s).
    pub default_secs: f64,
    /// Tuned run time (s).
    pub tuned_secs: f64,
    /// Improvement % (speedup − 1).
    pub improvement: f64,
    /// Evaluations within budget.
    pub evaluations: u64,
    /// Distinct configurations actually measured (excludes cache hits).
    pub distinct: u64,
    /// Trials served from the trial cache.
    pub cache_hits: u64,
    /// Trials aborted early by sequential racing.
    pub aborted: u64,
    /// Transient-failure repeats recovered by the retry policy.
    pub retried: u64,
    /// Configurations quarantined for failing deterministically.
    pub quarantined: u64,
    /// Proposals rejected by the surrogate screen before measurement.
    pub screened: u64,
    /// Surrogate model refits over the session.
    pub model_fits: u64,
    /// Best configuration delta.
    pub best_delta: Vec<String>,
    /// Full result (for convergence-style post-processing).
    pub result: TuningResult,
}

/// Standard tuner options for an experiment session, with every
/// pipeline feature off; [`Experiment::tuner_options`] adds the ones
/// the run asked for.
pub fn tuner_options(budget_minutes: u64, seed: u64) -> TunerOptions {
    TunerOptions::builder()
        .budget(SimDuration::from_mins(budget_minutes))
        .seed(seed)
        .workers(
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
        )
        .batch(8)
        .build()
        .expect("standard experiment options are valid")
}

/// The options only the experiment drivers have.
#[rustfmt::skip]
pub const EXPERIMENT_OPTIONS: &[Opt<Experiment>] = &[
    Opt::env("JTUNE_TRACE_DIR", "--trace DIR", "results/traces", "write session traces under DIR/<experiment>/",
        |e, v| { e.telemetry.dir = Some(v.into()); Ok(()) }),
    Opt::env("JTUNE_NO_TRACE", "--no-trace", "off", "write no traces and no report",
        |e, _| { e.telemetry.dir = None; Ok(()) }),
    Opt::env("JTUNE_PROGRESS", "--progress", "off", "report live tuning progress on stderr",
        |e, _| { e.telemetry.progress = true; Ok(()) }),
    Opt::env("JTUNE_SPANS", "--spans", "off", "timing spans plus run-wide metrics in <dir>/metrics.txt",
        |e, _| { e.telemetry.spans = true; Ok(()) }),
];

/// Every table a driver parses; only rows naming a variable count.
const SURFACE: &[&dyn Table] = &[&TUNER_OPTIONS, &EXECUTOR_OPTIONS, &EXPERIMENT_OPTIONS];

/// One driver run, parsed once in `main` (see the crate docs).
#[derive(Clone, Debug)]
pub struct Experiment {
    /// The options every session starts from: [`tuner_options`] with
    /// the requested pipeline features, the run's budget and its
    /// master seed.
    pub options: TunerOptions,
    /// Fault injection requested for the run; `None` injects nothing.
    pub fault: Option<FaultPlan>,
    /// Where traces go and whether progress and spans are on.
    pub telemetry: ExperimentTelemetry,
}

impl Experiment {
    /// Parse the process's arguments and environment for driver `name`
    /// with its default budget; on a bad option, print it and the
    /// accepted options, then exit with status 2.
    pub fn from_env(name: &str, budget_mins: u64) -> Experiment {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let env = |var: &str| std::env::var(var).ok();
        Experiment::parse(name, budget_mins, &argv, &env).unwrap_or_else(|e| {
            let options = cli::reference(SURFACE, true);
            eprintln!(
                "{e}\n\noptions, or their [variables] (here the budget defaults to \
                 {budget_mins} and the seed to 7):\n{options}"
            );
            std::process::exit(2)
        })
    }

    /// Parse `argv`, then the variables `env` looks up, for driver
    /// `name` with its default budget.
    pub fn parse(
        name: &str,
        budget_mins: u64,
        argv: &[String],
        env: &dyn Fn(&str) -> Option<String>,
    ) -> Result<Experiment, String> {
        let args = Args::parse_env(name, argv, SURFACE, env)?;
        let mut exp = Experiment {
            options: tuner_options(budget_mins, 7),
            fault: None,
            telemetry: ExperimentTelemetry {
                dir: Some(PathBuf::from("results/traces")),
                ..ExperimentTelemetry::disabled()
            },
        };
        args.apply(&mut exp.options, TUNER_OPTIONS)?;
        exp.options
            .validate()
            .map_err(|e| format!("{name}: invalid options: {e}"))?;
        // The executor rows only set layers, so any workload carries them.
        let mut layers = ExecutorSpec::sim(Workload::baseline(name));
        args.apply(&mut layers, EXECUTOR_OPTIONS)?;
        exp.fault = layers.fault;
        args.apply(&mut exp, EXPERIMENT_OPTIONS)?;
        exp.telemetry.dir = exp.telemetry.dir.map(|dir| dir.join(name));
        Ok(exp)
    }

    /// The run's tuning budget in minutes.
    pub fn budget_mins(&self) -> u64 {
        self.options.budget.as_mins_f64() as u64
    }

    /// The run's master seed.
    pub fn seed(&self) -> u64 {
        self.options.seed
    }

    /// Options for one session: the run's features with this budget and
    /// seed.
    pub fn tuner_options(&self, budget_minutes: u64, seed: u64) -> TunerOptions {
        TunerOptions {
            budget: SimDuration::from_mins(budget_minutes),
            seed,
            ..self.options.clone()
        }
    }

    /// Tune one workload under the run's fault plan.
    pub fn tune(&self, workload: Workload, opts: TunerOptions, bus: &TelemetryBus) -> SuiteRow {
        tune_program_with(workload, opts, self.fault, bus)
    }

    /// Tune an entire suite, one trace per program, each program seeded
    /// by [`suite_sessions`].
    pub fn tune_suite(&self, workloads: Vec<Workload>) -> Vec<SuiteRow> {
        let base = self.tuner_options(self.budget_mins(), self.seed());
        suite_sessions(&base, workloads)
            .map(|(w, opts)| {
                let bus = self.telemetry.bus_for(&w.name);
                self.tune(w, opts, &bus)
            })
            .collect()
    }
}

/// The suite loop: each workload in order, paired with `base` reseeded
/// for its position. Program `i` of a run with master seed `s` is tuned
/// under `s ^ ((i + 1) << 32) ^ i`: distinct per program, so sessions
/// are independent, and a pure function of the two, so every suite run
/// is reproducible. `jtune suite`, the experiment drivers and the
/// `tune_suite` example all loop here, so one seed gives one table
/// everywhere.
pub fn suite_sessions(
    base: &TunerOptions,
    workloads: Vec<Workload>,
) -> impl Iterator<Item = (Workload, TunerOptions)> + '_ {
    workloads.into_iter().enumerate().map(|(i, w)| {
        let seed = base.seed ^ ((i as u64 + 1) << 32) ^ i as u64;
        (
            w,
            TunerOptions {
                seed,
                ..base.clone()
            },
        )
    })
}

/// Per-experiment telemetry configuration: where (and whether) each
/// tuning session's JSONL trace goes, and whether to report live
/// progress on stderr. Set by [`EXPERIMENT_OPTIONS`].
#[derive(Clone, Debug)]
pub struct ExperimentTelemetry {
    /// Trace directory (`None` when tracing is disabled).
    dir: Option<PathBuf>,
    /// Attach a stderr progress reporter to every session.
    progress: bool,
    /// Emit timing spans and aggregate a metrics registry across the run.
    spans: bool,
    /// Run-wide metrics, fed by every session's bus when `spans` is on.
    metrics: Arc<MetricsRegistry>,
}

impl ExperimentTelemetry {
    /// Telemetry that records nothing (unit tests, library callers).
    pub fn disabled() -> ExperimentTelemetry {
        ExperimentTelemetry {
            dir: None,
            progress: false,
            spans: false,
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Build the bus for one session. `label` names the trace file
    /// (`<dir>/<label>.jsonl`, with path-hostile characters replaced).
    pub fn bus_for(&self, label: &str) -> TelemetryBus {
        let mut bus = TelemetryBus::new().with_spans(self.spans);
        if let Some(dir) = &self.dir {
            let file = format!("{}.jsonl", label.replace([':', '/', '\\', ' '], "-"));
            match JsonlSink::create(dir.join(file)) {
                Ok(sink) => {
                    bus.add(Arc::new(sink));
                }
                Err(e) => eprintln!("warning: trace disabled for {label}: {e}"),
            }
        }
        if self.spans {
            bus.add(Arc::clone(&self.metrics) as Arc<dyn jtune_telemetry::TuningObserver>);
        }
        if self.progress {
            bus.add(Arc::new(ProgressReporter::stderr()));
        }
        bus
    }

    /// The run-wide metrics registry (non-empty only when spans are on).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Render everything the run left in the trace directory into
    /// `<dir>/report.md` (plus `<dir>/metrics.txt` when spans are on).
    /// No-op when tracing is disabled; rendering problems are warned
    /// about on stderr but never fail the experiment. Returns the
    /// report path when one was written.
    pub fn write_report(&self) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        if self.spans {
            let _ = std::fs::write(dir.join("metrics.txt"), self.metrics.render());
        }
        let report = match jtune_report::load(dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("warning: report skipped: {e}");
                return None;
            }
        };
        let path = dir.join("report.md");
        match std::fs::write(&path, jtune_report::to_markdown(&report)) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: report skipped: {e}");
                None
            }
        }
    }
}

/// Tune one workload with the given options and fault plan, emitting
/// telemetry on `bus` (pass [`TelemetryBus::disabled()`] for a silent
/// run). `Some(plan)` wraps the simulator in a
/// [`FaultyExecutor`](jtune_harness::FaultyExecutor), `None` runs
/// fault-free. The stack is built from the shared [`ExecutorSpec`]
/// description, the same path the CLI and daemon sessions use.
pub fn tune_program_with(
    workload: Workload,
    opts: TunerOptions,
    fault: Option<FaultPlan>,
    bus: &TelemetryBus,
) -> SuiteRow {
    let name = workload.name.clone();
    let executor = ExecutorSpec::sim(workload)
        .with_fault(fault.filter(FaultPlan::is_active))
        .build();
    SuiteRow::from(Tuner::new(opts).run(executor.as_ref(), &name, bus))
}

impl From<TuningResult> for SuiteRow {
    fn from(result: TuningResult) -> SuiteRow {
        let s = &result.session;
        SuiteRow {
            program: s.program.clone(),
            default_secs: s.default_secs,
            tuned_secs: s.best_secs,
            improvement: result.improvement_percent(),
            evaluations: s.evaluations,
            distinct: s.distinct,
            cache_hits: s.cache_hits,
            aborted: s.aborted,
            retried: s.retried,
            quarantined: s.quarantined,
            screened: s.screened,
            model_fits: s.model_fits,
            best_delta: s.best_delta.clone(),
            result,
        }
    }
}

/// Render the paper-style suite table (per-program default/tuned times and
/// improvement, plus the average row the abstract quotes). When any row
/// shows evaluation-pipeline activity (cache hits or racing aborts) the
/// table grows `distinct`/`hits`/`aborted` columns; when any row shows
/// fault-tolerance activity (retries or quarantines) it grows
/// `retried`/`quarantined` columns; when any row shows model activity
/// (screened proposals or surrogate fits) it grows `screened`/`fits`
/// columns; with the features off the layout is byte-identical to the
/// published tables.
pub fn render_suite_table(title: &str, rows: &[SuiteRow]) -> String {
    let pipeline = rows.iter().any(|r| r.cache_hits > 0 || r.aborted > 0);
    let faults = rows.iter().any(|r| r.retried > 0 || r.quarantined > 0);
    let model = rows.iter().any(|r| r.screened > 0 || r.model_fits > 0);
    let mut headers = vec![
        "program",
        "default (s)",
        "tuned (s)",
        "improvement",
        "evals",
    ];
    let mut aligns = vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ];
    if pipeline {
        headers.extend(["distinct", "hits", "aborted"]);
        aligns.extend([Align::Right, Align::Right, Align::Right]);
    }
    if faults {
        headers.extend(["retried", "quarantined"]);
        aligns.extend([Align::Right, Align::Right]);
    }
    if model {
        headers.extend(["screened", "fits"]);
        aligns.extend([Align::Right, Align::Right]);
    }
    let mut t = TextTable::new(&headers, &aligns);
    for r in rows {
        let mut row = vec![
            r.program.clone(),
            fnum(r.default_secs, 2),
            fnum(r.tuned_secs, 2),
            fpct(r.improvement),
            r.evaluations.to_string(),
        ];
        if pipeline {
            row.extend([
                r.distinct.to_string(),
                r.cache_hits.to_string(),
                r.aborted.to_string(),
            ]);
        }
        if faults {
            row.extend([r.retried.to_string(), r.quarantined.to_string()]);
        }
        if model {
            row.extend([r.screened.to_string(), r.model_fits.to_string()]);
        }
        t.row(row);
    }
    t.rule();
    let improvements: Vec<f64> = rows.iter().map(|r| r.improvement).collect();
    let avg = stats::Summary::from_slice(&improvements).mean();
    let mut avg_row = vec![
        "average".to_string(),
        String::new(),
        String::new(),
        fpct(avg),
        String::new(),
    ];
    if pipeline {
        avg_row.extend([String::new(), String::new(), String::new()]);
    }
    if faults {
        avg_row.extend([String::new(), String::new()]);
    }
    if model {
        avg_row.extend([String::new(), String::new()]);
    }
    t.row(avg_row);
    let mut sorted = improvements.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let top: Vec<String> = sorted.iter().take(3).map(|x| fpct(*x)).collect();
    format!(
        "== {title} ==\n{}\naverage improvement: {avg:.1}%   top-3: {}\n",
        t.render(),
        top.join(", ")
    )
}

/// Best-so-far improvement at a virtual-time checkpoint, from a session's
/// trial log (used by the convergence and budget-sensitivity experiments —
/// one long session yields the whole curve).
pub fn improvement_at(row: &SuiteRow, minutes: f64) -> f64 {
    let cutoff = minutes * 60.0;
    let mut best = row.default_secs;
    for t in &row.result.session.trials {
        if t.at_secs <= cutoff {
            if let Some(s) = t.score_secs {
                if s < best {
                    best = s;
                }
            }
        }
    }
    stats::improvement_percent(row.default_secs, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotuner_core::ModelPolicy;
    use jtune_harness::{QuarantinePolicy, RetryPolicy};
    use jtune_workloads::workload_by_name;

    fn parse(line: &str, vars: &[(&str, &str)]) -> Result<Experiment, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let env = |name: &str| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        };
        Experiment::parse("e0", 200, &argv, &env)
    }

    #[test]
    fn defaults_reproduce_the_published_tables() {
        let exp = parse("", &[]).unwrap();
        let plain = tuner_options(200, 7);
        assert_eq!(exp.options.signature(), plain.signature());
        assert_eq!((exp.budget_mins(), exp.seed()), (200, 7));
        assert!(exp.fault.is_none());
        assert_eq!(exp.telemetry.dir, Some(PathBuf::from("results/traces/e0")));
    }

    #[test]
    fn switch_variables_are_off_when_zero_or_empty() {
        for off in ["0", ""] {
            let exp = parse("", &[("JTUNE_MODEL", off), ("JTUNE_CACHE", off)]).unwrap();
            assert!(exp.options.model.is_none(), "JTUNE_MODEL={off:?}");
            assert!(exp.options.cache.is_none(), "JTUNE_CACHE={off:?}");
            let exp = parse("", &[("JTUNE_FAIL_FAST", off)]).unwrap();
            assert!(!exp.options.protocol.fail_fast, "JTUNE_FAIL_FAST={off:?}");
            let exp = parse("", &[("JTUNE_NO_TRACE", off)]).unwrap();
            assert!(exp.telemetry.dir.is_some(), "JTUNE_NO_TRACE={off:?}");
        }
        let exp = parse("", &[("JTUNE_MODEL", "1"), ("JTUNE_FAIL_FAST", "1")]).unwrap();
        assert_eq!(exp.options.model, Some(ModelPolicy::default()));
        assert!(exp.options.protocol.fail_fast);
    }

    #[test]
    fn argv_and_environment_set_the_same_rows() {
        let vars = [
            ("JTUNE_BUDGET_MINS", "20"),
            ("JTUNE_SEED", "3"),
            ("JTUNE_FAULT_RATE", "0.05"),
            ("JTUNE_SCREEN_RATIO", "2"),
            ("JTUNE_TRACE_DIR", "/tmp/t"),
        ];
        let exp = parse("--budget 30 --no-trace", &vars).unwrap();
        assert_eq!((exp.budget_mins(), exp.seed()), (30, 3), "argv wins");
        assert_eq!(
            exp.fault,
            Some(FaultPlan::transient(0.05, FaultPlan::DEFAULT_SEED))
        );
        assert_eq!(exp.options.model.map(|m| m.screen_ratio), Some(2.0));
        assert_eq!(exp.telemetry.dir, None, "--no-trace beats the trace dir");
        let opts = exp.tuner_options(5, 9);
        assert_eq!((opts.budget, opts.seed), (SimDuration::from_mins(5), 9));
        assert_eq!(opts.signature(), exp.options.signature());
    }

    #[test]
    fn malformed_values_and_unknown_flags_are_errors() {
        for (line, vars, want) in [
            (
                "",
                &[("JTUNE_BUDGET_MINS", "3m")][..],
                "JTUNE_BUDGET_MINS \"3m\" is not",
            ),
            (
                "",
                &[("JTUNE_FAULT_RATE", "5%")][..],
                "JTUNE_FAULT_RATE \"5%\" is not a number",
            ),
            (
                "",
                &[("JTUNE_RETRY_BACKOFF", "0.5")][..],
                "e0: invalid options",
            ),
            ("--modle", &[][..], "e0: unknown flag \"--modle\""),
            (
                "--technique random",
                &[][..],
                "e0: unknown flag \"--technique\"",
            ),
            ("--budget", &[][..], "e0: flag --budget requires a value"),
        ] {
            let err = parse(line, vars).err().unwrap_or_default();
            assert!(err.contains(want), "{line} {vars:?}: {err}");
        }
    }

    #[test]
    fn suite_sessions_reseed_each_program_by_position() {
        let base = tuner_options(200, 7);
        let seeds: Vec<u64> = suite_sessions(&base, jtune_workloads::specjvm2008_startup())
            .map(|(_, opts)| opts.seed)
            .collect();
        assert_eq!(seeds.len(), 16);
        assert_eq!(seeds[0], 7 ^ (1 << 32));
        assert_eq!(seeds[2], 7 ^ (3 << 32) ^ 2);
        let (w, opts) = suite_sessions(&base, jtune_workloads::dacapo())
            .nth(1)
            .unwrap();
        assert_eq!(w.name, jtune_workloads::dacapo()[1].name);
        assert_eq!(
            (opts.budget, opts.signature()),
            (base.budget, base.signature()),
            "only the seed changes"
        );
    }

    #[test]
    fn tune_program_produces_consistent_row() {
        let w = workload_by_name("compress").unwrap();
        let mut opts = tuner_options(2, 1);
        opts.max_evaluations = Some(10);
        let row = tune_program_with(w, opts, None, &TelemetryBus::disabled());
        assert!(row.tuned_secs <= row.default_secs);
        assert!(
            (row.improvement - stats::improvement_percent(row.default_secs, row.tuned_secs)).abs()
                < 1e-9
        );
    }

    #[test]
    fn improvement_at_is_monotone_in_time() {
        let w = workload_by_name("serial").unwrap();
        let opts = tuner_options(5, 2);
        let row = tune_program_with(w, opts, None, &TelemetryBus::disabled());
        let early = improvement_at(&row, 1.0);
        let late = improvement_at(&row, 5.0);
        assert!(late >= early);
        assert!(improvement_at(&row, 0.0) >= 0.0);
    }

    #[test]
    fn render_table_contains_all_programs() {
        let w = workload_by_name("compress").unwrap();
        let mut opts = tuner_options(1, 3);
        opts.max_evaluations = Some(5);
        let rows = vec![tune_program_with(w, opts, None, &TelemetryBus::disabled())];
        let s = render_suite_table("t", &rows);
        assert!(s.contains("compress"));
        assert!(s.contains("average improvement"));
        // Pipeline features off: the published five-column layout.
        assert!(!s.contains("aborted"));
        assert!(!s.contains("retried"));
        assert!(!s.contains("quarantined"));
        assert!(!s.contains("screened"));
    }

    #[test]
    fn suite_table_grows_pipeline_columns_when_active() {
        let w = workload_by_name("compress").unwrap();
        let mut opts = tuner_options(1, 3);
        opts.max_evaluations = Some(5);
        let mut rows = vec![tune_program_with(w, opts, None, &TelemetryBus::disabled())];
        rows[0].cache_hits = 3;
        rows[0].aborted = 1;
        let s = render_suite_table("t", &rows);
        assert!(s.contains("distinct"));
        assert!(s.contains("hits"));
        assert!(s.contains("aborted"));
    }

    #[test]
    fn suite_table_grows_fault_columns_when_active() {
        let w = workload_by_name("compress").unwrap();
        let mut opts = tuner_options(1, 3);
        opts.max_evaluations = Some(5);
        let mut rows = vec![tune_program_with(w, opts, None, &TelemetryBus::disabled())];
        rows[0].retried = 2;
        rows[0].quarantined = 1;
        let s = render_suite_table("t", &rows);
        assert!(s.contains("retried"));
        assert!(s.contains("quarantined"));
        assert!(!s.contains("aborted"), "pipeline columns stay hidden");
    }

    #[test]
    fn suite_table_grows_model_columns_when_active() {
        let w = workload_by_name("compress").unwrap();
        let mut opts = tuner_options(1, 3);
        opts.max_evaluations = Some(5);
        let mut rows = vec![tune_program_with(w, opts, None, &TelemetryBus::disabled())];
        rows[0].screened = 4;
        rows[0].model_fits = 2;
        let s = render_suite_table("t", &rows);
        assert!(s.contains("screened"));
        assert!(s.contains("fits"));
        assert!(!s.contains("aborted"), "pipeline columns stay hidden");
        assert!(!s.contains("retried"), "fault columns stay hidden");
    }

    #[test]
    fn model_guided_session_screens_candidates() {
        let w = workload_by_name("compress").unwrap();
        let mut opts = tuner_options(10, 5);
        opts.model = Some(ModelPolicy::default());
        let row = tune_program_with(w, opts, None, &TelemetryBus::disabled());
        assert!(row.screened > 0, "screen never rejected a proposal");
        assert!(row.model_fits > 0, "surrogate never fitted");
        assert!(row.tuned_secs <= row.default_secs);
    }

    #[test]
    fn faulty_session_with_retries_still_improves() {
        let w = workload_by_name("serial").unwrap();
        let mut opts = tuner_options(3, 11);
        opts.max_evaluations = Some(40);
        opts.protocol.retry = Some(RetryPolicy::default());
        opts.quarantine = Some(QuarantinePolicy::default());
        let plan = FaultPlan::transient(0.05, FaultPlan::DEFAULT_SEED);
        let row = tune_program_with(w, opts, Some(plan), &TelemetryBus::disabled());
        assert!(row.tuned_secs <= row.default_secs);
    }
}
