//! # jtune-experiments
//!
//! Shared machinery for the experiment drivers (`e1_specjvm` …
//! `e10_model`), one binary per table/figure of the paper. See
//! DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.
//!
//! A driver lists its tuning sessions as [`Job`]s and hands them to
//! [`Experiment::run`], which traces each one and runs them side by side
//! at the machine's width; rows come back in job order. `jtune suite`
//! runs its sessions the same way.
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
use std::sync::{Arc, Mutex};

use autotuner_core::{Tuner, TunerOptions, TuningResult, TUNER_OPTIONS};
use jtune_harness::{ExecutorKind, ExecutorSpec, EXECUTOR_OPTIONS};
use jtune_jvmsim::Workload;
use jtune_telemetry::{JsonlSink, MetricsRegistry, ProgressReporter, TelemetryBus, TuningObserver};
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
    /// The executor rows the run parsed (a deadline and a fault plan) on
    /// a placeholder simulator; [`Experiment::job`] puts each session's
    /// program in its place.
    pub executor: ExecutorSpec,
    /// Where traces go and whether progress and spans are on.
    pub telemetry: ExperimentTelemetry,
}

impl Experiment {
    /// A run that starts every session from `options`, adds no executor
    /// layers and records no telemetry.
    pub fn new(options: TunerOptions) -> Experiment {
        Experiment {
            options,
            executor: ExecutorSpec::sim(Workload::baseline("experiment")),
            telemetry: ExperimentTelemetry::new(None, false),
        }
    }

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
        let mut exp = Experiment::new(tuner_options(budget_mins, 7));
        exp.telemetry.dir = Some(PathBuf::from("results/traces"));
        args.apply(&mut exp.options, TUNER_OPTIONS)?;
        exp.options
            .validate()
            .map_err(|e| format!("{name}: invalid options: {e}"))?;
        args.apply(&mut exp.executor, EXECUTOR_OPTIONS)?;
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

    /// A session tuning `workload` under `options` and the run's
    /// executor layers, traced as `label`.
    pub fn job(&self, label: impl Into<String>, workload: Workload, options: TunerOptions) -> Job {
        Job {
            label: label.into(),
            executor: ExecutorSpec {
                kind: ExecutorKind::Sim(workload),
                ..self.executor.clone()
            },
            options,
        }
    }

    /// An entire suite at the run's budget, one session per program
    /// labelled by its name and seeded by [`suite_sessions`].
    pub fn suite(&self, workloads: Vec<Workload>) -> Vec<Job> {
        suite_sessions(&self.options, workloads)
            .map(|(w, opts)| self.job(w.name.clone(), w, opts))
            .collect()
    }

    /// Run every job and return its row, in job order. Sessions are
    /// independent, so they run side by side on as many threads as the
    /// machine offers (`taskset` or a cgroup lowers that), each with one
    /// evaluation worker; `workers` never changes a result, so rows and
    /// traces are the same at any width. A panicking session panics the
    /// caller.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<SuiteRow> {
        let width = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_at(jobs, width)
    }

    /// [`Experiment::run`] on at most `width` threads, the caller's
    /// included.
    fn run_at(&self, jobs: Vec<Job>, width: usize) -> Vec<SuiteRow> {
        let width = width.clamp(1, jobs.len().max(1));
        let queue = Mutex::new(jobs.into_iter().enumerate());
        let next = || queue.lock().unwrap_or_else(|p| p.into_inner()).next();
        let work = || {
            let mut done = Vec::new();
            while let Some((i, job)) = next() {
                done.push((i, self.telemetry.tune(job)));
            }
            done
        };
        let mut done = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..width).map(|_| s.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                done.extend(
                    helper
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p)),
                );
            }
            done
        });
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, row)| row).collect()
    }
}

/// One tuning session of a run, for [`Experiment::run`].
#[derive(Clone, Debug)]
pub struct Job {
    /// Names the session's trace, `<dir>/<label>.jsonl`.
    pub label: String,
    /// The executor stack to tune on, built as `jtune tune` builds its
    /// own: the program's simulator, a deadline, a fault plan.
    pub executor: ExecutorSpec,
    /// The session's options; the runner sets one evaluation worker.
    pub options: TunerOptions,
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
    /// Trace each session to `<dir>/<label>.jsonl` when `dir` is set and
    /// report live progress on stderr when `progress` is; no spans.
    pub fn new(dir: Option<PathBuf>, progress: bool) -> ExperimentTelemetry {
        ExperimentTelemetry {
            dir,
            progress,
            spans: false,
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Run one job with its own bus: a trace at `<dir>/<label>.jsonl`
    /// (path-hostile characters replaced), the run-wide metrics when
    /// spans are on, and a progress reporter when asked for.
    fn tune(&self, job: Job) -> SuiteRow {
        let mut bus = TelemetryBus::new().with_spans(self.spans);
        let mut trace = None;
        if let Some(dir) = &self.dir {
            let file = format!("{}.jsonl", job.label.replace([':', '/', '\\', ' '], "-"));
            let path = dir.join(file);
            match JsonlSink::create(&path) {
                Ok(sink) => {
                    let sink = Arc::new(sink);
                    bus.add(Arc::clone(&sink) as Arc<dyn TuningObserver>);
                    trace = Some((path, sink));
                }
                Err(e) => eprintln!("warning: trace disabled for {}: {e}", job.label),
            }
        }
        if self.spans {
            bus.add(Arc::clone(&self.metrics) as Arc<dyn TuningObserver>);
        }
        if self.progress {
            bus.add(Arc::new(ProgressReporter::stderr()));
        }
        // A simulated session is named after its program.
        let name = match &job.executor.kind {
            ExecutorKind::Sim(workload) => workload.name.clone(),
            ExecutorKind::Process { .. } => job.label.clone(),
        };
        let executor = job.executor.build();
        let opts = TunerOptions {
            workers: 1,
            ..job.options
        };
        let result = Tuner::new(opts).run(executor.as_ref(), &name, &bus);
        if let Some((path, sink)) = trace {
            match sink.write_errors() {
                0 => {}
                lost => eprintln!(
                    "warning: trace {} is incomplete: {lost} failed writes",
                    path.display()
                ),
            }
        }
        SuiteRow::from(result)
    }

    /// Render everything the run left in the trace directory into
    /// `<dir>/report.md` (plus `<dir>/metrics.txt` when spans are on)
    /// and name the report on stderr. No-op when tracing is disabled;
    /// rendering problems are warned about on stderr but never fail the
    /// experiment.
    pub fn write_report(&self) {
        let Some(dir) = &self.dir else { return };
        if self.spans {
            let _ = std::fs::write(dir.join("metrics.txt"), self.metrics.render());
        }
        let path = dir.join("report.md");
        let written = jtune_report::load(dir).and_then(|report| {
            std::fs::write(&path, jtune_report::to_markdown(&report)).map_err(|e| e.to_string())
        });
        match written {
            Ok(()) => eprintln!("report: {}", path.display()),
            Err(e) => eprintln!("warning: report skipped: {e}"),
        }
    }
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
    type Column = (&'static str, fn(&SuiteRow) -> u64);
    // Optional column groups, each shown when any row is active in it.
    let groups: [(bool, &[Column]); 3] = [
        (
            rows.iter().any(|r| r.cache_hits > 0 || r.aborted > 0),
            &[
                ("distinct", |r| r.distinct),
                ("hits", |r| r.cache_hits),
                ("aborted", |r| r.aborted),
            ],
        ),
        (
            rows.iter().any(|r| r.retried > 0 || r.quarantined > 0),
            &[
                ("retried", |r| r.retried),
                ("quarantined", |r| r.quarantined),
            ],
        ),
        (
            rows.iter().any(|r| r.screened > 0 || r.model_fits > 0),
            &[("screened", |r| r.screened), ("fits", |r| r.model_fits)],
        ),
    ];
    let extra: Vec<Column> = groups
        .into_iter()
        .filter(|(active, _)| *active)
        .flat_map(|(_, columns)| columns.iter().copied())
        .collect();
    let mut headers = vec!["default (s)", "tuned (s)", "improvement", "evals"];
    headers.extend(extra.iter().map(|(name, _)| *name));
    let mut t = text_table("program", &headers);
    for r in rows {
        let mut row = vec![
            r.program.clone(),
            fnum(r.default_secs, 2),
            fnum(r.tuned_secs, 2),
            fpct(r.improvement),
            r.evaluations.to_string(),
        ];
        row.extend(extra.iter().map(|(_, value)| value(r).to_string()));
        t.row(row);
    }
    t.rule();
    // A session whose default configuration failed has no improvement
    // (NaN): its row shows it, but it takes no part in the summary.
    let improvements: Vec<f64> = rows
        .iter()
        .map(|r| r.improvement)
        .filter(|x| x.is_finite())
        .collect();
    let avg = stats::Summary::from_slice(&improvements).mean();
    let mut avg_row = vec![String::new(); headers.len() + 1];
    avg_row[0] = "average".to_string();
    avg_row[3] = fpct(avg);
    t.row(avg_row);
    let mut sorted = improvements.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let top: Vec<String> = sorted.iter().take(3).map(|x| fpct(*x)).collect();
    format!(
        "== {title} ==\n{}\naverage improvement: {avg:.1}%   top-3: {}\n",
        t.render(),
        top.join(", ")
    )
}

/// A text table with a left-aligned `first` column followed by
/// right-aligned `columns`, the layout of every experiment table.
pub fn text_table<S: AsRef<str>>(first: &str, columns: &[S]) -> TextTable {
    let mut headers = vec![first];
    headers.extend(columns.iter().map(AsRef::as_ref));
    let mut aligns = vec![Align::Right; headers.len()];
    aligns[0] = Align::Left;
    TextTable::new(&headers, &aligns)
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
    use jtune_harness::{FaultPlan, QuarantinePolicy, RetryPolicy};
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
        assert!(exp.executor.fault.is_none());
        assert!(exp.executor.deadline_secs.is_none());
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
            exp.executor.fault,
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

    /// One untraced session of `program` through the runner.
    fn tune_one(program: &str, opts: TunerOptions, fault: Option<FaultPlan>) -> SuiteRow {
        let exp = Experiment::new(opts.clone());
        let w = workload_by_name(program).unwrap();
        let job = exp.job(program, w, opts);
        let job = Job {
            executor: job.executor.with_fault(fault),
            ..job
        };
        exp.run(vec![job]).remove(0)
    }

    /// Small sessions over five programs, each traced under its own
    /// label.
    fn small_suite(exp: &Experiment) -> Vec<Job> {
        let mut opts = tuner_options(3, 7);
        opts.max_evaluations = Some(12);
        let names = [
            "compress",
            "serial",
            "dacapo:h2",
            "crypto.aes",
            "xml.validation",
        ];
        let workloads = names.map(|n| workload_by_name(n).unwrap()).to_vec();
        suite_sessions(&opts, workloads)
            .map(|(w, opts)| exp.job(format!("run:{}", w.name), w, opts))
            .collect()
    }

    #[test]
    fn rows_come_back_in_job_order() {
        let exp = Experiment::new(tuner_options(3, 7));
        let jobs = small_suite(&exp);
        let want = ["compress", "serial", "h2", "crypto.aes", "xml.validation"];
        for width in [1, 2, 3, 8] {
            let got: Vec<String> = exp
                .run_at(jobs.clone(), width)
                .into_iter()
                .map(|r| r.program)
                .collect();
            assert_eq!(got, want, "width {width}");
        }
        assert!(exp.run(Vec::new()).is_empty());
    }

    #[test]
    fn every_width_gives_identical_records_and_traces() {
        let run = |width: usize| {
            let dir =
                std::env::temp_dir().join(format!("jtune-runner-{}-w{width}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut exp = Experiment::new(tuner_options(3, 7));
            exp.telemetry.dir = Some(dir.clone());
            let records: Vec<String> = exp
                .run_at(small_suite(&exp), width)
                .iter()
                .map(|r| r.result.session.to_json())
                .collect();
            let mut traces: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&path).unwrap())
                })
                .collect();
            traces.sort();
            let _ = std::fs::remove_dir_all(&dir);
            (records, traces)
        };
        let (records, traces) = run(1);
        assert_eq!(traces.len(), 5);
        assert!(traces.iter().any(|(name, _)| name == "run-h2.jsonl"));
        assert!(traces.iter().all(|(_, bytes)| !bytes.is_empty()));
        assert_eq!(run(3), (records, traces));
    }

    #[test]
    fn a_panicking_session_reaches_the_caller() {
        let exp = Experiment::new(tuner_options(3, 7));
        let mut jobs = small_suite(&exp);
        jobs[3].options.technique = "no-such-technique".into();
        for width in [1, 3] {
            let payload = std::panic::catch_unwind(|| exp.run_at(jobs.clone(), width))
                .expect_err("the bad session must panic the run");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                message.contains("no-such-technique"),
                "width {width}: {message:?}"
            );
        }
    }

    #[test]
    fn tune_program_produces_consistent_row() {
        let mut opts = tuner_options(2, 1);
        opts.max_evaluations = Some(10);
        let row = tune_one("compress", opts, None);
        assert!(row.tuned_secs <= row.default_secs);
        assert!(
            (row.improvement - stats::improvement_percent(row.default_secs, row.tuned_secs)).abs()
                < 1e-9
        );
    }

    #[test]
    fn improvement_at_is_monotone_in_time() {
        let row = tune_one("serial", tuner_options(5, 2), None);
        let early = improvement_at(&row, 1.0);
        let late = improvement_at(&row, 5.0);
        assert!(late >= early);
        assert!(improvement_at(&row, 0.0) >= 0.0);
    }

    #[test]
    fn render_table_contains_all_programs() {
        let mut opts = tuner_options(1, 3);
        opts.max_evaluations = Some(5);
        let rows = vec![tune_one("compress", opts, None)];
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
        let mut opts = tuner_options(1, 3);
        opts.max_evaluations = Some(5);
        let mut rows = vec![tune_one("compress", opts, None)];
        rows[0].cache_hits = 3;
        rows[0].aborted = 1;
        let s = render_suite_table("t", &rows);
        assert!(s.contains("distinct"));
        assert!(s.contains("hits"));
        assert!(s.contains("aborted"));
    }

    #[test]
    fn suite_table_grows_fault_columns_when_active() {
        let mut opts = tuner_options(1, 3);
        opts.max_evaluations = Some(5);
        let mut rows = vec![tune_one("compress", opts, None)];
        rows[0].retried = 2;
        rows[0].quarantined = 1;
        let s = render_suite_table("t", &rows);
        assert!(s.contains("retried"));
        assert!(s.contains("quarantined"));
        assert!(!s.contains("aborted"), "pipeline columns stay hidden");
    }

    #[test]
    fn suite_table_grows_model_columns_when_active() {
        let mut opts = tuner_options(1, 3);
        opts.max_evaluations = Some(5);
        let mut rows = vec![tune_one("compress", opts, None)];
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
        let mut opts = tuner_options(10, 5);
        opts.model = Some(ModelPolicy::default());
        let row = tune_one("compress", opts, None);
        assert!(row.screened > 0, "screen never rejected a proposal");
        assert!(row.model_fits > 0, "surrogate never fitted");
        assert!(row.tuned_secs <= row.default_secs);
    }

    #[test]
    fn faulty_session_with_retries_still_improves() {
        let mut opts = tuner_options(3, 11);
        opts.max_evaluations = Some(40);
        opts.protocol.retry = Some(RetryPolicy::default());
        opts.quarantine = Some(QuarantinePolicy::default());
        let plan = FaultPlan::transient(0.05, FaultPlan::DEFAULT_SEED);
        let row = tune_one("serial", opts, Some(plan));
        assert!(row.tuned_secs <= row.default_secs);
    }
}
