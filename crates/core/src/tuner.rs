//! The tuning driver.
//!
//! [`Tuner::run`] reproduces the paper's per-program session: measure the
//! default configuration, then repeat *propose → evaluate (in parallel) →
//! learn* until the tuning-time budget is exhausted, and report the best
//! configuration found with its full trial history.
//!
//! The loop is a private `Session`: `open` wires journals and telemetry,
//! `baseline` scores the default, each `step` runs one round of *propose
//! → screen → measure → observe* (round 0 measures the manipulator's
//! structural primers) with every trial recorded by the one `observe`
//! path, and `finish` builds the [`SessionRecord`].
//!
//! Evaluation flows through [`jtune_harness::EvalPipeline`]: with
//! [`TunerOptions::cache`] set, re-proposed configurations are served
//! from the trial cache (and within-batch duplicates run once); with a
//! [`Racing`] policy on the protocol, statistically hopeless candidates
//! are abandoned early. Both features default off, in which case the
//! session is bit-identical to the legacy fixed-repeat pipeline.
//!
//! Fault tolerance rides on the same pipeline: a
//! [`jtune_harness::RetryPolicy`] on the protocol repeats transient
//! failures, [`TunerOptions::quarantine`]
//! stops re-proposing deterministically-failing fingerprints (and ends
//! the session gracefully when whole batches keep failing), and
//! [`TunerOptions::checkpoint`] / [`TunerOptions::resume`] make a killed
//! session resumable with a byte-identical trace.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::Ordering::SeqCst;

use jtune_flags::{JvmConfig, Registry};
use jtune_harness::{
    journal, BatchReport, Budget, CachePolicy, EvalPipeline, Evaluation, Executor, JournalWriter,
    Protocol, QuarantinePolicy, Racing, ReplayLog, RetryPolicy, SessionHeader, SessionRecord,
    TrialRecord,
};
use jtune_model::{FeatureEncoder, ModelPolicy, Surrogate};
use jtune_telemetry::{phase, TelemetryBus, TraceEvent};
use jtune_util::cli::{self, Opt};
use jtune_util::{stats, SimDuration, Xoshiro256pp};

use crate::manipulator::{
    ConfigManipulator, FlatManipulator, HierarchicalManipulator, SubsetManipulator,
};
use crate::techniques::{SearchState, Technique, TechniqueSet};

/// Which configuration-space manipulator the tuner uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ManipulatorKind {
    /// Flag-hierarchy-aware moves (the paper's tuner).
    Hierarchical,
    /// Whole flat space, no dependency knowledge (ablation baseline).
    Flat,
    /// GC + heap flags only (prior-work baseline).
    GcSubset,
}

impl ManipulatorKind {
    /// Stable label for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            ManipulatorKind::Hierarchical => "hierarchical",
            ManipulatorKind::Flat => "flat",
            ManipulatorKind::GcSubset => "gc-subset",
        }
    }
}

/// Tuner configuration.
///
/// Construct via [`TunerOptions::builder`] for validation at build time,
/// or as a struct literal — in which case [`Tuner::try_run`] validates
/// before the session starts and rejects invalid values with
/// [`SessionError::InvalidOptions`].
#[derive(Clone, Debug)]
pub struct TunerOptions {
    /// Tuning-time budget (the paper: 200 minutes).
    pub budget: SimDuration,
    /// Measurement protocol per candidate (racing policy included).
    pub protocol: Protocol,
    /// Parallel evaluation workers.
    pub workers: usize,
    /// Candidates proposed per round (defaults to `workers`).
    pub batch: usize,
    /// Master seed: tuning is fully deterministic given it.
    pub seed: u64,
    /// Search-space manipulator.
    pub manipulator: ManipulatorKind,
    /// Technique name (`"ensemble"` or any of [`TechniqueSet::names`]).
    pub technique: String,
    /// Optional hard cap on evaluations (tests use small caps).
    pub max_evaluations: Option<u64>,
    /// Trial memoization policy; `None` (default) disables the cache and
    /// within-batch duplicate suppression — the legacy byte-stable path.
    pub cache: Option<CachePolicy>,
    /// Quarantine policy for deterministically-failing configurations;
    /// `None` (default) never quarantines — the legacy byte-stable path.
    pub quarantine: Option<QuarantinePolicy>,
    /// Surrogate-screening policy: techniques over-propose, the model
    /// scores the candidates, and only the top acquisition-ranked
    /// `batch` are measured. `None` (default) runs model-free — the
    /// legacy byte-stable path. A `model:`-prefixed technique name
    /// implies the default policy.
    pub model: Option<ModelPolicy>,
    /// Write-ahead trial journal path; every completed evaluation is
    /// flushed there so a killed session can be resumed.
    pub checkpoint: Option<PathBuf>,
    /// Journal to resume from: completed trials replay from it instead
    /// of being re-measured, reconstructing budget, cache, RNG and
    /// technique state. Usually the same path as `checkpoint`.
    pub resume: Option<PathBuf>,
    /// Cooperative suspension flag, checked at batch boundaries. When an
    /// owner (e.g. a draining daemon) sets it, the session stops cleanly
    /// after the current batch with [`TuningResult::suspended`] `true`;
    /// with `checkpoint` set, resuming later completes the session with
    /// a trace byte-identical to an uninterrupted run. Like `workers`,
    /// the flag never changes results, so it is excluded from
    /// [`TunerOptions::signature`].
    pub stop: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            budget: SimDuration::from_mins(200),
            protocol: Protocol::default(),
            workers: 4,
            batch: 4,
            seed: 0x4a_5455_4e45,
            manipulator: ManipulatorKind::Hierarchical,
            technique: "ensemble".to_string(),
            max_evaluations: None,
            cache: None,
            quarantine: None,
            model: None,
            checkpoint: None,
            resume: None,
            stop: None,
        }
    }
}

impl TunerOptions {
    /// A validating builder (rejects zero batch/workers/repeats, unknown
    /// technique names, and out-of-range cache/racing parameters at
    /// construction instead of deep in [`Tuner::run`]).
    pub fn builder() -> TunerOptionsBuilder {
        TunerOptionsBuilder {
            opts: TunerOptions::default(),
        }
    }

    /// Check every invariant the builder enforces.
    pub fn validate(&self) -> Result<(), OptionsError> {
        let (racing, retry) = (self.protocol.racing, self.protocol.retry);
        let error = if self.batch == 0 {
            OptionsError::ZeroBatch
        } else if self.workers == 0 {
            OptionsError::ZeroWorkers
        } else if self.protocol.repeats == 0 {
            OptionsError::ZeroRepeats
        } else if TechniqueSet::by_name(&self.technique).is_none() {
            OptionsError::UnknownTechnique(self.technique.clone())
        } else if let Some(c) = self.cache.filter(|c| !(0.0..=1.0).contains(&c.recharge)) {
            OptionsError::InvalidRecharge(c.recharge)
        } else if racing.is_some_and(|r| r.min_repeats == 0) {
            OptionsError::ZeroMinRepeats
        } else if let Some(r) = racing.filter(|r| !(r.alpha > 0.0 && r.alpha < 1.0)) {
            OptionsError::InvalidAlpha(r.alpha)
        } else if let Some(r) = retry.filter(|r| !(r.backoff.is_finite() && r.backoff >= 1.0)) {
            OptionsError::InvalidBackoff(r.backoff)
        } else if self.quarantine.is_some_and(|q| q.streak == 0) {
            OptionsError::ZeroQuarantineStreak
        } else if let Some(Err(msg)) = self.model.map(|m| m.validate()) {
            OptionsError::InvalidModel(msg)
        } else {
            return Ok(());
        };
        Err(error)
    }

    /// Canonical rendering of every option that affects the trial
    /// stream. The worker count is deliberately excluded: it never
    /// changes results. This string pins a checkpoint journal to its
    /// session — resuming under different options is refused.
    pub fn signature(&self) -> String {
        let (p, m) = (&self.protocol, self.model);
        let optional = [
            p.retry
                .map(|r| format!(" retry={}x{}", r.max_retries, r.backoff)),
            p.racing
                .map(|r| format!(" racing={}a{}", r.min_repeats, r.alpha)),
            self.cache.map(|c| format!(" cache={}", c.recharge)),
            self.quarantine.map(|q| format!(" quarantine={}", q.streak)),
            m.map(|m| format!(" model={}w{}k{}", m.screen_ratio, m.warmup, m.kappa)),
            self.max_evaluations.map(|m| format!(" max_evals={m}")),
        ];
        let required = format!(
            "v1 technique={} manipulator={} batch={} repeats={} fail_fast={}",
            self.technique,
            self.manipulator.label(),
            self.batch,
            p.repeats,
            p.fail_fast,
        );
        optional.into_iter().flatten().fold(required, |s, o| s + &o)
    }
}

/// A [`TunerOptions`] construction error.
#[derive(Clone, Debug, PartialEq)]
pub enum OptionsError {
    /// `batch` must be at least 1.
    ZeroBatch,
    /// `workers` must be at least 1.
    ZeroWorkers,
    /// The protocol's repeat count must be at least 1.
    ZeroRepeats,
    /// The technique name is not in [`TechniqueSet`].
    UnknownTechnique(String),
    /// The cache re-charge fraction must lie in `[0, 1]`.
    InvalidRecharge(f64),
    /// Racing `min_repeats` must be at least 1.
    ZeroMinRepeats,
    /// Racing `alpha` must lie strictly between 0 and 1.
    InvalidAlpha(f64),
    /// Retry backoff must be a finite factor of at least 1.
    InvalidBackoff(f64),
    /// Quarantine streak must be at least 1.
    ZeroQuarantineStreak,
    /// The surrogate-screening policy is out of range (the message is
    /// [`ModelPolicy::validate`]'s).
    InvalidModel(String),
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroBatch => write!(f, "batch must be at least 1"),
            Self::ZeroWorkers => write!(f, "workers must be at least 1"),
            Self::ZeroRepeats => write!(f, "protocol repeats must be at least 1"),
            Self::UnknownTechnique(name) => {
                write!(f, "unknown technique {name:?} (try \"ensemble\")")
            }
            Self::InvalidRecharge(r) => write!(f, "cache recharge fraction {r} outside [0, 1]"),
            Self::ZeroMinRepeats => write!(f, "racing min repeats must be at least 1"),
            Self::InvalidAlpha(a) => write!(f, "racing alpha {a} outside (0, 1)"),
            Self::InvalidBackoff(b) => write!(f, "retry backoff {b} must be a finite factor >= 1"),
            Self::ZeroQuarantineStreak => write!(f, "quarantine streak must be at least 1"),
            Self::InvalidModel(msg) => write!(f, "invalid model policy: {msg}"),
        }
    }
}

impl std::error::Error for OptionsError {}

/// A tuning-session startup failure: the conditions [`Tuner::run`]
/// panics on, surfaced as typed errors by [`Tuner::try_run`] so a
/// long-running daemon can reject a bad session without dying.
#[derive(Debug)]
pub enum SessionError {
    /// The options fail [`TunerOptions::validate`].
    InvalidOptions(OptionsError),
    /// The resume journal could not be read (or is not a journal).
    ResumeLoad {
        /// The journal path.
        path: PathBuf,
        /// The underlying journal failure.
        error: jtune_harness::JournalError,
    },
    /// The resume journal's header pins a different session.
    ResumeMismatch {
        /// The journal path.
        path: PathBuf,
        /// What the journal's header says.
        journal: Box<SessionHeader>,
        /// What this session's header is.
        session: Box<SessionHeader>,
    },
    /// The checkpoint journal could not be created.
    CheckpointCreate {
        /// The checkpoint path.
        path: PathBuf,
        /// The underlying filesystem failure.
        error: std::io::Error,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InvalidOptions(e) => write!(f, "invalid options: {e}"),
            SessionError::ResumeLoad { path, error } => {
                write!(f, "cannot resume from {}: {error}", path.display())
            }
            SessionError::ResumeMismatch {
                path,
                journal,
                session,
            } => write!(
                f,
                "refusing to resume from {}: the journal belongs to a different session\n  \
                 journal: {journal:?}\n  session: {session:?}",
                path.display(),
            ),
            SessionError::CheckpointCreate { path, error } => {
                write!(f, "cannot create checkpoint at {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Builder for [`TunerOptions`]; see [`TunerOptions::builder`].
#[derive(Clone, Debug)]
pub struct TunerOptionsBuilder {
    opts: TunerOptions,
}

impl TunerOptionsBuilder {
    /// Tuning-time budget.
    pub fn budget(mut self, budget: SimDuration) -> Self {
        self.opts.budget = budget;
        self
    }

    /// Measurement protocol (overwrites any racing policy set earlier).
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.opts.protocol = protocol;
        self
    }

    /// Parallel evaluation workers.
    pub fn workers(mut self, workers: usize) -> Self {
        self.opts.workers = workers;
        self
    }

    /// Candidates proposed per round.
    pub fn batch(mut self, batch: usize) -> Self {
        self.opts.batch = batch;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Search-space manipulator.
    pub fn manipulator(mut self, kind: ManipulatorKind) -> Self {
        self.opts.manipulator = kind;
        self
    }

    /// Technique name (validated at [`TunerOptionsBuilder::build`]).
    pub fn technique(mut self, name: impl Into<String>) -> Self {
        self.opts.technique = name.into();
        self
    }

    /// Hard cap on evaluations.
    pub fn max_evaluations(mut self, cap: u64) -> Self {
        self.opts.max_evaluations = Some(cap);
        self
    }

    /// Enable trial memoization with the given policy.
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.opts.cache = Some(policy);
        self
    }

    /// Enable sequential racing with the given policy.
    pub fn racing(mut self, racing: Racing) -> Self {
        self.opts.protocol.racing = Some(racing);
        self
    }

    /// Stop a candidate's remaining repeats after its first failure
    /// (`true`, the default) or keep measuring (`false`).
    pub fn fail_fast(mut self, fail_fast: bool) -> Self {
        self.opts.protocol.fail_fast = fail_fast;
        self
    }

    /// Retry transiently-failing runs under the given policy.
    pub fn retry(mut self, retry: jtune_harness::RetryPolicy) -> Self {
        self.opts.protocol.retry = Some(retry);
        self
    }

    /// Quarantine deterministically-failing configurations.
    pub fn quarantine(mut self, policy: QuarantinePolicy) -> Self {
        self.opts.quarantine = Some(policy);
        self
    }

    /// Enable surrogate-guided candidate screening with the given policy.
    pub fn model(mut self, policy: ModelPolicy) -> Self {
        self.opts.model = Some(policy);
        self
    }

    /// Write a crash-safe trial journal to `path`.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.opts.checkpoint = Some(path.into());
        self
    }

    /// Resume from the journal at `path` (usually the checkpoint path).
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.opts.resume = Some(path.into());
        self
    }

    /// Suspend cooperatively when `flag` becomes true (checked at batch
    /// boundaries); see [`TunerOptions::stop`].
    pub fn stop(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.opts.stop = Some(flag);
        self
    }

    /// Validate and produce the options.
    pub fn build(self) -> Result<TunerOptions, OptionsError> {
        self.opts.validate()?;
        Ok(self.opts)
    }
}

/// The tuning options of `jtune tune`/`suite` and, where a row names an
/// environment variable, of the experiment drivers. Rows apply in this
/// order, so implications are plain `get_or_insert_with` setters
/// (`--cache-recharge` implies `--cache`, `--min-repeats` `--racing`,
/// `--retry-backoff` `--retries`, `--screen-ratio` `--model`), and
/// `--portfolio` comes before `--technique` so an explicit technique
/// wins. [`TunerOptions::signature`] is deliberately not derived from
/// these rows: it is a persisted journal format.
#[rustfmt::skip]
pub const TUNER_OPTIONS: &[Opt<TunerOptions>] = &[
    Opt::env("JTUNE_BUDGET_MINS", "--budget MIN", "200", "virtual tuning budget in minutes",
        |o, v| cli::parse(v, "a whole number of minutes").map(|m| o.budget = SimDuration::from_mins(m))),
    Opt::env("JTUNE_SEED", "--seed N", "319242456645", "master seed: sessions are pure functions of it",
        |o, v| cli::int(v).map(|seed| o.seed = seed)),
    Opt::env("JTUNE_PORTFOLIO", "--portfolio", "off", "seeded bandit over every technique (--technique portfolio)",
        |o, _| { o.technique = "portfolio".to_string(); Ok(()) }),
    Opt::new("--technique NAME", "ensemble", "ensemble, portfolio or one technique (random, hillclimb, ils, anneal, \
        genetic, diffevo, neldermead); prefix model: to add the screen",
        |o, v| { o.technique = v.to_string(); Ok(()) }),
    Opt::new("--manipulator KIND", "hier", "move generator: hier, flat or subset",
        |o, v| { o.manipulator = match v {
            "hier" | "hierarchical" => ManipulatorKind::Hierarchical,
            "flat" => ManipulatorKind::Flat,
            "subset" | "gc-subset" => ManipulatorKind::GcSubset,
            _ => return Err("is not hier, flat or subset".to_string()),
        }; Ok(()) }),
    Opt::new("--workers N", "4", "parallel evaluation slots (never changes results)",
        |o, v| cli::int(v).map(|n| o.workers = n)),
    Opt::new("--batch N", "4", "candidates proposed per round",
        |o, v| cli::int(v).map(|n| o.batch = n)),
    Opt::env("JTUNE_CACHE", "--cache", "off", "memoize trials: revisited configurations cost zero budget",
        |o, _| { o.cache.get_or_insert_with(CachePolicy::default); Ok(()) }),
    Opt::new("--cache-recharge F", "0", "charge cache hits F (0..1) times their original cost (implies --cache)",
        |o, v| cli::number(v).map(|f| o.cache.get_or_insert_with(CachePolicy::default).recharge = f)),
    Opt::env("JTUNE_RACING", "--racing", "off", "abort statistically hopeless candidates, refunding unspent repeats",
        |o, _| { o.protocol.racing.get_or_insert_with(Racing::default); Ok(()) }),
    Opt::new("--min-repeats N", "2", "runs before racing may abort a candidate (implies --racing)",
        |o, v| cli::int(v).map(|n| o.protocol.racing.get_or_insert_with(Racing::default).min_repeats = n)),
    Opt::env_not("JTUNE_FAIL_FAST", "--no-fail-fast", "fail fast", "keep measuring a candidate after a failed run",
        |o, _| { o.protocol.fail_fast = false; Ok(()) }),
    Opt::env("JTUNE_RETRIES", "--retries N", "off", "retry transiently-failing runs up to N times, budget-charged",
        |o, v| cli::int(v).map(|n| o.protocol.retry.get_or_insert_with(RetryPolicy::default).max_retries = n)),
    Opt::env("JTUNE_RETRY_BACKOFF", "--retry-backoff F", "1.5", "charge retry attempt k at F^k its cost (implies --retries)",
        |o, v| cli::number(v).map(|f| o.protocol.retry.get_or_insert_with(RetryPolicy::default).backoff = f)),
    Opt::env("JTUNE_QUARANTINE", "--quarantine N", "off", "quarantine a configuration after N deterministic-failure runs",
        |o, v| cli::int(v).map(|streak| o.quarantine = Some(QuarantinePolicy { streak }))),
    Opt::env("JTUNE_MODEL", "--model", "off", "surrogate screen: over-propose, measure only the acquisition-ranked best",
        |o, _| { o.model.get_or_insert_with(ModelPolicy::default); Ok(()) }),
    Opt::env("JTUNE_SCREEN_RATIO", "--screen-ratio F", "4", "over-proposal factor of the screen (implies --model)",
        |o, v| cli::number(v).map(|r| o.model.get_or_insert_with(ModelPolicy::default).screen_ratio = r)),
    Opt::new("--checkpoint PATH", "off", "journal every completed trial to PATH, crash-safe",
        |o, v| { o.checkpoint = Some(v.into()); Ok(()) }),
    Opt::new("--resume PATH", "off", "replay a journal before measuring anything new (killed + resumed = uninterrupted)",
        |o, v| { o.resume = Some(v.into()); Ok(()) }),
];

/// Outcome of one tuning session.
#[derive(Clone, Debug)]
pub struct TuningResult {
    /// Full session record (trials, scores, budget accounting).
    pub session: SessionRecord,
    /// The best configuration found.
    pub best_config: JvmConfig,
    /// `true` when the session stopped early because [`TunerOptions::stop`]
    /// was raised; the record covers only the work done so far and the
    /// session can be completed later via checkpoint + resume.
    pub suspended: bool,
}

impl TuningResult {
    /// Improvement over the default, the paper's headline number.
    pub fn improvement_percent(&self) -> f64 {
        self.session.improvement_percent()
    }
}

/// The HotSpot Auto-tuner.
pub struct Tuner {
    opts: TunerOptions,
}

impl Tuner {
    /// Build a tuner.
    pub fn new(opts: TunerOptions) -> Tuner {
        Tuner { opts }
    }

    /// Run one tuning session for `program` against `executor`, emitting
    /// every proposal, evaluation, budget charge and best-update on
    /// `bus` as a [`TraceEvent`]. Pass [`TelemetryBus::disabled`] to run
    /// unobserved.
    ///
    /// The stream is bit-deterministic given `opts.seed`: events are
    /// emitted in candidate order regardless of `opts.workers` (the
    /// evaluation pipeline buffers per-slot and flushes after each
    /// batch), and every trial's budget charge appears exactly once, so
    /// the charges in the stream sum to the session's spent budget.
    ///
    /// # Panics
    /// Panics on any [`SessionError`]: invalid options, a resume journal
    /// that cannot be read or belongs to a different session (its header
    /// pins program, executor, seed, budget and the options signature),
    /// or an uncreatable checkpoint journal. [`Tuner::try_run`] returns
    /// them as typed errors.
    pub fn run(&self, executor: &dyn Executor, program: &str, bus: &TelemetryBus) -> TuningResult {
        self.try_run(executor, program, bus)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Tuner::run`], but session-startup failures (invalid options,
    /// unreadable or foreign resume journal, uncreatable checkpoint) come
    /// back as a [`SessionError`] instead of a panic — the entry point a
    /// long-running service uses so one bad submission cannot kill it.
    pub fn try_run(
        &self,
        executor: &dyn Executor,
        program: &str,
        bus: &TelemetryBus,
    ) -> Result<TuningResult, SessionError> {
        self.opts.validate().map_err(SessionError::InvalidOptions)?;
        let mut session = Session::open(&self.opts, executor, program, bus)?;
        let mut step = session.baseline();
        while let Step::Continue = step {
            step = session.step();
        }
        Ok(session.finish(matches!(step, Step::Suspended)))
    }
}

/// Where the session stands after [`Session::baseline`] or a [`Session::step`].
enum Step {
    /// More rounds to run.
    Continue,
    /// Budget, evaluation cap or degradation rule ended the search.
    Done,
    /// [`TunerOptions::stop`] was raised at a round boundary.
    Suspended,
}

/// One tuning session in flight: the search state every round reads
/// and the history every trial appends to.
struct Session<'a> {
    opts: &'a TunerOptions,
    executor: &'a dyn Executor,
    registry: &'a Registry,
    program: &'a str,
    bus: &'a TelemetryBus,
    budget: Budget,
    rng: Xoshiro256pp,
    pipeline: EvalPipeline,
    manipulator: Box<dyn ConfigManipulator>,
    technique: Box<dyn Technique>,
    model: Option<ModelGuide<'a>>,
    /// Round 0 measures the primers; search rounds count from 1.
    round: u64,
    trials: Vec<TrialRecord>,
    seen: HashSet<u64>,
    eval_index: u64,
    /// Best configuration and score; starts as the (unscored) default.
    best: (JvmConfig, f64),
    /// Racing baseline: the best candidate's raw samples, frozen for a
    /// whole batch so abort decisions never depend on worker scheduling.
    best_samples: Vec<f64>,
    /// Infinite until [`Session::baseline`] scores the default.
    default_score: f64,
    last_technique: Option<String>,
    /// Consecutive deterministic-failure runs per fingerprint.
    fail_streak: HashMap<u64, u32>,
    quarantined: HashSet<u64>,
    /// Search rounds in a row that produced no usable score at all.
    all_failed_batches: u32,
}

impl<'a> Session<'a> {
    /// Wire up a session: load (and compact) the resume journal, create
    /// the checkpoint writer, and announce the session on the bus.
    fn open(
        opts: &'a TunerOptions,
        executor: &'a dyn Executor,
        program: &'a str,
        bus: &'a TelemetryBus,
    ) -> Result<Session<'a>, SessionError> {
        let registry = executor.registry();
        let manipulator: Box<dyn ConfigManipulator> = match opts.manipulator {
            ManipulatorKind::Hierarchical => Box::new(HierarchicalManipulator::new()),
            ManipulatorKind::Flat => Box::new(FlatManipulator::new()),
            ManipulatorKind::GcSubset => Box::new(SubsetManipulator::gc_and_heap()),
        };
        let mut pipeline = EvalPipeline::new(opts.protocol, opts.cache);

        // Surrogate screening: enabled by an explicit policy or by the
        // `model:` technique-name prefix (default policy). The surrogate
        // seed is derived from — not equal to — the master seed, so its
        // bootstrap streams are independent of the search RNG.
        let prefixed = opts.technique.starts_with("model:");
        let policy = opts.model.or(prefixed.then(ModelPolicy::default));
        let model = policy.map(|policy| ModelGuide {
            policy,
            encoder: FeatureEncoder::new(registry, jtune_flagtree::hotspot_tree()),
            surrogate: Surrogate::new(opts.seed ^ 0x004d_4f44_454c),
            screened: 0,
            fits: 0,
        });
        let header = SessionHeader {
            program: program.to_string(),
            executor: executor.describe(),
            seed: opts.seed,
            budget_nanos: opts.budget.as_nanos(),
            signature: opts.signature(),
        };
        let trials_replayed = attach_journals(opts, header, &mut pipeline)?;
        bus.emit(&TraceEvent::SessionStarted {
            program: program.to_string(),
            executor: executor.describe(),
            technique: opts.technique.clone(),
            manipulator: opts.manipulator.label().to_string(),
            budget_secs: opts.budget.as_secs_f64(),
            seed: opts.seed,
            workers: opts.workers as u64,
            batch: opts.batch as u64,
            repeats: opts.protocol.repeats as u64,
        });
        if opts.resume.is_some() {
            // Ephemeral: tells live observers this process is replaying,
            // but is never serialised (the resumed trace must stay
            // byte-identical to an uninterrupted run's).
            bus.emit(&TraceEvent::SessionResumed { trials_replayed });
        }

        let mut default_config = JvmConfig::default_for(registry);
        manipulator.canonicalize(&mut default_config);
        Ok(Session {
            opts,
            executor,
            registry,
            program,
            bus,
            budget: Budget::new(opts.budget),
            rng: Xoshiro256pp::seed_from_u64(opts.seed),
            pipeline,
            manipulator,
            technique: TechniqueSet::by_name(&opts.technique).expect("validated technique"),
            model,
            round: 0,
            trials: Vec::new(),
            seen: HashSet::from([default_config.fingerprint()]),
            eval_index: 0,
            best: (default_config, f64::INFINITY),
            best_samples: Vec::new(),
            default_score: f64::INFINITY,
            last_technique: None,
            fail_streak: HashMap::new(),
            quarantined: HashSet::new(),
            all_failed_batches: 0,
        })
    }

    /// Measure the default configuration as trial 0. When the default
    /// JVM fails the workload (it can: a live set over the default heap)
    /// the session is done at once, degenerate: no trials recorded and
    /// default == best == infinity.
    fn baseline(&mut self) -> Step {
        let ev = self
            .pipeline
            .prime(self.executor, &self.best.0, self.opts.seed);
        self.record(&ev, "default".to_string(), Vec::new());
        let Some(score) = ev.score.map(|s| s.as_secs_f64()) else {
            self.trials.clear();
            return Step::Done;
        };
        if let Some(g) = self.model.as_mut() {
            g.observe(&self.best.0, Some(score), score);
        }
        self.default_score = score;
        self.best.1 = score;
        self.best_samples = secs(&ev.samples);
        self.emit_checkpoint();
        Step::Continue
    }

    /// One round: propose → screen → measure → observe. Round 0 measures
    /// the manipulator's structural primers instead of technique
    /// proposals — a structure-aware manipulator enumerates its selector
    /// combinations, capturing the collector/JIT-mode headroom before
    /// free search begins — and is never stopped, capped or degraded.
    fn step(&mut self) -> Step {
        if !self.budget.has_remaining() {
            return Step::Done;
        }
        let searching = self.round > 0;
        let candidates = if searching {
            // Cooperative suspension (daemon drain) at a round boundary:
            // everything measured so far is journaled, so a later resume
            // completes the session byte-identically.
            if self.opts.stop.as_ref().is_some_and(|f| f.load(SeqCst)) {
                return Step::Suspended;
            }
            if self.capped() {
                return Step::Done;
            }
            let proposed = self.propose();
            self.screen(proposed)
        } else {
            let mut primers = self.manipulator.primers();
            primers.retain(|c| self.seen.insert(c.fingerprint()));
            if primers.is_empty() {
                self.round = 1;
                return Step::Continue;
            }
            primers
        };
        let (technique, seed) = if searching {
            (self.technique.name(), self.opts.seed ^ self.eval_index)
        } else {
            ("primer", self.opts.seed ^ 0x5052_494d)
        };
        self.bus.emit(&TraceEvent::RoundProposed {
            round: self.round,
            technique: technique.to_string(),
            candidates: candidates.len() as u64,
        });
        let report = self.measure(&candidates, seed);
        for (candidate, ev) in candidates.iter().zip(&report.evals) {
            self.observe(candidate, ev);
            if searching && self.capped() {
                return Step::Done;
            }
        }
        self.emit_checkpoint();

        // Graceful degradation (quarantine sessions only, to keep legacy
        // traces byte-stable): when whole batches keep producing no usable
        // score — a broken executor, not an unlucky candidate — stop
        // searching and keep the incumbent rather than burning the rest
        // of the budget on failures.
        if searching && self.opts.quarantine.is_some() {
            if report.evals.iter().all(|ev| ev.score.is_none()) {
                self.all_failed_batches += 1;
                if self.all_failed_batches >= 3 {
                    return Step::Done;
                }
            } else {
                self.all_failed_batches = 0;
            }
        }
        self.round += 1;
        Step::Continue
    }

    fn capped(&self) -> bool {
        matches!(self.opts.max_evaluations, Some(cap) if self.eval_index >= cap)
    }

    /// Ask the technique for one round of unseen candidates.
    fn propose(&mut self) -> Vec<JvmConfig> {
        let batch = self.opts.batch;
        // With the surrogate warmed up, techniques over-propose and the
        // model keeps the best `batch`. Before warmup (and with the model
        // off) proposals equal measurement slots, so the RNG stream
        // matches a model-free session exactly until the first screened
        // round.
        let n = match &self.model {
            Some(g) if g.surrogate.ready(g.policy.warmup) => g.policy.proposals_for(batch),
            _ => batch,
        };
        // With the cache on, a technique re-proposing a measured config
        // gets it served from memory instead of a random substitute — but
        // at most half a round, so every round still spends real budget
        // (no zero-cost livelock).
        let reuse_cap = self.opts.cache.map_or(0, |_| batch.div_ceil(2));
        let mut reused = 0;
        let _span = self.bus.span(phase::PROPOSE, self.round);
        let state = SearchState {
            manipulator: self.manipulator.as_ref(),
            best: Some(&self.best),
            default_score: self.default_score,
            budget_fraction: self.budget.fraction_spent(),
            reuse_fraction: self.pipeline.stats().reuse_fraction(),
        };
        let mut candidates = Vec::with_capacity(n);
        for _ in 0..n {
            let c = 'pick: {
                let mut dup = None;
                for _attempt in 0..8 {
                    let c = self.technique.propose(&state, &mut self.rng);
                    if self.seen.insert(c.fingerprint()) {
                        break 'pick c;
                    }
                    dup = Some(c);
                }
                let dup = dup.expect("eight attempts, all duplicates");
                // Re-serving a duplicate from cache is only worth it when
                // the config is not quarantined: a fingerprint that keeps
                // failing deterministically must not be re-proposed.
                if reused < reuse_cap && !self.quarantined.contains(&dup.fingerprint()) {
                    reused += 1;
                    break 'pick dup;
                }
                // The technique is stuck on duplicates: inject fresh
                // randomness.
                let c = self.manipulator.random(&mut self.rng);
                self.seen.insert(c.fingerprint());
                c
            };
            candidates.push(c);
        }
        candidates
    }

    /// Once the surrogate is warm, refit it and keep the `batch`
    /// acquisition-best proposals (in proposal order); the technique
    /// forgets the rest.
    fn screen(&mut self, candidates: Vec<JvmConfig>) -> Vec<JvmConfig> {
        let Some(g) = self
            .model
            .as_mut()
            .filter(|g| g.surrogate.ready(g.policy.warmup))
        else {
            return candidates;
        };
        let (bus, round, batch) = (self.bus, self.round, self.opts.batch);
        let _span = bus.span(phase::SCREEN, round);
        let fit = {
            let _fit_span = bus.span(phase::FIT, round);
            g.surrogate.fit()
        };
        g.fits += u64::from(fit.refit);
        bus.emit(&TraceEvent::ModelFit {
            round,
            samples: fit.samples as u64,
            refit: fit.refit,
        });
        if candidates.len() <= batch {
            return candidates;
        }
        let scores: Vec<_> = candidates
            .iter()
            .map(|c| g.surrogate.predict(&g.encoder.encode(c)))
            .collect();
        let outcome = jtune_model::screen(&scores, batch, g.policy.kappa);
        for r in &outcome.rejected {
            let rejected = &candidates[r.index];
            bus.emit(&TraceEvent::CandidateScreened {
                round,
                fingerprint: rejected.fingerprint(),
                predicted_secs: r.predicted_secs,
                acquisition: r.acquisition,
            });
            // The technique will never get feedback for this proposal;
            // let it forget the pending state.
            self.technique.retract(rejected);
            g.screened += 1;
        }
        outcome
            .kept
            .iter()
            .map(|&i| candidates[i].clone())
            .collect()
    }

    /// Evaluate one batch through the pipeline, racing against the
    /// incumbent's samples when the protocol races.
    fn measure(&mut self, candidates: &[JvmConfig], seed: u64) -> BatchReport {
        let _span = self.bus.span(phase::MEASURE, self.round);
        let racing = self.opts.protocol.racing.is_some();
        self.pipeline.evaluate_batch(
            self.executor,
            candidates,
            seed,
            self.opts.workers,
            racing.then_some(self.best_samples.as_slice()),
            self.bus,
        )
    }

    /// The per-trial path: record the trial, then feed the technique (in
    /// search rounds; it sees the pre-update best and the post-charge
    /// budget), the surrogate, the incumbent and the quarantine.
    fn observe(&mut self, candidate: &JvmConfig, ev: &Evaluation) {
        let searching = self.round > 0;
        let label = if searching {
            // Attribute the trial to the proposing arm (the ensemble
            // routes to inner techniques) before feedback clears the
            // routing entry.
            let label = self.technique.proposer(candidate).to_string();
            let prev = self.last_technique.replace(label.clone());
            if let Some(from) = prev.filter(|prev| *prev != label) {
                self.bus.emit(&TraceEvent::TechniqueSwitched {
                    index: self.eval_index,
                    from,
                    to: label.clone(),
                });
            }
            label
        } else {
            "primer".to_string()
        };
        self.record(ev, label, candidate.to_args(self.registry));
        let score_secs = ev.score.map(|s| s.as_secs_f64());
        if searching {
            let state = SearchState {
                manipulator: self.manipulator.as_ref(),
                best: Some(&self.best),
                default_score: self.default_score,
                budget_fraction: self.budget.fraction_spent(),
                reuse_fraction: self.pipeline.stats().reuse_fraction(),
            };
            self.technique.feedback(candidate, score_secs, &state);
        }
        if let Some(g) = self.model.as_mut() {
            g.observe(candidate, score_secs, self.default_score);
        }
        if let Some(s) = score_secs.filter(|&s| s < self.best.1) {
            self.best = (candidate.clone(), s);
            self.best_samples = secs(&ev.samples);
            self.bus.emit(&TraceEvent::BestImproved {
                index: self.eval_index - 1,
                score_secs: s,
                improvement_percent: stats::improvement_percent(self.default_score, s),
                delta: self.best.0.to_args(self.registry),
            });
        }
        self.note_quarantine(candidate.fingerprint(), ev);
    }

    /// Charge one evaluation to the budget, publish it as trial
    /// `eval_index`, and append it to the history.
    fn record(&mut self, ev: &Evaluation, technique: String, delta: Vec<String>) {
        let charge = self.budget.charge_observed(ev.cost);
        let (index, at_secs) = (self.eval_index, charge.spent_after.as_secs_f64());
        let score_secs = ev.score.map(|s| s.as_secs_f64());
        if self.bus.is_enabled() {
            self.bus.emit(&TraceEvent::TrialEvaluated {
                index,
                technique: technique.clone(),
                delta: delta.clone(),
                repeat_secs: secs(&ev.samples),
                score_secs,
                cost_secs: ev.cost.as_secs_f64(),
                budget_spent_secs: at_secs,
                gc_pause_total_ms: ev.counters.map(|c| c.gc_pause_total.as_millis_f64()),
                gc_collections: ev.counters.map(|c| c.gc_collections),
                jit_compile_ms: ev.counters.map(|c| c.jit_compile_time.as_millis_f64()),
                jit_compiles: ev.counters.map(|c| c.jit_compiles),
                error: ev.error.as_ref().map(|e| e.message().to_string()),
                error_kind: ev.error.as_ref().map(|e| e.kind().to_string()),
            });
        }
        if charge.crossed_limit {
            self.bus.emit(&TraceEvent::BudgetExhausted {
                spent_secs: at_secs,
                total_secs: self.opts.budget.as_secs_f64(),
                evaluations: index + 1,
            });
        }
        self.trials.push(TrialRecord {
            index,
            at_secs,
            score_secs,
            technique,
            delta,
        });
        self.eval_index += 1;
    }

    /// Quarantine bookkeeping for one evaluated candidate: a
    /// *deterministic* failure extends the fingerprint's streak, a score
    /// clears it, and crossing the policy threshold quarantines it with
    /// one [`TraceEvent::Quarantined`]. Transient failures (even
    /// retry-exhausted ones) are bad luck, not proof, and never count.
    fn note_quarantine(&mut self, fingerprint: u64, ev: &Evaluation) {
        let Some(policy) = self.opts.quarantine else {
            return;
        };
        if self.quarantined.contains(&fingerprint) {
            return;
        }
        match &ev.error {
            Some(e) if !e.is_transient() => {
                let failed = ev.runs.saturating_sub(ev.samples.len() as u32).max(1);
                let streak = self.fail_streak.entry(fingerprint).or_insert(0);
                *streak += failed;
                if *streak >= policy.streak {
                    self.quarantined.insert(fingerprint);
                    self.bus.emit(&TraceEvent::Quarantined {
                        fingerprint,
                        failures: *streak as u64,
                        error_kind: e.kind().to_string(),
                    });
                }
            }
            Some(_) => {}
            None => {
                self.fail_streak.remove(&fingerprint);
            }
        }
    }

    /// Emit a [`TraceEvent::CheckpointWritten`] marker when the session
    /// is checkpointing. Emitted at the same loop points in an original
    /// and a resumed run, so the marker survives in the (byte-identical)
    /// trace.
    fn emit_checkpoint(&self) {
        if self.opts.checkpoint.is_some() {
            let trials = self.pipeline.journal_trials();
            let _span = self.bus.span(phase::CHECKPOINT, trials);
            self.bus.emit(&TraceEvent::CheckpointWritten {
                trials,
                spent_secs: self.budget.spent().as_secs_f64(),
            });
        }
    }

    /// Close the session: build its record and, unless it is suspended,
    /// emit [`TraceEvent::SessionFinished`]. A suspended session is not
    /// finished: the terminal event is withheld so the eventual resumed
    /// completion emits it in the right place and the final trace stays
    /// byte-identical to an uninterrupted run's.
    fn finish(self, suspended: bool) -> TuningResult {
        let stats = self.pipeline.stats();
        let session = SessionRecord {
            program: self.program.to_string(),
            executor: self.executor.describe(),
            budget_mins: self.opts.budget.as_mins_f64(),
            default_secs: self.default_score,
            best_secs: self.best.1,
            best_delta: self.best.0.to_args(self.registry),
            evaluations: self.eval_index,
            distinct: stats.fresh,
            cache_hits: stats.cache_hits,
            aborted: stats.aborted,
            retried: stats.retried,
            quarantined: self.quarantined.len() as u64,
            suppressed: stats.suppressed,
            saved_secs: stats.saved.as_secs_f64(),
            screened: self.model.as_ref().map_or(0, |g| g.screened),
            model_fits: self.model.as_ref().map_or(0, |g| g.fits),
            trials: self.trials,
        };
        if !suspended {
            self.bus.emit(&TraceEvent::SessionFinished {
                program: session.program.clone(),
                default_secs: session.default_secs,
                best_secs: session.best_secs,
                // `max` maps a failed default's infinity-over-infinity NaN
                // to 0; a real session's best never loses to the default.
                improvement_percent: session.improvement_percent().max(0.0),
                evaluations: session.evaluations,
                spent_secs: self.budget.spent().as_secs_f64(),
                best_delta: session.best_delta.clone(),
            });
        }
        self.bus.flush();
        TuningResult {
            session,
            best_config: self.best.0,
            suspended,
        }
    }
}

/// Attach the session's journals to `pipeline` and return how many
/// trials will replay. The resume journal is loaded *before* the
/// checkpoint writer is created: with both on the same path (the normal
/// kill-and-restart cycle) creating the writer truncates the file, and
/// replayed trials are re-recorded as they are served, rebuilding a
/// complete journal.
fn attach_journals(
    opts: &TunerOptions,
    header: SessionHeader,
    pipeline: &mut EvalPipeline,
) -> Result<u64, SessionError> {
    let mut trials_replayed = 0;
    if let Some(path) = &opts.resume {
        // Compact while loading: the journal is rewritten as exactly the
        // header plus the complete trial prefix, so repeated kill/resume
        // cycles never accumulate torn tails or dead bytes — even when
        // this session does not checkpoint again.
        let (found, entries) =
            journal::compact(path).map_err(|error| SessionError::ResumeLoad {
                path: path.clone(),
                error,
            })?;
        if found != header {
            return Err(SessionError::ResumeMismatch {
                path: path.clone(),
                journal: Box::new(found),
                session: Box::new(header),
            });
        }
        trials_replayed = entries.len() as u64;
        pipeline.set_replay(ReplayLog::new(entries));
    }
    if let Some(path) = &opts.checkpoint {
        let writer = JournalWriter::create(path, &header).map_err(|error| {
            SessionError::CheckpointCreate {
                path: path.clone(),
                error,
            }
        })?;
        pipeline.set_journal(writer);
    }
    Ok(trials_replayed)
}

/// Per-session surrogate-screening state: the policy, the encoder over
/// the executor's registry, the surrogate itself, and the counters that
/// land in the [`SessionRecord`].
struct ModelGuide<'a> {
    policy: ModelPolicy,
    encoder: FeatureEncoder<'a>,
    surrogate: Surrogate,
    screened: u64,
    fits: u64,
}

impl ModelGuide<'_> {
    /// Feed one completed trial to the surrogate. Failed candidates are
    /// recorded at twice the default score — "much worse than stock" —
    /// so the model learns to avoid their neighbourhood instead of
    /// treating them as unexplored.
    fn observe(&mut self, config: &JvmConfig, score_secs: Option<f64>, default_score: f64) {
        let y = score_secs.unwrap_or(2.0 * default_score);
        self.surrogate.observe(self.encoder.encode(config), y);
    }
}

fn secs(samples: &[SimDuration]) -> Vec<f64> {
    samples.iter().map(|s| s.as_secs_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_harness::SimExecutor;
    use jtune_jvmsim::Workload;

    fn quick_opts() -> TunerOptions {
        TunerOptions {
            budget: SimDuration::from_mins(3),
            workers: 4,
            batch: 4,
            seed: 1,
            ..TunerOptions::default()
        }
    }

    fn startup_workload() -> Workload {
        let mut w = Workload::baseline("tuner-test");
        w.total_work = 4e8;
        w.hot_methods = 1500;
        w.hotness_skew = 0.6;
        w.alloc_rate = 2.5;
        w
    }

    fn run_quiet(opts: TunerOptions, ex: &SimExecutor) -> TuningResult {
        Tuner::new(opts).run(ex, "t", &TelemetryBus::disabled())
    }

    #[test]
    fn tuner_never_reports_worse_than_default() {
        let ex = SimExecutor::new(startup_workload());
        let result = run_quiet(quick_opts(), &ex);
        assert!(result.session.best_secs <= result.session.default_secs);
        assert!(result.improvement_percent() >= 0.0);
        assert!(result.session.evaluations > 1);
        assert_eq!(
            result.session.trials.len() as u64,
            result.session.evaluations
        );
        // Legacy sessions measure every trial.
        assert_eq!(result.session.distinct, result.session.evaluations);
        assert_eq!(result.session.cache_hits, 0);
        assert_eq!(result.session.aborted, 0);
    }

    #[test]
    fn tuner_finds_real_improvement_on_startup_workload() {
        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.budget = SimDuration::from_mins(15);
        let result = run_quiet(opts, &ex);
        assert!(
            result.improvement_percent() > 3.0,
            "only {:.1}% improvement",
            result.improvement_percent()
        );
        assert!(!result.session.best_delta.is_empty());
    }

    #[test]
    fn tuning_is_deterministic_given_seed() {
        let ex = SimExecutor::new(startup_workload());
        let a = run_quiet(quick_opts(), &ex);
        let b = run_quiet(quick_opts(), &ex);
        assert_eq!(a.session.best_secs, b.session.best_secs);
        assert_eq!(a.session.evaluations, b.session.evaluations);
        assert_eq!(a.session.best_delta, b.session.best_delta);
        let mut opts = quick_opts();
        opts.seed = 2;
        let c = run_quiet(opts, &ex);
        assert_ne!(a.session.best_delta, c.session.best_delta);
    }

    #[test]
    fn max_evaluations_caps_the_session() {
        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.max_evaluations = Some(9);
        let result = run_quiet(opts, &ex);
        assert!(result.session.evaluations <= 9);
    }

    #[test]
    fn budget_is_respected() {
        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.budget = SimDuration::from_secs(30);
        let batch = opts.batch;
        let result = run_quiet(opts, &ex);
        // All but the last in-flight batch must finish within budget; the
        // recorded spend can straddle by at most one batch.
        let last = result.session.trials.last().unwrap();
        assert!(
            last.at_secs < 30.0 + 5.0 * (batch as f64 + 1.0) * 60.0,
            "spent {} s",
            last.at_secs
        );
        assert!(result.session.evaluations < 500);
    }

    #[test]
    fn every_manipulator_kind_runs() {
        let ex = SimExecutor::new(startup_workload());
        for kind in [
            ManipulatorKind::Hierarchical,
            ManipulatorKind::Flat,
            ManipulatorKind::GcSubset,
        ] {
            let mut opts = quick_opts();
            opts.manipulator = kind;
            opts.max_evaluations = Some(12);
            let result = run_quiet(opts, &ex);
            assert!(result.session.best_secs <= result.session.default_secs);
        }
    }

    #[test]
    fn solo_techniques_run() {
        let ex = SimExecutor::new(startup_workload());
        for name in TechniqueSet::names() {
            let mut opts = quick_opts();
            opts.technique = name.to_string();
            opts.max_evaluations = Some(10);
            let result = run_quiet(opts, &ex);
            assert!(
                result.session.best_secs <= result.session.default_secs,
                "{name} regressed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown technique")]
    fn unknown_technique_panics() {
        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.technique = "alchemy".to_string();
        let _ = run_quiet(opts, &ex);
    }

    #[test]
    fn default_failing_workload_reports_degenerate_session() {
        let mut w = startup_workload();
        // Live set far beyond the default 1 GB heap, with enough allocation
        // to actually reach it: the default config OOMs.
        w.live_set = 3e9;
        w.nursery_survival = 0.6;
        w.alloc_rate = 10.0;
        w.total_work = 2e9;
        let ex = SimExecutor::new(w);
        let result = run_quiet(quick_opts(), &ex);
        assert!(result.session.default_secs.is_infinite());
        assert_eq!(result.session.evaluations, 1);
    }

    #[test]
    fn builder_validates_at_construction() {
        assert!(TunerOptions::builder().build().is_ok());
        assert_eq!(
            TunerOptions::builder().batch(0).build().unwrap_err(),
            OptionsError::ZeroBatch
        );
        assert_eq!(
            TunerOptions::builder().workers(0).build().unwrap_err(),
            OptionsError::ZeroWorkers
        );
        assert_eq!(
            TunerOptions::builder()
                .technique("alchemy")
                .build()
                .unwrap_err(),
            OptionsError::UnknownTechnique("alchemy".into())
        );
        assert_eq!(
            TunerOptions::builder()
                .cache(CachePolicy { recharge: 1.5 })
                .build()
                .unwrap_err(),
            OptionsError::InvalidRecharge(1.5)
        );
        assert_eq!(
            TunerOptions::builder()
                .racing(Racing {
                    min_repeats: 0,
                    alpha: 0.2
                })
                .build()
                .unwrap_err(),
            OptionsError::ZeroMinRepeats
        );
        assert_eq!(
            TunerOptions::builder()
                .racing(Racing {
                    min_repeats: 2,
                    alpha: 1.0
                })
                .build()
                .unwrap_err(),
            OptionsError::InvalidAlpha(1.0)
        );
        let opts = TunerOptions::builder()
            .budget(SimDuration::from_mins(5))
            .workers(2)
            .batch(8)
            .seed(9)
            .technique("random")
            .cache(CachePolicy::default())
            .racing(Racing::default())
            .max_evaluations(40)
            .build()
            .expect("valid options");
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.batch, 8);
        assert!(opts.cache.is_some());
        assert!(opts.protocol.racing.is_some());
    }

    #[test]
    fn fault_tolerance_options_validate() {
        assert_eq!(
            TunerOptions::builder()
                .retry(jtune_harness::RetryPolicy {
                    max_retries: 2,
                    backoff: 0.5,
                })
                .build()
                .unwrap_err(),
            OptionsError::InvalidBackoff(0.5)
        );
        assert_eq!(
            TunerOptions::builder()
                .quarantine(QuarantinePolicy { streak: 0 })
                .build()
                .unwrap_err(),
            OptionsError::ZeroQuarantineStreak
        );
        let opts = TunerOptions::builder()
            .fail_fast(false)
            .retry(jtune_harness::RetryPolicy::default())
            .quarantine(QuarantinePolicy::default())
            .checkpoint("/tmp/j.jsonl")
            .resume("/tmp/j.jsonl")
            .build()
            .expect("valid fault-tolerance options");
        assert!(!opts.protocol.fail_fast);
        assert!(opts.protocol.retry.is_some());
        assert!(opts.quarantine.is_some());
        assert_eq!(opts.checkpoint, opts.resume);
    }

    #[test]
    fn signature_tracks_stream_affecting_options() {
        let base = TunerOptions::default().signature();
        let mut opts = TunerOptions {
            workers: 16,
            ..TunerOptions::default()
        };
        assert_eq!(
            opts.signature(),
            base,
            "workers must not change the signature"
        );
        opts.quarantine = Some(QuarantinePolicy::default());
        assert_ne!(opts.signature(), base);
        let mut opts = TunerOptions::default();
        opts.protocol.retry = Some(jtune_harness::RetryPolicy::default());
        assert_ne!(opts.signature(), base);
        let mut opts = TunerOptions::default();
        opts.protocol.fail_fast = false;
        assert_ne!(opts.signature(), base);
        let opts = TunerOptions {
            model: Some(ModelPolicy::default()),
            ..TunerOptions::default()
        };
        assert_ne!(
            opts.signature(),
            base,
            "screening changes the trial stream, so the journal must be pinned to it"
        );
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jtune-tuner-{}-{name}.jsonl", std::process::id()))
    }

    #[test]
    fn killed_session_resumes_to_the_same_result() {
        let ex = SimExecutor::new(startup_workload());
        let path = temp_journal("resume");
        let mut opts = quick_opts();
        opts.max_evaluations = Some(20);
        opts.checkpoint = Some(path.clone());
        let original = run_quiet(opts.clone(), &ex);

        // Kill the session at trial 7: truncate the journal to a prefix.
        let full = std::fs::read_to_string(&path).unwrap();
        let prefix: Vec<&str> = full.lines().take(8).collect(); // header + 7 trials
        std::fs::write(&path, prefix.join("\n") + "\n").unwrap();

        opts.resume = Some(path.clone());
        let resumed = run_quiet(opts, &ex);
        assert_eq!(resumed.session, original.session);
        assert_eq!(
            resumed.best_config.fingerprint(),
            original.best_config.fingerprint()
        );
        // The same-path checkpoint rebuilt a complete journal.
        let rebuilt = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rebuilt, full, "rebuilt journal should be byte-identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn suspended_session_resumes_to_the_same_result() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let ex = SimExecutor::new(startup_workload());
        let path = temp_journal("suspend");
        let mut opts = quick_opts();
        opts.max_evaluations = Some(20);
        opts.checkpoint = Some(path.clone());
        let original = run_quiet(opts.clone(), &ex);
        assert!(!original.suspended);

        // Drain: the stop flag is already up, so the session measures the
        // baseline + primer batch and suspends at the first batch boundary.
        let flag = Arc::new(AtomicBool::new(true));
        opts.stop = Some(flag);
        let drained = run_quiet(opts.clone(), &ex);
        assert!(drained.suspended);
        assert!(drained.session.evaluations < original.session.evaluations);

        // Restart: resume the journal with the flag down; the completed
        // session must be indistinguishable from the uninterrupted one.
        opts.stop = None;
        opts.resume = Some(path.clone());
        let resumed = run_quiet(opts, &ex);
        assert!(!resumed.suspended);
        assert_eq!(resumed.session, original.session);
        assert_eq!(
            resumed.best_config.fingerprint(),
            original.best_config.fingerprint()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn twice_resumed_journal_retains_no_dead_bytes() {
        let ex = SimExecutor::new(startup_workload());
        let path = temp_journal("compact");
        let mut opts = quick_opts();
        opts.max_evaluations = Some(20);
        opts.checkpoint = Some(path.clone());
        let original = run_quiet(opts.clone(), &ex);
        let full = std::fs::read_to_string(&path).unwrap();

        // Kill #1: 7 complete trials plus a torn line of dead bytes.
        let prefix: Vec<&str> = full.lines().take(8).collect();
        std::fs::write(
            &path,
            prefix.join("\n") + "\n{\"type\":\"Trial\",\"fp\":9,\"sc",
        )
        .unwrap();
        opts.resume = Some(path.clone());
        let first = run_quiet(opts.clone(), &ex);
        assert_eq!(first.session, original.session);

        // Kill #2: again, on the rebuilt journal.
        let rebuilt = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rebuilt, full, "checkpoint+resume rebuilds the journal");
        let prefix: Vec<&str> = rebuilt.lines().take(12).collect();
        std::fs::write(&path, prefix.join("\n") + "\n{torn").unwrap();

        // Resume #2 without checkpointing: only the on-load compaction
        // rewrites the file, and it must leave exactly the complete
        // prefix — the dead tail bytes are gone.
        opts.checkpoint = None;
        let second = run_quiet(opts, &ex);
        assert_eq!(second.session, original.session);
        let compacted = std::fs::read_to_string(&path).unwrap();
        assert_eq!(compacted, prefix.join("\n") + "\n");
        assert!(!compacted.contains("{torn"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn try_run_surfaces_session_errors_without_panicking() {
        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.technique = "alchemy".to_string();
        let err = Tuner::new(opts)
            .try_run(&ex, "t", &TelemetryBus::disabled())
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::InvalidOptions(OptionsError::UnknownTechnique(_))
        ));
        assert!(err.to_string().contains("unknown technique"));

        let mut opts = quick_opts();
        opts.batch = 0;
        let err = Tuner::new(opts)
            .try_run(&ex, "t", &TelemetryBus::disabled())
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::InvalidOptions(OptionsError::ZeroBatch)
        ));

        let mut opts = quick_opts();
        opts.resume = Some(std::path::PathBuf::from("/nonexistent/journal.jsonl"));
        let err = Tuner::new(opts)
            .try_run(&ex, "t", &TelemetryBus::disabled())
            .unwrap_err();
        assert!(matches!(err, SessionError::ResumeLoad { .. }));
    }

    #[test]
    fn resume_refuses_a_foreign_journal() {
        let ex = SimExecutor::new(startup_workload());
        let path = temp_journal("foreign");
        let mut opts = quick_opts();
        opts.max_evaluations = Some(6);
        opts.checkpoint = Some(path.clone());
        let _ = run_quiet(opts.clone(), &ex);

        // A different seed is a different session: the header mismatch
        // must refuse to resume rather than silently fork the trace.
        opts.seed = 999;
        opts.checkpoint = None;
        opts.resume = Some(path.clone());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_quiet(opts, &ex);
        }));
        assert!(caught.is_err(), "foreign journal accepted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pipeline_features_stretch_the_budget() {
        let ex = SimExecutor::new(startup_workload());
        let mut legacy_opts = quick_opts();
        legacy_opts.budget = SimDuration::from_mins(10);
        let legacy = run_quiet(legacy_opts.clone(), &ex);

        let mut adaptive_opts = legacy_opts.clone();
        adaptive_opts.cache = Some(CachePolicy::default());
        adaptive_opts.protocol.racing = Some(Racing::default());
        let adaptive = run_quiet(adaptive_opts, &ex);

        // Same budget, more distinct configurations measured, and a
        // result no worse than what the fixed pipeline found.
        assert!(
            adaptive.session.distinct > legacy.session.distinct,
            "adaptive {} vs legacy {}",
            adaptive.session.distinct,
            legacy.session.distinct
        );
        assert!(adaptive.session.aborted > 0, "racing never fired");
        assert!(adaptive.session.best_secs <= adaptive.session.default_secs);
    }

    #[test]
    fn racing_only_session_still_improves_and_reports_aborts() {
        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.budget = SimDuration::from_mins(10);
        opts.protocol.racing = Some(Racing::default());
        let result = run_quiet(opts, &ex);
        assert!(result.session.best_secs <= result.session.default_secs);
        assert!(result.session.aborted > 0, "racing never fired");
        // Aborted trials are censored, never best.
        assert!(result.session.best_secs.is_finite());
        // Every trial was measured (no cache): distinct == evaluations.
        assert_eq!(result.session.distinct, result.session.evaluations);
    }

    #[test]
    fn model_screening_fires_and_is_deterministic_across_worker_counts() {
        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.budget = SimDuration::from_mins(15);
        opts.model = Some(ModelPolicy::default());
        let narrow = run_quiet(opts.clone(), &ex);
        assert!(narrow.session.model_fits > 0, "surrogate never fitted");
        assert!(narrow.session.screened > 0, "screening never rejected");
        // Screening trims over-proposals back to the batch size, so the
        // number of real measurements is untouched by the model layer.
        assert_eq!(
            narrow.session.trials.len() as u64,
            narrow.session.evaluations
        );

        opts.workers = 8;
        let wide = run_quiet(opts, &ex);
        assert_eq!(
            wide.session, narrow.session,
            "screened trial stream must not depend on worker count"
        );
    }

    #[test]
    fn model_prefix_on_the_technique_enables_default_screening() {
        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.budget = SimDuration::from_mins(15);
        opts.technique = "model:ensemble".to_string();
        assert!(opts.model.is_none());
        let result = run_quiet(opts, &ex);
        assert!(result.session.screened > 0, "prefix did not enable model");
    }

    #[test]
    fn killed_model_session_resumes_to_the_same_screening_decisions() {
        let ex = SimExecutor::new(startup_workload());
        let path = temp_journal("model-resume");
        let mut opts = quick_opts();
        opts.budget = SimDuration::from_mins(15);
        opts.model = Some(ModelPolicy {
            warmup: 6,
            ..ModelPolicy::default()
        });
        opts.checkpoint = Some(path.clone());
        let original = run_quiet(opts.clone(), &ex);
        assert!(original.session.screened > 0, "screening never rejected");

        // Kill mid-run: keep the header plus a prefix of trials. The
        // resumed session refits the surrogate from the replayed trials,
        // so every later screening decision must replay identically.
        let full = std::fs::read_to_string(&path).unwrap();
        let prefix: Vec<&str> = full.lines().take(12).collect();
        std::fs::write(&path, prefix.join("\n") + "\n").unwrap();

        opts.resume = Some(path.clone());
        let resumed = run_quiet(opts, &ex);
        assert_eq!(resumed.session, original.session);
        assert_eq!(resumed.session.screened, original.session.screened);
        assert_eq!(
            resumed.best_config.fingerprint(),
            original.best_config.fingerprint()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spans_are_live_only_and_leave_the_results_unchanged() {
        use jtune_telemetry::MemoryRecorder;
        use std::sync::Arc;

        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.max_evaluations = Some(12);

        let rec = Arc::new(MemoryRecorder::new());
        let bus = TelemetryBus::new().with(rec.clone()).with_spans(true);
        let spanned = Tuner::new(opts.clone()).run(&ex, "t", &bus);

        let events = rec.events();
        let opened = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PhaseStarted { .. }))
            .count();
        let closed = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PhaseEnded { .. }))
            .count();
        assert!(opened > 0, "no spans opened");
        assert!(
            closed >= opened,
            "unclosed spans (close-only spans may add more)"
        );
        let phases: std::collections::HashSet<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseStarted { phase, .. } => Some(phase.as_str()),
                _ => None,
            })
            .collect();
        assert!(phases.contains("propose"));
        assert!(phases.contains("measure"));

        // Span events never reach the serialised trace, and never change
        // the session's results.
        assert!(events
            .iter()
            .filter(|e| matches!(
                e,
                TraceEvent::PhaseStarted { .. } | TraceEvent::PhaseEnded { .. }
            ))
            .all(|e| e.is_ephemeral()));
        let plain = run_quiet(opts, &ex);
        assert_eq!(spanned.session, plain.session);
    }

    #[test]
    fn portfolio_technique_runs_and_improves() {
        let ex = SimExecutor::new(startup_workload());
        let mut opts = quick_opts();
        opts.budget = SimDuration::from_mins(10);
        opts.technique = "portfolio".to_string();
        let result = run_quiet(opts, &ex);
        assert!(result.session.best_secs <= result.session.default_secs);
        assert!(result.session.evaluations > 1);
    }
}
