//! Executors: things that run a JVM configuration and measure it.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use jtune_flags::{FlagKind, JvmConfig, Registry};
use jtune_jvmsim::{JvmSim, Machine, PreparedRun, RunFailure, Workload};
use jtune_util::cli::{self, Opt};
use jtune_util::SimDuration;

use crate::error::TrialError;
use crate::fault::{FaultPlan, FaultyExecutor};

/// One measured run of one configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall-clock run time (virtual for the simulator, real for a
    /// process). Meaningful even on failure (time until the crash).
    pub time: SimDuration,
    /// 99th-percentile stop-the-world pause, when the executor can observe
    /// it (the simulator can; a bare `java` process cannot).
    pub pause_p99: Option<SimDuration>,
    /// Runtime counters for the telemetry stream, when the executor can
    /// observe them (the simulator can; a bare `java` process cannot).
    pub counters: Option<RunCounters>,
    /// Classified failure (crash / OOM / timeout / flag conflict), `None`
    /// on success.
    pub error: Option<TrialError>,
}

/// Per-run VM activity counters surfaced into trial telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunCounters {
    /// Total stop-the-world GC pause time.
    pub gc_pause_total: SimDuration,
    /// GC collections (young + full).
    pub gc_collections: u64,
    /// Time lost to JIT compile stalls.
    pub jit_compile_time: SimDuration,
    /// Methods JIT-compiled (all tiers).
    pub jit_compiles: u64,
}

impl Measurement {
    /// Did the run complete?
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// The p99 pause in milliseconds, if observed.
    pub fn pause_p99_ms(&self) -> Option<f64> {
        self.pause_p99.map(|p| p.as_millis_f64())
    }
}

/// Anything that can execute a configuration.
///
/// Implementations must be [`Send`] + [`Sync`]: the evaluation pool
/// shares one executor across worker threads, and boxed stacks built
/// from an [`ExecutorSpec`] move into session threads. Determinism
/// contract: for the simulator-backed executor, `measure(config, seed)`
/// is a pure function of its arguments.
pub trait Executor: Send + Sync {
    /// Execute one run. `seed` selects the measurement-noise stream.
    fn measure(&self, config: &JvmConfig, seed: u64) -> Measurement;

    /// The flag registry configurations must come from.
    fn registry(&self) -> &Registry;

    /// Fixed per-run cost charged to the tuning budget *in addition to*
    /// the measured run time (JVM start-up, harness overhead). The paper's
    /// budget burns real minutes per evaluation; this keeps the economics.
    fn fixed_overhead(&self) -> SimDuration {
        SimDuration::from_millis(500)
    }

    /// Short label for reports.
    fn describe(&self) -> String;
}

/// Simulator-backed executor: one workload on one simulated machine,
/// prepared once ([`JvmSim::prepare`]) for every run it measures.
#[derive(Clone, Debug)]
pub struct SimExecutor {
    run: PreparedRun,
    registry: &'static Registry,
    deadline: Option<SimDuration>,
}

impl SimExecutor {
    /// Executor for `workload` on the default machine and built-in
    /// registry.
    pub fn new(workload: Workload) -> SimExecutor {
        SimExecutor::on_machine(workload, Machine::default())
    }

    /// Executor on a specific machine.
    pub fn on_machine(workload: Workload, machine: Machine) -> SimExecutor {
        let registry = jtune_flags::hotspot_registry();
        SimExecutor {
            run: JvmSim::on(machine).prepare(registry, workload),
            registry,
            deadline: None,
        }
    }

    /// Honor a virtual run deadline: a run whose simulated time exceeds
    /// it is reported as [`TrialError::Timeout`] with the deadline (the
    /// time the watchdog would have burned) charged as its cost — the
    /// same semantics [`ProcessExecutor::with_deadline`] has for real
    /// hung JVMs.
    pub fn with_deadline(mut self, deadline: SimDuration) -> SimExecutor {
        self.deadline = Some(deadline);
        self
    }

    /// The workload being measured.
    pub fn workload(&self) -> &Workload {
        self.run.workload()
    }

    /// Full outcome access (experiments report GC/JIT detail).
    pub fn run_full(&self, config: &JvmConfig, seed: u64) -> jtune_jvmsim::RunOutcome {
        self.run.run(config, seed)
    }
}

impl Executor for SimExecutor {
    fn measure(&self, config: &JvmConfig, seed: u64) -> Measurement {
        let outcome = self.run.run(config, seed);
        if let Some(deadline) = self.deadline {
            if outcome.total > deadline {
                return Measurement {
                    time: deadline,
                    pause_p99: None,
                    counters: None,
                    error: Some(TrialError::Timeout(format!(
                        "run timed out after {deadline} (virtual watchdog)"
                    ))),
                };
            }
        }
        let pause_p99 = if outcome.gc.pauses.count() > 0 {
            Some(outcome.gc.pauses.percentile(99.0))
        } else {
            Some(jtune_util::SimDuration::ZERO)
        };
        let counters = RunCounters {
            gc_pause_total: outcome.gc.pauses.sum(),
            gc_collections: outcome.gc.young_collections + outcome.gc.full_collections,
            jit_compile_time: outcome.breakdown.jit_stall,
            jit_compiles: outcome.jit.c1_compiles + outcome.jit.c2_compiles,
        };
        Measurement {
            time: outcome.total,
            pause_p99,
            counters: Some(counters),
            error: outcome.failure.map(|f| {
                let message = f.to_string();
                match f {
                    RunFailure::OutOfMemory => TrialError::Oom(message),
                    RunFailure::InvalidConfig(_) => TrialError::FlagConflict(message),
                }
            }),
        }
    }

    fn registry(&self) -> &Registry {
        self.registry
    }

    fn describe(&self) -> String {
        format!("sim:{}", self.run.workload().name)
    }
}

/// Executor that launches a real `java` process — the paper's mode.
///
/// The command line is `java <flags…> <fixed args…>`; run time is the
/// process's wall-clock time. Requires a JDK whose flags match the
/// registry (JDK 7/8 era for the built-in registry; newer JDKs reject
/// removed flags, which surfaces as a measurement error the tuner treats
/// like a crash — exactly what happens on a real testbed).
#[derive(Clone, Debug)]
pub struct ProcessExecutor {
    java: PathBuf,
    fixed_args: Vec<String>,
    registry: &'static Registry,
    deadline: Option<std::time::Duration>,
}

impl ProcessExecutor {
    /// Build with an explicit `java` path and the benchmark command line
    /// (e.g. `["-jar", "dacapo.jar", "h2"]`).
    pub fn new(java: impl Into<PathBuf>, fixed_args: Vec<String>) -> ProcessExecutor {
        ProcessExecutor {
            java: java.into(),
            fixed_args,
            registry: jtune_flags::hotspot_registry(),
            deadline: None,
        }
    }

    /// Watchdog: kill any run still alive after `deadline` and report it
    /// as [`TrialError::Timeout`] (transient — the host hung, not
    /// necessarily the flags). Without a deadline a hung JVM wedges its
    /// worker thread forever.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> ProcessExecutor {
        self.deadline = Some(deadline);
        self
    }

    /// Find `java` on `PATH`, if any.
    pub fn from_path(fixed_args: Vec<String>) -> Option<ProcessExecutor> {
        let path = std::env::var_os("PATH")?;
        let java = find_java_in(std::env::split_paths(&path))?;
        Some(ProcessExecutor::new(java, fixed_args))
    }

    /// Run with the watchdog: spawn, poll, kill on deadline.
    fn run_with_watchdog(
        &self,
        command: &mut Command,
        limit: std::time::Duration,
    ) -> (SimDuration, Option<TrialError>) {
        let start = Instant::now();
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => {
                return (
                    SimDuration::from_secs_f64(start.elapsed().as_secs_f64()),
                    Some(TrialError::classify(format!("failed to launch java: {e}"))),
                )
            }
        };
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    let elapsed = SimDuration::from_secs_f64(start.elapsed().as_secs_f64());
                    let error = (!status.success())
                        .then(|| TrialError::classify(format!("java exited with {status}")));
                    return (elapsed, error);
                }
                Ok(None) => {
                    let elapsed = start.elapsed();
                    if elapsed >= limit {
                        let _ = child.kill();
                        let _ = child.wait();
                        return (
                            SimDuration::from_secs_f64(elapsed.as_secs_f64()),
                            Some(TrialError::Timeout(format!(
                                "run timed out after {:.1}s (killed by watchdog)",
                                limit.as_secs_f64()
                            ))),
                        );
                    }
                    let remaining = limit - elapsed;
                    std::thread::sleep(remaining.min(std::time::Duration::from_millis(10)));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return (
                        SimDuration::from_secs_f64(start.elapsed().as_secs_f64()),
                        Some(TrialError::classify(format!("failed to poll java: {e}"))),
                    );
                }
            }
        }
    }
}

/// Search `dirs` for a `java` launcher: accepts `java` and (for
/// Windows-style layouts) `java.exe`, skipping candidates that exist but
/// are not executable — a directory named `java`, or a plain data file,
/// must not shadow the real launcher later on `PATH`.
fn find_java_in(dirs: impl IntoIterator<Item = PathBuf>) -> Option<PathBuf> {
    for dir in dirs {
        for name in ["java", "java.exe"] {
            let candidate = dir.join(name);
            if candidate.is_file() && is_executable(&candidate) {
                return Some(candidate);
            }
        }
    }
    None
}

#[cfg(unix)]
fn is_executable(path: &std::path::Path) -> bool {
    use std::os::unix::fs::PermissionsExt;
    std::fs::metadata(path).is_ok_and(|m| m.permissions().mode() & 0o111 != 0)
}

#[cfg(not(unix))]
fn is_executable(_path: &std::path::Path) -> bool {
    // Windows has no execute bit; the `.exe` suffix is the convention.
    true
}

/// The option each gated flag kind needs ahead of it on a `java` line.
const UNLOCKS: [(FlagKind, &str); 2] = [
    (FlagKind::Diagnostic, "-XX:+UnlockDiagnosticVMOptions"),
    (FlagKind::Experimental, "-XX:+UnlockExperimentalVMOptions"),
];

impl Executor for ProcessExecutor {
    fn measure(&self, config: &JvmConfig, _seed: u64) -> Measurement {
        // HotSpot rejects a diagnostic or experimental flag unless its
        // unlock option comes earlier on the line. `to_args` stays as
        // traces and records pin it; only the launched command adds them.
        let delta = config.delta(self.registry);
        let unlocks = UNLOCKS
            .iter()
            .filter(|(kind, _)| delta.iter().any(|d| self.registry.spec(d.id).kind == *kind));
        let mut command = Command::new(&self.java);
        command
            .args(unlocks.map(|(_, option)| option))
            .args(config.to_args(self.registry))
            .args(&self.fixed_args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        let (time, error) = match self.deadline {
            Some(limit) => self.run_with_watchdog(&mut command, limit),
            None => {
                let start = Instant::now();
                let status = command.status();
                let elapsed = SimDuration::from_secs_f64(start.elapsed().as_secs_f64());
                let error = match status {
                    Ok(s) if s.success() => None,
                    Ok(s) => Some(TrialError::classify(format!("java exited with {s}"))),
                    Err(e) => Some(TrialError::classify(format!("failed to launch java: {e}"))),
                };
                (elapsed, error)
            }
        };
        Measurement {
            time,
            pause_p99: None,
            counters: None,
            error,
        }
    }

    fn registry(&self) -> &Registry {
        self.registry
    }

    fn fixed_overhead(&self) -> SimDuration {
        SimDuration::from_millis(200)
    }

    fn describe(&self) -> String {
        format!("process:{}", self.java.display())
    }
}

impl Executor for Box<dyn Executor> {
    fn measure(&self, config: &JvmConfig, seed: u64) -> Measurement {
        (**self).measure(config, seed)
    }

    fn registry(&self) -> &Registry {
        (**self).registry()
    }

    fn fixed_overhead(&self) -> SimDuration {
        (**self).fixed_overhead()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// What kind of backend an [`ExecutorSpec`] builds on.
#[derive(Clone, Debug)]
pub enum ExecutorKind {
    /// The JVM simulator running `Workload` on the default machine.
    Sim(Workload),
    /// A real `java` binary launched per trial.
    Process {
        /// Path to the `java` binary.
        java: PathBuf,
        /// Fixed arguments appended after the tuned `-XX:` flags.
        args: Vec<String>,
    },
}

/// A declarative description of an executor stack.
///
/// The CLI, the experiment drivers, daemon sessions and remote workers
/// all used to hand-wire their Sim/Process/Faulty layers; this is the
/// one description they now build from. `build()` composes the layers
/// in the canonical order (fault injection wraps the backend; callers
/// add memoization/gating on top), so every entry point produces the
/// same stack — and the same `describe()` tag, which is what keys the
/// cross-session [`MeasurementCache`](crate::MeasurementCache) and the
/// journal's resume-signature check.
#[derive(Clone, Debug)]
pub struct ExecutorSpec {
    /// The backend to run trials on.
    pub kind: ExecutorKind,
    /// Per-trial watchdog deadline in seconds (virtual seconds for the
    /// simulator, wall seconds for a process).
    pub deadline_secs: Option<f64>,
    /// Seeded fault injection, if any.
    pub fault: Option<FaultPlan>,
}

impl ExecutorSpec {
    /// A simulator spec for `workload`, no deadline, no faults.
    pub fn sim(workload: Workload) -> ExecutorSpec {
        ExecutorSpec {
            kind: ExecutorKind::Sim(workload),
            deadline_secs: None,
            fault: None,
        }
    }

    /// A process spec launching `java` with fixed `args` per trial.
    pub fn process(java: impl Into<PathBuf>, args: Vec<String>) -> ExecutorSpec {
        ExecutorSpec {
            kind: ExecutorKind::Process {
                java: java.into(),
                args,
            },
            deadline_secs: None,
            fault: None,
        }
    }

    /// Resolve a spec from an executor tag of the form `sim:<workload>`
    /// (the [`Executor::describe`] string of a plain simulator stack).
    /// This is how a remote worker reconstructs the executor a lease
    /// names; tags with extra layers (faults, deadlines) or unknown
    /// workloads are rejected so the lease can be failed back.
    pub fn named(tag: &str) -> Result<ExecutorSpec, String> {
        let Some(name) = tag.strip_prefix("sim:") else {
            return Err(format!("unsupported executor tag {tag:?}"));
        };
        let workload = jtune_workloads::workload_by_name(name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        Ok(ExecutorSpec::sim(workload))
    }

    /// Add a per-trial watchdog deadline (seconds; must be positive).
    pub fn with_deadline(mut self, secs: f64) -> ExecutorSpec {
        self.deadline_secs = Some(secs);
        self
    }

    /// Add (or clear) seeded fault injection.
    pub fn with_fault(mut self, plan: Option<FaultPlan>) -> ExecutorSpec {
        self.fault = plan;
        self
    }

    /// Build the described stack. The concrete layers are erased: every
    /// caller works against `Box<dyn Executor>`, which is itself an
    /// [`Executor`], so the box slots into any wrapper.
    pub fn build(&self) -> Box<dyn Executor> {
        let base: Box<dyn Executor> = match &self.kind {
            ExecutorKind::Sim(workload) => {
                let mut sim = SimExecutor::new(workload.clone());
                if let Some(secs) = self.deadline_secs {
                    sim = sim.with_deadline(SimDuration::from_secs_f64(secs));
                }
                Box::new(sim)
            }
            ExecutorKind::Process { java, args } => {
                let mut process = ProcessExecutor::new(java.clone(), args.clone());
                if let Some(secs) = self.deadline_secs {
                    process = process.with_deadline(std::time::Duration::from_secs_f64(secs));
                }
                Box::new(process)
            }
        };
        match &self.fault {
            Some(plan) => Box::new(FaultyExecutor::new(base, *plan)),
            None => base,
        }
    }
}

/// The executor options of `jtune tune`/`suite`, applied to the spec of
/// each tuned workload. `--fault-seed` reseeds the plan `--fault-rate`
/// created, so it comes second (and does nothing without a rate).
#[rustfmt::skip]
pub const EXECUTOR_OPTIONS: &[Opt<ExecutorSpec>] = &[
    Opt::new("--deadline SECS", "off", "trial watchdog: kill runs exceeding SECS (virtual for the simulator, wall-clock for a JVM)",
        |spec, v| match v.parse().ok().filter(|s: &f64| *s > 0.0) {
            Some(secs) => { spec.deadline_secs = Some(secs); Ok(()) }
            None => Err("is not a positive number".into()),
        }),
    Opt::env("JTUNE_FAULT_RATE", "--fault-rate F", "off", "inject seeded transient faults (crashes, hangs, noise spikes) into F of runs",
        |spec, v| cli::number(v).map(|r| spec.fault = (r > 0.0).then(|| FaultPlan::transient(r, FaultPlan::DEFAULT_SEED)))),
    Opt::env("JTUNE_FAULT_SEED", "--fault-seed N", "1024023", "reseed the --fault-rate schedule",
        |spec, v| cli::int(v).map(|seed| if let Some(plan) = &mut spec.fault { plan.seed = seed })),
];

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_flags::FlagValue;

    fn small_workload() -> Workload {
        let mut w = Workload::baseline("exec-test");
        w.total_work = 3e8;
        w
    }

    #[test]
    fn sim_executor_measures_deterministically() {
        let ex = SimExecutor::new(small_workload());
        let c = JvmConfig::default_for(ex.registry());
        let a = ex.measure(&c, 1);
        let b = ex.measure(&c, 1);
        assert!(a.ok());
        assert_eq!(a.time, b.time);
        let c2 = ex.measure(&c, 2);
        assert_ne!(a.time, c2.time);
    }

    #[test]
    fn sim_executor_reports_oom_as_error() {
        let mut w = small_workload();
        w.live_set = 2e9;
        w.nursery_survival = 0.5;
        w.alloc_rate = 4.0; // enough promotion to actually hit the wall
        let ex = SimExecutor::new(w);
        let mut c = JvmConfig::default_for(ex.registry());
        c.set_by_name(ex.registry(), "MaxHeapSize", FlagValue::Int(128 << 20))
            .unwrap();
        let m = ex.measure(&c, 1);
        assert!(!m.ok());
        let err = m.error.unwrap();
        assert_eq!(err.kind(), "oom");
        assert!(err.message().contains("OutOfMemory"));
    }

    #[test]
    fn describe_names_the_workload() {
        let ex = SimExecutor::new(small_workload());
        assert_eq!(ex.describe(), "sim:exec-test");
    }

    #[test]
    fn executor_spec_builds_the_same_stack_as_hand_wiring() {
        let spec = ExecutorSpec::sim(small_workload());
        let built = spec.build();
        let hand = SimExecutor::new(small_workload());
        assert_eq!(built.describe(), hand.describe());
        let c = JvmConfig::default_for(built.registry());
        assert_eq!(built.measure(&c, 3).time, hand.measure(&c, 3).time);

        // A faulty spec reproduces FaultyExecutor's describe tag, so
        // resume-signature checks and cache keys are unchanged.
        let plan = FaultPlan::transient(0.05, 99);
        let faulty_spec = ExecutorSpec::sim(small_workload()).with_fault(Some(plan));
        let hand_faulty = FaultyExecutor::new(SimExecutor::new(small_workload()), plan);
        assert_eq!(faulty_spec.build().describe(), hand_faulty.describe());
    }

    #[test]
    fn executor_spec_named_resolves_sim_tags_only() {
        let spec = ExecutorSpec::named("sim:compress").unwrap();
        assert_eq!(spec.build().describe(), "sim:compress");
        assert!(ExecutorSpec::named("sim:not-a-workload").is_err());
        assert!(ExecutorSpec::named("process:/usr/bin/java").is_err());
        assert!(ExecutorSpec::named("faulty[seed=1]:sim:compress").is_err());
    }

    #[test]
    fn process_executor_handles_missing_binary() {
        let ex = ProcessExecutor::new("/nonexistent/java-binary", vec!["-version".into()]);
        let c = JvmConfig::default_for(ex.registry());
        let m = ex.measure(&c, 0);
        assert!(!m.ok());
        let err = m.error.unwrap();
        assert_eq!(err.kind(), "crash");
        assert!(err.message().contains("failed to launch"));
    }

    #[test]
    fn sim_executor_deadline_reports_timeout() {
        let ex = SimExecutor::new(small_workload());
        let c = JvmConfig::default_for(ex.registry());
        let clean = ex.measure(&c, 1);
        assert!(clean.ok());
        // A deadline just below the clean run time trips the virtual
        // watchdog and charges exactly the deadline.
        let deadline = clean.time - SimDuration::from_millis(1);
        let guarded = SimExecutor::new(small_workload()).with_deadline(deadline);
        let m = guarded.measure(&c, 1);
        assert!(!m.ok());
        let err = m.error.unwrap();
        assert_eq!(err.kind(), "timeout");
        assert!(err.is_transient());
        assert_eq!(m.time, deadline);
        // A generous deadline changes nothing.
        let roomy = SimExecutor::new(small_workload())
            .with_deadline(clean.time + SimDuration::from_secs(1));
        assert_eq!(roomy.measure(&c, 1).time, clean.time);
    }

    #[cfg(unix)]
    #[test]
    fn watchdog_kills_a_hung_process() {
        if !std::path::Path::new("/bin/sleep").exists() {
            eprintln!("skipping: no /bin/sleep");
            return;
        }
        // "java" here is /bin/sleep: it ignores the flag args (treats
        // them as an error) — use a command that really hangs: sh -c.
        let ex = ProcessExecutor::new("/bin/sh", vec!["-c".into(), "sleep 30".into()])
            .with_deadline(std::time::Duration::from_millis(200));
        let c = JvmConfig::default_for(ex.registry());
        let start = std::time::Instant::now();
        let m = ex.measure(&c, 0);
        assert!(start.elapsed() < std::time::Duration::from_secs(10));
        assert!(!m.ok());
        let err = m.error.unwrap();
        assert_eq!(err.kind(), "timeout", "{}", err.message());
        assert!(err.is_transient());
        assert!(err.message().contains("killed by watchdog"));
    }

    #[cfg(unix)]
    #[test]
    fn watchdog_passes_a_fast_process_through() {
        let ex = ProcessExecutor::new("/bin/sh", vec!["-c".into(), "exit 0".into()])
            .with_deadline(std::time::Duration::from_secs(30));
        let c = JvmConfig::default_for(ex.registry());
        let m = ex.measure(&c, 0);
        assert!(m.ok(), "{:?}", m.error);
    }

    #[test]
    fn find_java_accepts_exe_suffix_and_skips_non_executables() {
        let root = std::env::temp_dir().join(format!("jtune-java-search-{}", std::process::id()));
        let plain = root.join("plain");
        let windows = root.join("windows");
        let empty = root.join("empty");
        for d in [&plain, &windows, &empty] {
            std::fs::create_dir_all(d).unwrap();
        }
        std::fs::write(plain.join("java"), b"#!/bin/sh\n").unwrap();
        std::fs::write(windows.join("java.exe"), b"MZ").unwrap();

        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let exe = |p: &std::path::Path| {
                std::fs::set_permissions(p, std::fs::Permissions::from_mode(0o755)).unwrap()
            };
            let noexec = |p: &std::path::Path| {
                std::fs::set_permissions(p, std::fs::Permissions::from_mode(0o644)).unwrap()
            };
            // Non-executable `java` must be skipped in favour of a later dir.
            noexec(&plain.join("java"));
            exe(&windows.join("java.exe"));
            let found = find_java_in(vec![empty.clone(), plain.clone(), windows.clone()]);
            assert_eq!(found, Some(windows.join("java.exe")));
            // Once executable, the earlier plain `java` wins.
            exe(&plain.join("java"));
            let found = find_java_in(vec![empty.clone(), plain.clone(), windows.clone()]);
            assert_eq!(found, Some(plain.join("java")));
        }
        #[cfg(not(unix))]
        {
            // No execute bit to distinguish: both names are accepted.
            let found = find_java_in(vec![empty.clone(), windows.clone()]);
            assert_eq!(found, Some(windows.join("java.exe")));
        }
        assert_eq!(find_java_in(vec![empty.clone()]), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn unlock_options_precede_gated_flags_on_the_java_line() {
        let dir = std::env::temp_dir().join(format!("jtune-fake-java-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (java, argv) = (dir.join("java"), dir.join("argv"));
        let script = format!("#!/bin/sh\nprintf '%s\\n' \"$@\" > '{}'\n", argv.display());
        std::fs::write(dir.join("java.sh"), script).unwrap();
        // A child writes the executable: a write descriptor held by this
        // binary could leak into a sibling test's fork and make the exec
        // fail with "Text file busy".
        let copied = Command::new("sh")
            .args(["-c", "cp java.sh java && chmod 755 java"])
            .current_dir(&dir)
            .status()
            .unwrap();
        assert!(copied.success());
        let ex = ProcessExecutor::new(&java, vec!["-version".into()]);
        let r = ex.registry();
        let launch = |sets: &[(&str, FlagValue)]| {
            let mut c = JvmConfig::default_for(r);
            for &(name, value) in sets {
                c.set_by_name(r, name, value).unwrap();
            }
            let m = ex.measure(&c, 0);
            assert!(m.ok(), "{:?}", m.error);
            let line = std::fs::read_to_string(&argv).unwrap();
            (
                line.lines().map(String::from).collect::<Vec<_>>(),
                c.to_args(r),
            )
        };
        let (line, args) = launch(&[("NewRatio", FlagValue::Int(3))]);
        assert_eq!(line, ["-XX:NewRatio=3", "-version"]);
        assert_eq!(args, ["-XX:NewRatio=3"]);
        let (line, args) = launch(&[
            ("PauseAtExit", FlagValue::Bool(true)),
            ("NewRatio", FlagValue::Int(3)),
        ]);
        assert_eq!(args, ["-XX:NewRatio=3", "-XX:+PauseAtExit"]);
        assert_eq!(
            line,
            [
                "-XX:+UnlockDiagnosticVMOptions",
                "-XX:NewRatio=3",
                "-XX:+PauseAtExit",
                "-version"
            ]
        );
        let (line, args) = launch(&[
            ("G1NewSizePercent", FlagValue::Int(20)),
            ("VerifyBeforeGC", FlagValue::Bool(true)),
        ]);
        assert_eq!(args, ["-XX:+VerifyBeforeGC", "-XX:G1NewSizePercent=20"]);
        assert_eq!(
            line,
            [
                "-XX:+UnlockDiagnosticVMOptions",
                "-XX:+UnlockExperimentalVMOptions",
                "-XX:+VerifyBeforeGC",
                "-XX:G1NewSizePercent=20",
                "-version"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn process_executor_runs_real_java_if_present() {
        // Exercised only on machines with a JDK; the simulator is the
        // normal path.
        let Some(ex) = ProcessExecutor::from_path(vec!["-version".into()]) else {
            eprintln!("skipping: no java on PATH");
            return;
        };
        let c = JvmConfig::default_for(ex.registry());
        let m = ex.measure(&c, 0);
        // Default config passes no -XX flags, so any JVM accepts it.
        assert!(m.ok(), "{:?}", m.error);
        assert!(m.time > SimDuration::ZERO);
    }
}
