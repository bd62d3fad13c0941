//! Golden session hashes: a small matrix of tuning-session shapes, each
//! pinned by an FNV-1a hash of its [`SessionRecord`] JSON, of its JSONL
//! trace (what `JsonlSink` writes), and of its live event skeleton
//! (ephemeral events included, span wall times dropped). Every trace
//! line and every live event must also decode with
//! `TraceEvent::from_json` and re-encode to the same bytes.
//!
//! The other determinism tests compare two runs of the same build; this
//! one compares a run against constants, so it pins the tuner's trial
//! stream across code changes. A failure prints the whole table as Rust
//! source: if a change is *meant* to alter the stream, paste it over
//! [`GOLDEN`] and say why in the change description.
//!
//! [`SessionRecord`]: hotspot_autotuner::harness::SessionRecord

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use hotspot_autotuner::flags::Registry;
use hotspot_autotuner::harness::Measurement;
use hotspot_autotuner::prelude::*;
use hotspot_autotuner::tuner::manipulator::{ConfigManipulator, HierarchicalManipulator};

/// `(case/program, record hash, trace hash, live-skeleton hash)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("plain/compress", 0x409d3838f667e5cb, 0xb50a97d8cf1eb627, 0xd03fc6c469adaa30),
    ("plain/serial", 0x7e6b4894a5154dbb, 0xeaf7625281dbae51, 0x727fa76404da4bba),
    ("cache/compress", 0xcf2b8410893793fd, 0xada15fed8aefdf47, 0x3bb1a4204e8ae2de),
    ("cache/serial", 0x8eba12ecaa4c7982, 0xa70f8c8892ff329d, 0xe15a6f903d1ffa0d),
    ("racing/compress", 0xa580f95151d06cac, 0x251bed78e7a9f404, 0xe2d091286349c641),
    ("racing/serial", 0x87ec2112102c65dc, 0xc1c6c03959400fa5, 0x1238d26912b17f8e),
    ("faults/compress", 0xee9be918ca542a16, 0x751add2e86ce2260, 0x38775632d81d6f63),
    ("faults/serial", 0x5d5734bf4bd2bd85, 0x5329649235f22326, 0x3a0a9b28c8e23205),
    ("model/compress", 0xf20006438660da2c, 0x77747208e68d0863, 0x396bf01b5489d566),
    ("model/serial", 0xe2ee41bd8cc1e5ae, 0x26a509e900749b36, 0x4e71f2567184e8c7),
    ("portfolio/compress", 0x80f82f26655c168c, 0x560135c5162486be, 0x548e35eacf29195d),
    ("portfolio/serial", 0x1a7b4cd39f514cf2, 0x3b25a246accb2ac5, 0x216edb39210199d8),
    ("model-prefix/compress", 0x4b8394db8ba85174, 0xbe44582160143bc7, 0x3ecad07734de1664),
    ("model-prefix/serial", 0xd2b5592f22cd4f9b, 0x3fc3a8483553c00a, 0xcd417500b93388c7),
    ("flat/compress", 0x266ceef27ef0ed4e, 0x868261d6495d84b5, 0xb8bb956489f46597),
    ("flat/serial", 0xb6870f2914d11636, 0x617f617d681bd59d, 0xbe69d5ad2a324e81),
    ("gc-subset/compress", 0xbf95b4b1eaf89c46, 0x47fbf3a6829d238b, 0xa595661920df7e51),
    ("gc-subset/serial", 0x8eba12ecaa4c7982, 0xa70f8c8892ff329d, 0xe15a6f903d1ffa0d),
    ("cap/compress", 0xcd41a77ac439a5bc, 0x79235dba99540a5a, 0x7af6f3c835738fd1),
    ("cap/serial", 0x371db9e88983ccff, 0xa243db178795c297, 0xd7cc69a23bfe5338),
    ("resume/compress", 0x409d3838f667e5cb, 0x6382b36ecd40a133, 0xa9db6c8fa8f4124a),
    ("resume/serial", 0x7e6b4894a5154dbb, 0x829b28e7a2a4f832, 0x653792c625eaa1ba),
    ("suspend/compress", 0x71196019ea9daf30, 0xb9604210143b3a5f, 0x00bce1466f454f86),
    ("suspend/serial", 0x0a4854a27fa1ec3a, 0x7eb9925420b49f9c, 0xcc6187040b33295d),
    ("hostile/compress", 0xaa5c30d566ad1772, 0xacccdd985233ad52, 0x8934ce7ba0a5af9d),
    ("hostile/serial", 0x321cfa356dd6db31, 0x2e4139790eade8ed, 0xdf6d05793e2cef40),
    ("failing-default/compress", 0xce9c1a90883941b1, 0x49b78a3242943fde, 0x49b78a3242943fde),
    ("failing-default/serial", 0x8c202812e2f539ad, 0x4214b5ac147e9142, 0x4214b5ac147e9142),
];

const PROGRAMS: [&str; 2] = ["compress", "serial"];

const CASES: [&str; 14] = [
    "plain",
    "cache",
    "racing",
    "faults",
    "model",
    "portfolio",
    "model-prefix",
    "flat",
    "gc-subset",
    "cap",
    "resume",
    "suspend",
    "hostile",
    "failing-default",
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn base_opts() -> TunerOptionsBuilder {
    TunerOptions::builder()
        .budget(SimDuration::from_mins(5))
        .seed(7)
        .workers(2)
        .batch(4)
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("jtune-golden-{}-{name}", std::process::id()))
}

/// Executor on which every configuration except one fingerprint fails
/// deterministically, so whole batches fail and the session degrades.
struct HostileExecutor {
    inner: SimExecutor,
    allowed: u64,
}

impl Executor for HostileExecutor {
    fn measure(&self, config: &JvmConfig, seed: u64) -> Measurement {
        let mut m = self.inner.measure(config, seed);
        if config.fingerprint() != self.allowed {
            m.error = Some(TrialError::Crash("deterministic segfault".into()));
        }
        m
    }

    fn registry(&self) -> &Registry {
        self.inner.registry()
    }

    fn describe(&self) -> String {
        "hostile".into()
    }
}

/// One observed session: (record, JSONL trace, live skeleton).
fn observed(
    opts: TunerOptions,
    ex: &dyn Executor,
    program: &str,
) -> (TuningResult, String, String) {
    let recorder = Arc::new(MemoryRecorder::new());
    let bus = TelemetryBus::new().with(recorder.clone()).with_spans(true);
    let result = Tuner::new(opts).run(ex, program, &bus);
    let mut trace = String::new();
    let mut live = String::new();
    for event in recorder.events() {
        let line = event.to_json();
        let decoded = TraceEvent::from_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(
            decoded.to_json(),
            line,
            "live event re-encodes to its bytes"
        );
        match &event {
            TraceEvent::PhaseStarted { phase, round } => {
                live.push_str(&format!("start {phase} {round}\n"));
            }
            TraceEvent::PhaseEnded { phase, round, .. } => {
                live.push_str(&format!("end {phase} {round}\n"));
            }
            e => {
                live.push_str(&line);
                live.push('\n');
                if !e.is_ephemeral() {
                    trace.push_str(&line);
                    trace.push('\n');
                }
            }
        }
    }
    (result, trace, live)
}

fn sim(program: &str) -> SimExecutor {
    SimExecutor::new(workload_by_name(program).expect("built-in workload"))
}

fn run_case(case: &str, program: &str) -> (TuningResult, String, String) {
    let ex = sim(program);
    let opts = base_opts();
    let opts = match case {
        "plain" => opts,
        // The small gc-subset space makes techniques re-propose.
        "cache" => opts
            .cache(CachePolicy::default())
            .manipulator(ManipulatorKind::GcSubset),
        "racing" => opts.racing(Racing::default()),
        "faults" => {
            let faulty = FaultyExecutor::new(ex, FaultPlan::transient(0.05, 42));
            let opts = opts
                .retry(RetryPolicy::default())
                .quarantine(QuarantinePolicy::default());
            return observed(opts.build().expect("valid"), &faulty, program);
        }
        "model" => opts.model(ModelPolicy {
            warmup: 6,
            ..ModelPolicy::default()
        }),
        "portfolio" => opts.technique("portfolio"),
        "model-prefix" => opts.technique("model:ensemble"),
        "flat" => opts.manipulator(ManipulatorKind::Flat),
        "gc-subset" => opts.manipulator(ManipulatorKind::GcSubset),
        // Lands mid-batch: the rest of the capped batch is never recorded
        // and that round writes no checkpoint marker.
        "cap" => {
            let journal = temp(&format!("cap-{program}.jsonl"));
            let opts = opts
                .budget(SimDuration::from_mins(10))
                .max_evaluations(18)
                .checkpoint(&journal);
            let run = observed(opts.build().expect("valid"), &ex, program);
            let _ = std::fs::remove_file(&journal);
            return run;
        }
        "resume" => return killed_and_resumed(opts, &ex, program),
        "suspend" => opts.stop(Arc::new(AtomicBool::new(true))),
        "hostile" => {
            let manipulator = HierarchicalManipulator::new();
            let mut default_config = JvmConfig::default_for(ex.registry());
            manipulator.canonicalize(&mut default_config);
            let hostile = HostileExecutor {
                inner: ex,
                allowed: default_config.fingerprint(),
            };
            let opts = opts
                .budget(SimDuration::from_mins(200))
                .fail_fast(false)
                .quarantine(QuarantinePolicy::default());
            return observed(opts.build().expect("valid"), &hostile, program);
        }
        "failing-default" => {
            // Live set far beyond the default heap: the default OOMs.
            let mut w = Workload::baseline(program);
            w.total_work = 2e9;
            w.live_set = 3e9;
            w.nursery_survival = 0.6;
            w.alloc_rate = 10.0;
            let oom = SimExecutor::new(w);
            return observed(opts.build().expect("valid"), &oom, program);
        }
        other => panic!("unknown case {other}"),
    };
    observed(opts.build().expect("valid"), &ex, program)
}

/// Checkpoint a session, cut its journal after 9 trials, resume it, and
/// check the resumed session reproduces the original exactly.
fn killed_and_resumed(
    opts: TunerOptionsBuilder,
    ex: &SimExecutor,
    program: &str,
) -> (TuningResult, String, String) {
    let journal = temp(&format!("{program}.jsonl"));
    let opts = opts
        .retry(RetryPolicy::default())
        .checkpoint(&journal)
        .build()
        .expect("valid");
    let (original, trace, _) = observed(opts.clone(), ex, program);
    let full = std::fs::read_to_string(&journal).expect("journal written");
    let prefix: Vec<&str> = full.lines().take(10).collect();
    std::fs::write(&journal, prefix.join("\n") + "\n").expect("cut journal");

    let resumed_opts = TunerOptions {
        resume: Some(journal.clone()),
        ..opts
    };
    let resumed = observed(resumed_opts, ex, program);
    assert_eq!(
        resumed.0.session, original.session,
        "{program}: resumed record"
    );
    assert_eq!(resumed.1, trace, "{program}: resumed trace");
    let rebuilt = std::fs::read_to_string(&journal).expect("rebuilt journal");
    assert_eq!(rebuilt, full, "{program}: rebuilt journal");
    let _ = std::fs::remove_file(&journal);
    resumed
}

#[test]
fn session_streams_match_the_golden_hashes() {
    let mut actual = Vec::new();
    let mut cache_served = 0;
    for case in CASES {
        for program in PROGRAMS {
            let (result, trace, live) = run_case(case, program);
            for line in trace.lines() {
                let decoded = TraceEvent::from_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                assert_eq!(decoded.to_json(), line, "{case}/{program}: trace line");
            }
            match case {
                "suspend" => assert!(result.suspended, "{case}/{program}"),
                "failing-default" => assert!(result.session.default_secs.is_infinite()),
                "cap" => assert_eq!(result.session.evaluations, 18, "{case}/{program}"),
                "cache" => cache_served += result.session.cache_hits + result.session.suppressed,
                "model" | "model-prefix" => {
                    assert!(result.session.screened > 0, "{case}/{program}")
                }
                "faults" => assert!(result.session.retried > 0, "{case}/{program}"),
                "hostile" => assert!(result.session.quarantined > 0, "{case}/{program}"),
                _ => assert!(!result.suspended, "{case}/{program}"),
            }
            actual.push((
                format!("{case}/{program}"),
                fnv1a(result.session.to_json().as_bytes()),
                fnv1a(trace.as_bytes()),
                fnv1a(live.as_bytes()),
            ));
        }
    }
    assert!(cache_served > 0, "the cache case never served a trial");
    let table: String = actual
        .iter()
        .map(|(k, r, t, l)| format!("    (\"{k}\", {r:#018x}, {t:#018x}, {l:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64, u64, u64)> = GOLDEN
        .iter()
        .map(|&(k, r, t, l)| (k.to_string(), r, t, l))
        .collect();
    assert!(
        actual == expected,
        "session streams changed; the current table is:\n{table}"
    );
}
