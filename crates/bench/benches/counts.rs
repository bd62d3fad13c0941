//! Exact counts of the tuner's hot paths, taken on one thread under a
//! counting global allocator. `cargo bench -p jtune-bench --bench counts
//! [-- SNAPSHOT]` measures every count twice, exits 1 if the passes
//! disagree, prints the snapshot, and exits 1 on any count that differs
//! from SNAPSHOT (a path relative to the workspace root).

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use autotuner_core::tuner::ManipulatorKind;
use autotuner_core::{ConfigManipulator, HierarchicalManipulator, Tuner, TunerOptions};
use jtune_bench::{compare, Snapshot};
use jtune_flags::{hotspot_registry, JvmConfig};
use jtune_flagtree::hotspot_tree;
use jtune_harness::{Evaluation, RetryRecord, RunCounters, SimExecutor, TrialError, TrialLine};
use jtune_model::{FeatureEncoder, Surrogate};
use jtune_server::wire::{parse_request, parse_response, render_request, render_response};
use jtune_server::{read_frame, LeaseOffer, Request, Response, TrialOutcome};
use jtune_telemetry::{JsonlSink, TelemetryBus};
use jtune_util::{rows, SimDuration, Xoshiro256pp};
use jtune_workloads::workload_by_name;

/// Counts every allocation (`alloc_zeroed` too, through its default,
/// which calls `alloc`). Reallocations are not counted: how often a
/// growing buffer moves depends on lengths such as the temp-dir path.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: `alloc`, `dealloc` and `realloc` forward their arguments
// unchanged to `System`, which upholds the `GlobalAlloc` contract; the
// counter is only a statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made while `f` runs, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = black_box(f());
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// Per-call counts over seeded hierarchical candidates: `enforce` and
/// `mutate` on the first 64, a prepared `JvmSim` run on all 200,
/// `Surrogate::fit` on the first 50 and on all 200 simulated results, and
/// `Surrogate::predict` of the 200-result fit on the first 32.
fn per_call(s: &mut Snapshot) {
    let (registry, tree) = (hotspot_registry(), hotspot_tree());
    let manipulator = HierarchicalManipulator::new();
    let mut rng = Xoshiro256pp::seed_from_u64(0xC0DE);
    let candidates: Vec<JvmConfig> = (0..200).map(|_| manipulator.random(&mut rng)).collect();
    let mut scratch = candidates[..64].to_vec();
    let (enforce, ()) = allocations(|| {
        for c in &mut scratch {
            tree.enforce(registry, black_box(c));
        }
    });
    s.push("flagtree.enforce.allocs_per_call", enforce, 64);
    let (mutate, ()) = allocations(|| {
        for c in &candidates[..64] {
            black_box(manipulator.mutate(c, &mut rng, 0.3));
        }
    });
    s.push("core.mutate.allocs_per_call", mutate, 64);
    // Runs prepared once, as every `SimExecutor` measures them.
    let executor = SimExecutor::new(workload_by_name("serial").expect("built-in"));
    let mut secs = Vec::with_capacity(candidates.len());
    let (run, ()) = allocations(|| {
        for (seed, c) in (0..).zip(&candidates) {
            secs.push(executor.run_full(c, seed).total.as_secs_f64());
        }
    });
    s.push("jvmsim.run.allocs_per_call", run, secs.len() as u64);
    let encoder = FeatureEncoder::new(registry, tree);
    let [_, surrogate] = [50, 200].map(|n| {
        let mut surrogate = Surrogate::new(n as u64);
        for (c, &y) in candidates.iter().zip(&secs).take(n) {
            surrogate.observe(encoder.encode(c), y);
        }
        let (fit, _) = allocations(|| surrogate.fit());
        s.push(format!("model.fit_{n}.allocs_per_call"), fit, 1);
        surrogate
    });
    // One screening round scores 32 candidates.
    let probes: Vec<Vec<f64>> = candidates[..32].iter().map(|c| encoder.encode(c)).collect();
    let (predict, ()) = allocations(|| {
        for p in &probes {
            black_box(surrogate.predict(p));
        }
    });
    s.push(
        "model.predict.allocs_per_call",
        predict,
        probes.len() as u64,
    );
}

/// One fixed-seed `serial` session per manipulator, traced and
/// journalled into `dir`.
fn sessions(s: &mut Snapshot, dir: &Path) {
    use ManipulatorKind::{Flat, GcSubset, Hierarchical};
    for kind in [Hierarchical, Flat, GcSubset] {
        let label = kind.label();
        let (trace, journal) = (dir.join(format!("{label}.trace")), dir.join(label));
        let opts = TunerOptions::builder()
            .budget(SimDuration::from_secs(600))
            .seed(0xBEAC4)
            .workers(1)
            .batch(4)
            .manipulator(kind)
            .checkpoint(&journal)
            .build()
            .expect("session options are valid");
        let executor = SimExecutor::new(workload_by_name("serial").expect("built-in"));
        let bus = TelemetryBus::new().with(Arc::new(JsonlSink::create(&trace).expect("trace")));
        let (allocs, result) = allocations(|| Tuner::new(opts).run(&executor, "serial", &bus));
        let evals = result.session.evaluations;
        drop(bus);
        let trace = std::fs::read_to_string(&trace).expect("trace written");
        let journal = std::fs::metadata(&journal).expect("journal written").len();
        let name = |metric| format!("session.{label}.{metric}_per_eval");
        s.push(name("allocs"), allocs, evals);
        s.push(name("events"), trace.lines().count() as u64, evals);
        s.push(name("trace_bytes"), trace.len() as u64, evals);
        s.push(name("journal_bytes"), journal, evals);
    }
}

/// One frame's render → `read_frame` → parse round trip; returns its
/// wire bytes.
fn trip<T>(render: impl Fn() -> String, parse: impl Fn(&str) -> T) -> u64 {
    let wire = render() + "\n";
    let frame = read_frame(&mut wire.as_bytes(), 1 << 20).expect("frame reads");
    black_box(parse(&frame.expect("one frame")));
    wire.len() as u64
}

/// Wire bytes of an exchange (one frame, or a request and its reply),
/// and the allocations of its round trips.
fn exchange(s: &mut Snapshot, name: &str, trips: impl FnOnce() -> u64) {
    let (allocs, bytes) = allocations(trips);
    s.push(format!("wire.{name}.bytes_per_frame"), bytes, 1);
    s.push(format!("wire.{name}.allocs_per_round_trip"), allocs, 1);
}

fn frames(s: &mut Snapshot) {
    let offer = Response::Leased(LeaseOffer {
        lease: 9,
        sid: 3,
        slot: 1,
        seed: 0x5EED_0009,
        fingerprint: 0xFEED_FACE_CAFE_F00D,
        executor: "sim:compress".to_string(),
        deadline_ms: 10_000,
        config: "-XX:+UseParallelGC -XX:-UseSerialGC -XX:MaxHeapSize=268435456 -XX:NewRatio=3"
            .split(' ')
            .map(String::from)
            .collect(),
    });
    let parse_offer = |line: &str| parse_response(line).expect("offer parses");
    let parse_complete = |line: &str| parse_request(line).expect("complete parses");
    exchange(s, "lease_offer", || {
        trip(|| render_response(&offer), parse_offer)
    });
    let complete = |wait_ms| Request::Complete {
        wid: 7,
        lease: 9,
        outcome: TrialOutcome {
            time_ns: 2_310_000_009,
            pause_p99_ns: Some(18_400_000),
            gc_pause_ns: Some(120_500_000),
            gc_collections: Some(18),
            jit_ns: Some(45_200_000),
            jit_compiles: Some(310),
            ..TrialOutcome::default()
        },
        wait_ms,
    };
    let plain = complete(None);
    exchange(s, "complete", || {
        trip(|| render_request(&plain), parse_complete)
    });
    // A `complete` asking for the next lease, answered with the offer.
    let combined = complete(Some(500));
    exchange(s, "complete_lease", || {
        trip(|| render_request(&combined), parse_complete)
            + trip(|| render_response(&offer), parse_offer)
    });
}

/// One journal `Trial` line's encode → decode round trip: a successful
/// evaluation with three samples, counters and one retried attempt.
fn journal(s: &mut Snapshot) {
    let ns = SimDuration::from_nanos;
    let evaluation = Evaluation {
        score: Some(ns(5_000_000_001)),
        samples: vec![ns(4_999_999_999), ns(5_000_000_001), ns(5_000_000_003)],
        error: None,
        cost: ns(16_500_000_021),
        counters: Some(RunCounters {
            gc_pause_total: ns(123_456_789),
            gc_collections: 17,
            jit_compile_time: ns(987_654_321),
            jit_compiles: 250,
        }),
        runs: 3,
        raced: None,
        retried: 1,
        retry_log: vec![RetryRecord {
            rep: 1,
            attempt: 0,
            error: TrialError::Timeout("injected hang: run timed out after 2m".to_string()),
            cost: ns(120_000_000_000),
        }],
    };
    let (allocs, ()) = allocations(|| {
        let line = rows::encode(&TrialLine::new(0xFEED_FACE_CAFE_F00D, &evaluation));
        let trial: TrialLine = rows::decode(&line).expect("trial line decodes");
        black_box(trial.into_entry());
    });
    s.push("journal.trial.allocs_per_round_trip", allocs, 1);
}

fn rustc_version() -> String {
    let out = std::process::Command::new("rustc").arg("-V").output();
    let version = out.ok().and_then(|out| String::from_utf8(out.stdout).ok());
    version.map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// Exit 1, listing `diffs` under `what`, unless there are none.
fn gate(what: &str, diffs: Vec<String>) {
    if diffs.is_empty() {
        return;
    }
    eprintln!("{what}:");
    diffs.iter().for_each(|d| eprintln!("  {d}"));
    std::process::exit(1);
}

fn main() {
    // `cargo bench` adds `--bench`; the one positional argument is SNAPSHOT.
    let committed = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let dir = std::env::temp_dir().join(format!("jtune-counts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let [first, second] = [(); 2].map(|()| {
        let mut s = Snapshot::new(rustc_version());
        per_call(&mut s);
        sessions(&mut s, &dir);
        frames(&mut s);
        journal(&mut s);
        s
    });
    let _ = std::fs::remove_dir_all(&dir);
    gate("counts differ between two passes", compare(&first, &second));
    print!("{}", first.to_json());
    let Some(name) = committed else { return };
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(&name);
    let old = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Snapshot::parse(&text))
        .unwrap_or_else(|e| panic!("cannot read snapshot {name}: {e}"));
    if old.rustc != first.rustc {
        eprintln!("note: {name} was taken with {}", old.rustc);
    }
    gate(&format!("counts differ from {name}"), compare(&old, &first));
    eprintln!("{} counts match {name}", first.counts.len());
}
