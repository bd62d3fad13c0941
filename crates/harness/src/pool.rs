//! Parallel candidate evaluation.
//!
//! The tuner proposes batches of candidate configurations; evaluating them
//! is embarrassingly parallel. This pool follows the hpc-parallel
//! guidance: scoped threads over an index-based work queue (no unsafe, no
//! channels needed for a finite batch), results written into per-slot
//! cells so the output order equals the input order, and noise seeds
//! derived from `(base_seed, candidate index)` — never from thread
//! identity — so a run is bit-identical whether evaluated on 1 worker or
//! 16.
//!
//! The calling thread is one of the workers: it takes slots off the same
//! queue as the `workers - 1` helpers it spawns for the batch, so a
//! one-worker batch spawns no thread and runs the very loop a wide one
//! does. The helpers are joined by hand, and a panic in any slot, the
//! caller's included, reaches the caller once the batch has drained.
//!
//! Telemetry obeys the same contract: workers never publish events
//! directly. Per-candidate events are buffered in the result slots and
//! flushed to the [`TelemetryBus`] in candidate order once the batch
//! joins, so a traced run's event stream is bit-identical at any worker
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use jtune_flags::JvmConfig;
use jtune_telemetry::{TelemetryBus, TraceEvent};

use crate::executor::Executor;
use crate::protocol::{Evaluation, Protocol};

/// The slot-index → noise-seed derivation shared by every evaluation
/// path. A candidate's seed depends only on `(base_seed, slot)`, so a
/// batch where some slots are served from cache still measures the
/// remaining slots with exactly the seeds a full batch would have used.
pub(crate) fn seed_for(base_seed: u64, slot: usize) -> u64 {
    base_seed ^ (slot as u64).wrapping_mul(0xA24B_AED4_963E_E407)
}

/// Evaluate every candidate with up to `workers` threads, emitting one
/// [`TraceEvent::TrialMeasured`] per candidate on `bus`, always in
/// candidate order.
///
/// Returns evaluations in candidate order. `workers == 0` or `1` runs
/// every candidate on the calling thread (handy for debugging and
/// deterministic profiling). Pass [`TelemetryBus::disabled`] to run
/// unobserved.
///
/// Workers buffer their results in per-slot cells; the event flush
/// happens here, after the batch joins, so the stream on `bus` does not
/// depend on thread scheduling or worker count.
pub fn evaluate_batch(
    executor: &dyn Executor,
    protocol: Protocol,
    candidates: &[JvmConfig],
    base_seed: u64,
    workers: usize,
    bus: &TelemetryBus,
) -> Vec<Evaluation> {
    let all: Vec<usize> = (0..candidates.len()).collect();
    let timed = run_selected(
        executor, protocol, candidates, &all, base_seed, workers, None,
    );
    let evals: Vec<Evaluation> = timed.into_iter().map(|(ev, _)| ev).collect();
    if bus.is_enabled() {
        for (slot, ev) in evals.iter().enumerate() {
            emit_measured(bus, slot, ev);
        }
    }
    evals
}

/// Emit the slot-level trace events for one completed evaluation: one
/// [`TraceEvent::TrialRetried`] per retried attempt (they happened during
/// the measurement), then the [`TraceEvent::TrialMeasured`] record, then
/// [`TraceEvent::TrialAborted`] if racing abandoned the candidate. A
/// retry-free evaluation emits exactly the pre-fault-tolerance stream.
pub(crate) fn emit_measured(bus: &TelemetryBus, slot: usize, ev: &Evaluation) {
    for r in &ev.retry_log {
        bus.emit(&TraceEvent::TrialRetried {
            slot,
            rep: r.rep as u64,
            attempt: r.attempt as u64,
            error: r.error.message().to_string(),
            error_kind: r.error.kind().to_string(),
            cost_secs: r.cost.as_secs_f64(),
        });
    }
    bus.emit(&TraceEvent::TrialMeasured {
        slot,
        repeat_secs: ev.samples.iter().map(|s| s.as_secs_f64()).collect(),
        cost_secs: ev.cost.as_secs_f64(),
        error: ev.error.as_ref().map(|e| e.message().to_string()),
        error_kind: ev.error.as_ref().map(|e| e.kind().to_string()),
    });
    if let Some(abort) = ev.raced {
        bus.emit(&TraceEvent::TrialAborted {
            slot,
            after_runs: abort.after_runs as u64,
            p_value: abort.p_value,
            effect: abort.effect,
            saved_secs: abort.saved.as_secs_f64(),
        });
    }
}

/// Evaluate only the slots in `selected` (e.g. the cache misses of a
/// batch), in parallel, returning evaluations in `selected` order paired
/// with each slot's wall-clock evaluation time in seconds (real elapsed
/// time on its worker thread — observability only, never part of the
/// deterministic result). Each slot keeps its canonical
/// `(base_seed, slot)` noise seed. `baseline` is the racing baseline
/// forwarded to [`Protocol::evaluate_raced`] — the same frozen slice for
/// every slot, so racing decisions are independent of worker scheduling.
pub(crate) fn run_selected(
    executor: &dyn Executor,
    protocol: Protocol,
    candidates: &[JvmConfig],
    selected: &[usize],
    base_seed: u64,
    workers: usize,
    baseline: Option<&[f64]>,
) -> Vec<(Evaluation, f64)> {
    run_indexed(selected.len(), workers, |k| {
        let i = selected[k];
        let start = Instant::now();
        let ev =
            protocol.evaluate_raced(executor, &candidates[i], seed_for(base_seed, i), baseline);
        (ev, start.elapsed().as_secs_f64())
    })
}

/// Run `job(0)` … `job(n - 1)` on at most `workers` threads, the
/// caller's included, and return the results in index order. Threads
/// take the next index off one shared counter, so a slow job never holds
/// up the others. A panic in any job, the caller's included, reaches the
/// caller once the queue has drained.
pub fn run_indexed<T: Send>(n: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= n {
            break;
        }
        let done = job(k);
        // A panicking sibling poisons the mutex but not the data:
        // recover rather than cascading the panic into the daemon.
        *slots[k].lock().unwrap_or_else(|p| p.into_inner()) = Some(done);
    };
    // The caller works the queue too, so it spawns one helper fewer than
    // `workers`, and none for a single worker or a single job.
    let helpers = workers.min(n).saturating_sub(1);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        work();
        // Joined by hand: the scope's own join returns once the closures
        // finish, while the threads may still be exiting and holding
        // their malloc arenas, so the next batch's threads would take
        // fresh arenas and a long-running daemon would warm them all.
        for thread in threads {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .expect("slot unfilled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimExecutor;
    use jtune_flags::{FlagValue, JvmConfig};
    use jtune_jvmsim::Workload;
    use jtune_telemetry::MemoryRecorder;
    use std::sync::Arc;

    fn executor() -> SimExecutor {
        let mut w = Workload::baseline("pool-test");
        w.total_work = 2e8;
        SimExecutor::new(w)
    }

    fn candidates(ex: &SimExecutor, n: usize) -> Vec<JvmConfig> {
        let r = ex.registry();
        (0..n)
            .map(|i| {
                let mut c = JvmConfig::default_for(r);
                c.set_by_name(r, "CompileThreshold", FlagValue::Int(1000 + 500 * i as i64))
                    .unwrap();
                c
            })
            .collect()
    }

    #[test]
    fn parallel_equals_sequential() {
        let ex = executor();
        let cs = candidates(&ex, 12);
        let p = Protocol::default();
        let bus = TelemetryBus::disabled();
        let seq = evaluate_batch(&ex, p, &cs, 7, 1, &bus);
        let par = evaluate_batch(&ex, p, &cs, 7, 8, &bus);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.score, b.score, "parallel result diverged");
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn results_in_candidate_order() {
        let ex = executor();
        let cs = candidates(&ex, 6);
        let evs = evaluate_batch(
            &ex,
            Protocol::default(),
            &cs,
            3,
            4,
            &TelemetryBus::disabled(),
        );
        // Re-evaluate each candidate individually and match by seed.
        for (i, c) in cs.iter().enumerate() {
            let solo = Protocol::default().evaluate(&ex, c, seed_for(3, i));
            assert_eq!(evs[i].score, solo.score, "slot {i} out of order");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let ex = executor();
        let evs = evaluate_batch(
            &ex,
            Protocol::default(),
            &[],
            1,
            8,
            &TelemetryBus::disabled(),
        );
        assert!(evs.is_empty());
    }

    #[test]
    fn single_candidate_runs_inline() {
        let ex = executor();
        let cs = candidates(&ex, 1);
        let evs = evaluate_batch(
            &ex,
            Protocol::default(),
            &cs,
            5,
            8,
            &TelemetryBus::disabled(),
        );
        assert_eq!(evs.len(), 1);
        assert!(evs[0].ok());
    }

    #[test]
    fn run_selected_preserves_per_slot_seeds() {
        let ex = executor();
        let cs = candidates(&ex, 8);
        let all: Vec<usize> = (0..cs.len()).collect();
        let full = run_selected(&ex, Protocol::default(), &cs, &all, 11, 4, None);
        // Evaluating only a subset must reproduce the full batch's
        // results for those slots bit-for-bit.
        let subset = [1usize, 4, 6];
        let partial = run_selected(&ex, Protocol::default(), &cs, &subset, 11, 4, None);
        for (k, &i) in subset.iter().enumerate() {
            assert_eq!(
                partial[k].0.samples, full[i].0.samples,
                "slot {i} seed drifted"
            );
        }
    }

    /// Evaluations and the event bytes a traced caller would flush, for
    /// `selected` at `workers`.
    fn traced(ex: &SimExecutor, cs: &[JvmConfig], selected: &[usize], workers: usize) -> String {
        let recorder = Arc::new(MemoryRecorder::new());
        let bus = TelemetryBus::new().with(recorder.clone());
        let timed = run_selected(ex, Protocol::default(), cs, selected, 17, workers, None);
        let mut evals = String::new();
        for (&slot, (ev, _)) in selected.iter().zip(&timed) {
            emit_measured(&bus, slot, ev);
            evals += &format!("{slot}: {ev:?}\n");
        }
        evals + &recorder.to_jsonl()
    }

    #[test]
    fn every_width_gives_identical_evaluations_and_events() {
        let ex = executor();
        let cs = candidates(&ex, 12);
        let full: Vec<usize> = (0..cs.len()).collect();
        for selected in [&full[..], &[1, 4, 6], &[0, 2, 3, 5, 7, 9, 11], &[10]] {
            let one = traced(&ex, &cs, selected, 1);
            for workers in [2, 3, 8] {
                let wide = traced(&ex, &cs, selected, workers);
                assert_eq!(wide, one, "{workers} workers over {selected:?}");
            }
        }
        let recorder = Arc::new(MemoryRecorder::new());
        let bus = TelemetryBus::new().with(recorder.clone());
        evaluate_batch(&ex, Protocol::default(), &cs, 17, 3, &bus);
        assert!(traced(&ex, &cs, &full, 1).ends_with(&recorder.to_jsonl()));
    }

    /// Panics measuring the configuration with `CompileThreshold = 2000`,
    /// slot 2 of [`candidates`].
    struct PanicsOnSlotTwo(SimExecutor);

    impl Executor for PanicsOnSlotTwo {
        fn measure(&self, config: &JvmConfig, seed: u64) -> crate::Measurement {
            let threshold = config.get_by_name(self.registry(), "CompileThreshold");
            assert_ne!(threshold, Some(FlagValue::Int(2000)), "slot 2 panics");
            self.0.measure(config, seed)
        }

        fn registry(&self) -> &jtune_flags::Registry {
            self.0.registry()
        }

        fn describe(&self) -> String {
            "panics-on-slot-two".into()
        }
    }

    #[test]
    fn a_panic_in_any_slot_reaches_the_caller() {
        let ex = PanicsOnSlotTwo(executor());
        let cs = candidates(&ex.0, 6);
        let all: Vec<usize> = (0..cs.len()).collect();
        // One worker: the caller runs slot 2 itself. Three: any thread may.
        for workers in [1, 3] {
            let run = || run_selected(&ex, Protocol::default(), &cs, &all, 5, workers, None);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            assert!(caught.is_err(), "{workers} workers swallowed the panic");
        }
    }

    #[test]
    fn run_selected_reports_nonnegative_wall_times() {
        let ex = executor();
        let cs = candidates(&ex, 4);
        let all: Vec<usize> = (0..cs.len()).collect();
        for workers in [1, 4] {
            let timed = run_selected(&ex, Protocol::default(), &cs, &all, 2, workers, None);
            assert_eq!(timed.len(), cs.len());
            for (_, wall) in &timed {
                assert!(wall.is_finite() && *wall >= 0.0);
            }
        }
    }
}
