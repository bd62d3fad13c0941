//! The adaptive candidate-evaluation pipeline.
//!
//! [`EvalPipeline`] sits between the tuner's proposal loop and the
//! evaluation pool and stretches the tuning budget three ways:
//!
//! 1. **Memoization** — a [`TrialCache`] keyed by the canonical
//!    configuration fingerprint serves re-proposed configurations from
//!    memory, charged per [`CachePolicy`] (free by default).
//! 2. **Duplicate suppression** — identical configurations within one
//!    batch run once; later slots clone the earlier result at zero cost.
//! 3. **Racing** — when the [`Protocol`] carries a racing policy and the
//!    caller supplies a best-so-far baseline, statistically hopeless
//!    candidates are abandoned mid-protocol and their unspent repeats
//!    are never charged (see [`crate::protocol::Racing`]).
//!
//! With the cache disabled and no racing policy the pipeline is
//! bit-identical to the plain pool path ([`crate::pool::evaluate_batch`]):
//! every slot is fresh, keeps its `(base_seed, slot)` noise seed, and
//! emits the same [`TraceEvent::TrialMeasured`] stream. That equivalence
//! is what keeps legacy session records byte-stable.
//!
//! Determinism: cache decisions depend only on proposal order, racing
//! decisions only on the frozen baseline passed per batch, and events
//! flush in slot order after the batch joins — so the trace is
//! bit-identical at any worker count even with every feature enabled.

use std::collections::HashMap;

use jtune_flags::JvmConfig;
use jtune_telemetry::{phase, TelemetryBus, TraceEvent};

use crate::cache::{CachePolicy, TrialCache};
use crate::executor::Executor;
use crate::journal::{JournalWriter, ReplayLog};
use crate::pool::{emit_measured, run_selected};
use crate::protocol::{Evaluation, Protocol};
use jtune_util::SimDuration;

/// How one batch slot got its evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Provenance {
    /// Measured by the executor this round.
    Fresh,
    /// Served from the trial cache.
    CacheHit {
        /// The configuration fingerprint that hit.
        fingerprint: u64,
        /// Budget avoided (original cost − re-charge).
        saved: SimDuration,
    },
    /// Identical to an earlier slot in the same batch; its result was
    /// cloned at zero cost.
    Duplicate {
        /// The earlier slot holding the same configuration.
        of: usize,
    },
}

/// One evaluated batch: evaluations in slot order plus where each came
/// from. Cache hits carry the re-charge as their `cost`; duplicates cost
/// zero — so callers can charge `evals[i].cost` uniformly.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Evaluations, in candidate order.
    pub evals: Vec<Evaluation>,
    /// Per-slot provenance, parallel to `evals`.
    pub provenance: Vec<Provenance>,
}

/// Running totals over a pipeline's lifetime (one tuning session).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineStats {
    /// Distinct configurations actually measured by the executor.
    pub fresh: u64,
    /// Slots served from the trial cache.
    pub cache_hits: u64,
    /// Slots suppressed as within-batch duplicates.
    pub suppressed: u64,
    /// Fresh evaluations abandoned early by racing.
    pub aborted: u64,
    /// Transient-failure repeats recovered by the retry policy, summed
    /// over every fresh evaluation.
    pub retried: u64,
    /// Estimated budget the cache, dedup and racing avoided spending.
    pub saved: SimDuration,
}

impl PipelineStats {
    /// Fraction of all served slots that came from memory (cache hits +
    /// duplicates), in `[0, 1]`. The tuner surfaces this to search
    /// techniques as a convergence signal.
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.fresh + self.cache_hits + self.suppressed;
        if total == 0 {
            0.0
        } else {
            (self.cache_hits + self.suppressed) as f64 / total as f64
        }
    }
}

/// The adaptive evaluation pipeline (see the module docs).
#[derive(Debug, Default)]
pub struct EvalPipeline {
    protocol: Protocol,
    cache: Option<(TrialCache, CachePolicy)>,
    stats: PipelineStats,
    /// Write-ahead journal: every fresh evaluation (live or replayed) is
    /// recorded here before the caller sees it.
    journal: Option<JournalWriter>,
    /// Journaled evaluations from a previous run of this same session,
    /// served instead of measuring until exhausted or diverged.
    replay: Option<ReplayLog>,
    journal_errors: u64,
}

impl EvalPipeline {
    /// Pipeline with the given measurement protocol. `cache_policy =
    /// None` disables memoization *and* duplicate suppression (the
    /// legacy, byte-stable path); racing is controlled by
    /// `protocol.racing` plus the per-batch baseline.
    pub fn new(protocol: Protocol, cache_policy: Option<CachePolicy>) -> EvalPipeline {
        EvalPipeline {
            protocol,
            cache: cache_policy.map(|p| (TrialCache::new(), p)),
            stats: PipelineStats::default(),
            journal: None,
            replay: None,
            journal_errors: 0,
        }
    }

    /// Attach a write-ahead journal: every fresh evaluation from now on
    /// is recorded (and flushed) before it is returned. Journal write
    /// failures never fail the run; they are counted in
    /// [`EvalPipeline::journal_errors`].
    pub fn set_journal(&mut self, journal: JournalWriter) {
        self.journal = Some(journal);
    }

    /// Attach a replay log: fresh slots are served from it (in journal
    /// order) instead of the executor until it is exhausted or the
    /// fingerprint stream diverges. Replayed evaluations still count as
    /// fresh, feed the cache, and are re-recorded by any attached
    /// journal — so resume-with-checkpoint rebuilds a complete journal.
    pub fn set_replay(&mut self, replay: ReplayLog) {
        self.replay = Some(replay);
    }

    /// Evaluations served from the replay log so far.
    pub fn replay_served(&self) -> u64 {
        self.replay.as_ref().map_or(0, ReplayLog::served)
    }

    /// Journaled evaluations still queued for replay.
    pub fn replay_remaining(&self) -> usize {
        self.replay.as_ref().map_or(0, ReplayLog::remaining)
    }

    /// Trials recorded to the attached journal (0 without one).
    pub fn journal_trials(&self) -> u64 {
        self.journal.as_ref().map_or(0, JournalWriter::trials)
    }

    /// Evaluations dropped from the journal because a write failed.
    pub fn journal_errors(&self) -> u64 {
        self.journal_errors
    }

    fn record_trial(&mut self, fingerprint: u64, evaluation: &Evaluation) {
        if let Some(journal) = &mut self.journal {
            if journal.record(fingerprint, evaluation).is_err() {
                self.journal_errors += 1;
            }
        }
    }

    /// The measurement protocol in use.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Session totals so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Evaluate a single configuration outside any batch (the session's
    /// default-configuration measurement), seeding the cache with the
    /// result. Never races: the baseline candidate itself must always be
    /// measured in full.
    pub fn prime(&mut self, executor: &dyn Executor, config: &JvmConfig, seed: u64) -> Evaluation {
        let fingerprint = config.fingerprint();
        let ev = match self.replay.as_mut().and_then(|r| r.next_for(fingerprint)) {
            Some(replayed) => replayed,
            None => self.protocol.evaluate(executor, config, seed),
        };
        self.stats.fresh += 1;
        self.stats.retried += ev.retried as u64;
        self.record_trial(fingerprint, &ev);
        if let Some((cache, _)) = &mut self.cache {
            cache.insert(fingerprint, ev.clone());
        }
        ev
    }

    /// Evaluate one proposed batch.
    ///
    /// Slots resolve in order: within-batch duplicate → cache hit →
    /// fresh measurement. Fresh slots keep the canonical `(base_seed,
    /// slot)` noise seed, so a partially-cached batch measures its
    /// misses with exactly the seeds a fully-fresh batch would have.
    /// `baseline` (best-so-far samples, seconds) enables racing when the
    /// protocol has a racing policy; it is frozen for the whole batch so
    /// abort decisions cannot depend on worker scheduling.
    ///
    /// Events flush in slot order after the batch joins: one
    /// [`TraceEvent::CacheHit`] / [`TraceEvent::DuplicateSuppressed`] /
    /// [`TraceEvent::TrialMeasured`] (plus [`TraceEvent::TrialAborted`]
    /// for raced-out slots) per slot.
    pub fn evaluate_batch(
        &mut self,
        executor: &dyn Executor,
        candidates: &[JvmConfig],
        base_seed: u64,
        workers: usize,
        baseline: Option<&[f64]>,
        bus: &TelemetryBus,
    ) -> BatchReport {
        let n = candidates.len();
        let mut provenance = vec![Provenance::Fresh; n];
        let mut slots: Vec<Option<Evaluation>> = (0..n).map(|_| None).collect();
        let mut fresh_idx: Vec<usize> = Vec::with_capacity(n);

        if let Some((cache, policy)) = &mut self.cache {
            let mut in_batch: HashMap<u64, usize> = HashMap::with_capacity(n);
            for (i, c) in candidates.iter().enumerate() {
                let fp = c.fingerprint();
                if let Some(&j) = in_batch.get(&fp) {
                    provenance[i] = Provenance::Duplicate { of: j };
                    continue;
                }
                in_batch.insert(fp, i);
                if let Some(prior) = cache.lookup(fp) {
                    let charge = policy.charge_for(prior.cost);
                    let saved = prior.cost.saturating_sub(charge);
                    let mut ev = prior.clone();
                    ev.cost = charge;
                    provenance[i] = Provenance::CacheHit {
                        fingerprint: fp,
                        saved,
                    };
                    slots[i] = Some(ev);
                } else {
                    fresh_idx.push(i);
                }
            }
        } else {
            fresh_idx.extend(0..n);
        }

        // Fresh slots are first offered to the replay log, in slot order
        // (the journal's write order). Once it is exhausted or diverges
        // the remaining slots run live — with their canonical
        // `(base_seed, slot)` seeds, so a session killed mid-batch
        // resumes into exactly the measurements it would have made.
        let mut live_idx: Vec<usize> = Vec::with_capacity(fresh_idx.len());
        match &mut self.replay {
            Some(replay) => {
                for &i in &fresh_idx {
                    match replay.next_for(candidates[i].fingerprint()) {
                        Some(replayed) => slots[i] = Some(replayed),
                        None => live_idx.push(i),
                    }
                }
            }
            None => live_idx.extend_from_slice(&fresh_idx),
        }
        let fresh = run_selected(
            executor,
            self.protocol,
            candidates,
            &live_idx,
            base_seed,
            workers,
            baseline,
        );
        let mut live_walls: Vec<(usize, f64)> = Vec::with_capacity(fresh.len());
        for (&i, (ev, wall)) in live_idx.iter().zip(fresh) {
            slots[i] = Some(ev);
            live_walls.push((i, wall));
        }
        // Per-trial wall latency: one close-only span per live slot,
        // published in slot order after the batch joins (the values are
        // wall-clock and vary run to run; the events are ephemeral, so
        // the JSONL trace is untouched).
        if bus.spans_enabled() {
            for (i, wall) in &live_walls {
                bus.span_closed(phase::TRIAL, *i as u64, *wall);
            }
        }
        for &i in &fresh_idx {
            let ev = slots[i].clone().expect("fresh slot resolved");
            let fingerprint = candidates[i].fingerprint();
            self.record_trial(fingerprint, &ev);
            if let Some((cache, _)) = &mut self.cache {
                cache.insert(fingerprint, ev);
            }
        }
        // Duplicates clone their source slot (always an earlier index,
        // so it is resolved by now) at zero cost.
        for i in 0..n {
            if let Provenance::Duplicate { of } = provenance[i] {
                let mut ev = slots[of].clone().expect("source slot resolved");
                self.stats.saved += ev.cost;
                ev.cost = SimDuration::ZERO;
                slots[i] = Some(ev);
            }
        }

        let evals: Vec<Evaluation> = slots
            .into_iter()
            .map(|s| s.expect("every slot resolved"))
            .collect();

        for (i, (ev, prov)) in evals.iter().zip(provenance.iter()).enumerate() {
            match prov {
                Provenance::Fresh => {
                    self.stats.fresh += 1;
                    self.stats.retried += ev.retried as u64;
                    if let Some(abort) = ev.raced {
                        self.stats.aborted += 1;
                        self.stats.saved += abort.saved;
                    }
                    if bus.is_enabled() {
                        emit_measured(bus, i, ev);
                    }
                }
                Provenance::CacheHit { fingerprint, saved } => {
                    self.stats.cache_hits += 1;
                    self.stats.saved += *saved;
                    if bus.is_enabled() {
                        bus.emit(&TraceEvent::CacheHit {
                            slot: i,
                            fingerprint: *fingerprint,
                            score_secs: ev.score.map(|s| s.as_secs_f64()),
                            cost_secs: ev.cost.as_secs_f64(),
                            saved_secs: saved.as_secs_f64(),
                        });
                    }
                }
                Provenance::Duplicate { of } => {
                    self.stats.suppressed += 1;
                    if bus.is_enabled() {
                        bus.emit(&TraceEvent::DuplicateSuppressed {
                            slot: i,
                            of_slot: *of,
                        });
                    }
                }
            }
        }

        BatchReport { evals, provenance }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimExecutor;
    use crate::pool::evaluate_batch;
    use jtune_flags::{FlagValue, JvmConfig};
    use jtune_jvmsim::Workload;
    use jtune_telemetry::MemoryRecorder;
    use std::sync::Arc;

    fn executor() -> SimExecutor {
        let mut w = Workload::baseline("pipe-test");
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
    fn disabled_pipeline_matches_plain_pool() {
        let ex = executor();
        let cs = candidates(&ex, 6);
        let bus = TelemetryBus::disabled();
        let mut pipe = EvalPipeline::new(Protocol::default(), None);
        let report = pipe.evaluate_batch(&ex, &cs, 7, 4, None, &bus);
        let plain = evaluate_batch(&ex, Protocol::default(), &cs, 7, 4, &bus);
        assert_eq!(report.evals.len(), plain.len());
        for (a, b) in report.evals.iter().zip(plain.iter()) {
            assert_eq!(a.score, b.score);
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.cost, b.cost);
        }
        assert!(report.provenance.iter().all(|p| *p == Provenance::Fresh));
        assert_eq!(pipe.stats().cache_hits, 0);
    }

    #[test]
    fn second_sight_of_a_config_hits_the_cache_for_free() {
        let ex = executor();
        let cs = candidates(&ex, 3);
        let bus = TelemetryBus::disabled();
        let mut pipe = EvalPipeline::new(Protocol::default(), Some(CachePolicy::default()));
        let first = pipe.evaluate_batch(&ex, &cs, 7, 1, None, &bus);
        let again = pipe.evaluate_batch(&ex, &cs, 7, 1, None, &bus);
        for (i, (a, b)) in first.evals.iter().zip(again.evals.iter()).enumerate() {
            assert_eq!(a.score, b.score, "slot {i}");
            assert!(b.cost == SimDuration::ZERO, "hit charged");
            assert!(matches!(again.provenance[i], Provenance::CacheHit { .. }));
        }
        let stats = pipe.stats();
        assert_eq!(stats.fresh, 3);
        assert_eq!(stats.cache_hits, 3);
        assert!(stats.saved > SimDuration::ZERO);
        assert!(stats.reuse_fraction() > 0.49);
    }

    #[test]
    fn recharge_policy_charges_a_fraction_on_hits() {
        let ex = executor();
        let cs = candidates(&ex, 1);
        let bus = TelemetryBus::disabled();
        let mut pipe = EvalPipeline::new(Protocol::default(), Some(CachePolicy { recharge: 0.5 }));
        let first = pipe.evaluate_batch(&ex, &cs, 7, 1, None, &bus);
        let again = pipe.evaluate_batch(&ex, &cs, 7, 1, None, &bus);
        let half = first.evals[0].cost.as_secs_f64() * 0.5;
        assert!((again.evals[0].cost.as_secs_f64() - half).abs() < 1e-9);
    }

    #[test]
    fn duplicates_within_a_batch_run_once() {
        let ex = executor();
        let mut cs = candidates(&ex, 2);
        cs.push(cs[0].clone());
        cs.push(cs[1].clone());
        let rec = Arc::new(MemoryRecorder::new());
        let bus = TelemetryBus::new().with(rec.clone());
        let mut pipe = EvalPipeline::new(Protocol::default(), Some(CachePolicy::default()));
        let report = pipe.evaluate_batch(&ex, &cs, 7, 4, None, &bus);
        assert_eq!(report.provenance[2], Provenance::Duplicate { of: 0 });
        assert_eq!(report.provenance[3], Provenance::Duplicate { of: 1 });
        assert_eq!(report.evals[2].score, report.evals[0].score);
        assert_eq!(report.evals[2].cost, SimDuration::ZERO);
        assert_eq!(pipe.stats().suppressed, 2);
        assert_eq!(pipe.stats().fresh, 2);
        let dup_events: Vec<_> = rec
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::DuplicateSuppressed { .. }))
            .collect();
        assert_eq!(dup_events.len(), 2);
    }

    #[test]
    fn partially_cached_batch_keeps_slot_seeds() {
        let ex = executor();
        let cs = candidates(&ex, 5);
        let bus = TelemetryBus::disabled();
        // Pre-warm the cache with slots 0 and 2 via a different batch.
        let mut pipe = EvalPipeline::new(Protocol::default(), Some(CachePolicy::default()));
        pipe.evaluate_batch(&ex, &[cs[0].clone(), cs[2].clone()], 99, 1, None, &bus);
        let mixed = pipe.evaluate_batch(&ex, &cs, 7, 4, None, &bus);
        // The fresh slots must match what an uncached batch would measure.
        let full = evaluate_batch(&ex, Protocol::default(), &cs, 7, 4, &bus);
        for i in [1usize, 3, 4] {
            assert!(matches!(mixed.provenance[i], Provenance::Fresh));
            assert_eq!(mixed.evals[i].samples, full[i].samples, "slot {i}");
        }
        assert!(matches!(mixed.provenance[0], Provenance::CacheHit { .. }));
        assert!(matches!(mixed.provenance[2], Provenance::CacheHit { .. }));
    }

    fn journal_header(ex: &SimExecutor) -> crate::journal::SessionHeader {
        crate::journal::SessionHeader {
            program: "pipe-test".to_string(),
            executor: ex.describe(),
            seed: 7,
            budget_nanos: 0,
            signature: "test".to_string(),
        }
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jtune-pipe-{}-{name}.jsonl", std::process::id()))
    }

    #[test]
    fn replay_reproduces_a_journaled_session_bit_for_bit() {
        let ex = executor();
        let cs = candidates(&ex, 4);
        let bus = TelemetryBus::disabled();
        let path = temp_journal("replay");
        let rebuilt = temp_journal("replay-rebuilt");

        let mut original = EvalPipeline::new(Protocol::default(), Some(CachePolicy::default()));
        original.set_journal(JournalWriter::create(&path, &journal_header(&ex)).unwrap());
        let default = JvmConfig::default_for(ex.registry());
        let prime_a = original.prime(&ex, &default, 42);
        let batch_a = original.evaluate_batch(&ex, &cs, 7, 2, None, &bus);
        assert_eq!(original.journal_trials(), 5);
        assert_eq!(original.journal_errors(), 0);

        // Resume: a *different* workload proves evaluations come from the
        // journal, not the executor; a second journal proves resume
        // rebuilds a complete journal (the same-path checkpoint case).
        let mut other = Workload::baseline("pipe-test-other");
        other.total_work = 9e8;
        let slow = SimExecutor::new(other);
        let (_, trials) = crate::journal::load(&path).unwrap();
        let mut resumed = EvalPipeline::new(Protocol::default(), Some(CachePolicy::default()));
        resumed.set_replay(ReplayLog::new(trials));
        resumed.set_journal(JournalWriter::create(&rebuilt, &journal_header(&ex)).unwrap());
        let prime_b = resumed.prime(&slow, &default, 42);
        let batch_b = resumed.evaluate_batch(&slow, &cs, 7, 2, None, &bus);

        assert_eq!(prime_b, prime_a);
        for (a, b) in batch_a.evals.iter().zip(batch_b.evals.iter()) {
            assert_eq!(a, b, "replayed batch diverged");
        }
        assert_eq!(resumed.replay_served(), 5);
        assert_eq!(resumed.replay_remaining(), 0);
        assert_eq!(resumed.journal_trials(), 5);
        let (_, rebuilt_trials) = crate::journal::load(&rebuilt).unwrap();
        assert_eq!(rebuilt_trials.len(), 5);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rebuilt);
    }

    #[test]
    fn replay_exhaustion_falls_back_to_live_canonical_seeds() {
        let ex = executor();
        let cs = candidates(&ex, 5);
        let bus = TelemetryBus::disabled();

        // Journal only a prefix of the batch: a session killed mid-batch.
        let full = evaluate_batch(&ex, Protocol::default(), &cs, 7, 1, &bus);
        let journaled: Vec<(u64, Evaluation)> = cs
            .iter()
            .zip(full.iter())
            .take(2)
            .map(|(c, ev)| (c.fingerprint(), ev.clone()))
            .collect();

        let mut pipe = EvalPipeline::new(Protocol::default(), None);
        pipe.set_replay(ReplayLog::new(journaled));
        let report = pipe.evaluate_batch(&ex, &cs, 7, 1, None, &bus);
        assert_eq!(pipe.replay_served(), 2);
        for (i, (a, b)) in report.evals.iter().zip(full.iter()).enumerate() {
            assert_eq!(
                a.samples, b.samples,
                "slot {i} drifted after replay ran dry"
            );
        }
    }

    #[test]
    fn replay_divergence_switches_to_live_measurement() {
        let ex = executor();
        let cs = candidates(&ex, 3);
        let bus = TelemetryBus::disabled();
        let full = evaluate_batch(&ex, Protocol::default(), &cs, 7, 1, &bus);

        // Journal claims a different slot-1 fingerprint: a changed
        // proposal stream. Replay serves slot 0, then stops for good.
        let journaled = vec![
            (cs[0].fingerprint(), full[0].clone()),
            (0xBAD0_BAD0_BAD0_BAD0, full[1].clone()),
            (cs[2].fingerprint(), full[2].clone()),
        ];
        let mut pipe = EvalPipeline::new(Protocol::default(), None);
        pipe.set_replay(ReplayLog::new(journaled));
        let report = pipe.evaluate_batch(&ex, &cs, 7, 1, None, &bus);
        assert_eq!(pipe.replay_served(), 1);
        for (i, (a, b)) in report.evals.iter().zip(full.iter()).enumerate() {
            assert_eq!(a.samples, b.samples, "slot {i} wrong after divergence");
        }
    }

    #[test]
    fn prime_seeds_the_cache() {
        let ex = executor();
        let c = JvmConfig::default_for(ex.registry());
        let bus = TelemetryBus::disabled();
        let mut pipe = EvalPipeline::new(Protocol::default(), Some(CachePolicy::default()));
        let ev = pipe.prime(&ex, &c, 42);
        assert!(ev.ok());
        let report = pipe.evaluate_batch(&ex, std::slice::from_ref(&c), 7, 1, None, &bus);
        assert!(matches!(report.provenance[0], Provenance::CacheHit { .. }));
        assert_eq!(report.evals[0].score, ev.score);
    }
}
