//! The typed trial-event model.
//!
//! Every observable step of a tuning session is one [`TraceEvent`]. The
//! stream is *complete* (every candidate evaluation appears exactly once
//! as [`TraceEvent::TrialEvaluated`], with its budget charge) and
//! *deterministic* (given the tuner seed, the same bytes are produced at
//! any worker count — see `jtune_harness::evaluate_batch` for the
//! ordering contract).

use jtune_util::json::JsonObject;

/// One structured event in a tuning session's trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A tuning session began.
    SessionStarted {
        /// Program (workload) being tuned.
        program: String,
        /// Executor description (`sim:...` / `process:...`).
        executor: String,
        /// Search technique name from the options.
        technique: String,
        /// Manipulator label (`hierarchical` / `flat` / `gc-subset`).
        manipulator: String,
        /// Tuning budget, seconds of virtual time.
        budget_secs: f64,
        /// Master seed (the whole trace is a pure function of it).
        seed: u64,
        /// Parallel evaluation workers. Deliberately NOT serialised:
        /// the JSONL trace is byte-identical at any worker count, so an
        /// execution detail that varies with the host must stay out of
        /// it. Live sinks (the progress reporter) still see it.
        workers: u64,
        /// Candidates proposed per round.
        batch: u64,
        /// Measurement repeats per candidate.
        repeats: u64,
    },
    /// The tuner proposed a round (batch) of candidates.
    RoundProposed {
        /// Round number (0 = the structural primer round).
        round: u64,
        /// Technique driving the round (`primer` for round 0).
        technique: String,
        /// Number of candidates in the round.
        candidates: u64,
    },
    /// The evaluation pool finished measuring one batch slot (raw,
    /// worker-level record; `slot` is the index within the batch).
    TrialMeasured {
        /// Candidate index within the batch.
        slot: usize,
        /// Successful per-repeat objective values, run order.
        repeat_secs: Vec<f64>,
        /// Budget cost of the whole evaluation.
        cost_secs: f64,
        /// First failure message, if any repeat failed.
        error: Option<String>,
        /// Classified failure kind (`crash` / `oom` / `timeout` /
        /// `flag-conflict`), present exactly when `error` is.
        error_kind: Option<String>,
    },
    /// The pipeline served a re-proposed configuration from the trial
    /// cache instead of re-measuring it.
    CacheHit {
        /// Candidate index within the batch.
        slot: usize,
        /// Canonical configuration fingerprint (the cache key).
        fingerprint: u64,
        /// The cached median score, seconds (`None` = cached failure).
        score_secs: Option<f64>,
        /// Budget charged for the hit (the re-charge policy's share of
        /// the original cost; 0 by default).
        cost_secs: f64,
        /// Budget the hit avoided spending (original cost − charge).
        saved_secs: f64,
    },
    /// A candidate was dropped because an earlier slot in the same batch
    /// proposed the identical configuration.
    DuplicateSuppressed {
        /// Candidate index within the batch.
        slot: usize,
        /// Earlier slot holding the identical configuration.
        of_slot: usize,
    },
    /// Racing abandoned a statistically hopeless candidate before its
    /// full repeat count, refunding the unspent repeats.
    TrialAborted {
        /// Candidate index within the batch.
        slot: usize,
        /// Successful runs completed before the abort.
        after_runs: u64,
        /// Mann-Whitney p-value at the abort.
        p_value: f64,
        /// Mann-Whitney effect (above 0.5 = slower than baseline).
        effect: f64,
        /// Estimated budget refunded, seconds.
        saved_secs: f64,
    },
    /// One candidate evaluation was scored and charged to the budget
    /// (session-level record; `index` matches `TrialRecord::index`).
    TrialEvaluated {
        /// Evaluation index within the session (0 = default config).
        index: u64,
        /// Technique that proposed the candidate (ensemble arms are
        /// attributed individually).
        technique: String,
        /// Flags changed from default, as command-line arguments.
        delta: Vec<String>,
        /// Successful per-repeat objective values, run order.
        repeat_secs: Vec<f64>,
        /// Median score (`None` = candidate failed).
        score_secs: Option<f64>,
        /// Budget charge for this evaluation.
        cost_secs: f64,
        /// Cumulative budget spent after the charge.
        budget_spent_secs: f64,
        /// Total stop-the-world GC pause time across repeats, ms
        /// (`None` when the executor cannot observe it).
        gc_pause_total_ms: Option<f64>,
        /// GC collections (young + full) across repeats.
        gc_collections: Option<u64>,
        /// JIT compile-stall time across repeats, ms.
        jit_compile_ms: Option<f64>,
        /// Methods JIT-compiled across repeats.
        jit_compiles: Option<u64>,
        /// First failure message, if the candidate failed.
        error: Option<String>,
        /// Classified failure kind, present exactly when `error` is.
        error_kind: Option<String>,
    },
    /// A candidate became the best found so far.
    BestImproved {
        /// Evaluation index of the new best.
        index: u64,
        /// Its score, seconds.
        score_secs: f64,
        /// Improvement over the default config, percent.
        improvement_percent: f64,
        /// Its flag delta.
        delta: Vec<String>,
    },
    /// The proposing technique changed between consecutive trials (for
    /// the AUC-bandit ensemble this traces arm switches).
    TechniqueSwitched {
        /// First evaluation index proposed by the new technique.
        index: u64,
        /// Previous technique.
        from: String,
        /// New technique.
        to: String,
    },
    /// A transient trial failure was retried under the retry policy
    /// (emitted before the run's [`TraceEvent::TrialMeasured`]).
    TrialRetried {
        /// Candidate index within the batch.
        slot: usize,
        /// Protocol repeat (0-based) the failed attempt belonged to.
        rep: u64,
        /// 0-based attempt index that failed (0 = the original try).
        attempt: u64,
        /// The transient failure message.
        error: String,
        /// Classified failure kind.
        error_kind: String,
        /// Budget charged for the failed attempt (backoff included).
        cost_secs: f64,
    },
    /// A configuration fingerprint was quarantined after a streak of
    /// deterministic failures; the tuner will not re-propose it.
    Quarantined {
        /// Canonical configuration fingerprint.
        fingerprint: u64,
        /// Deterministic-failure runs accumulated at the breaker.
        failures: u64,
        /// Kind of the failure that tripped the breaker.
        error_kind: String,
    },
    /// The surrogate model refit on the completed-trial history before
    /// screening a round's proposals.
    ModelFit {
        /// Round whose proposals the refit model will screen.
        round: u64,
        /// Completed observations the model is trained on.
        samples: u64,
        /// Whether the model actually refit (false: no new data since
        /// the previous fit, the cached model was reused).
        refit: bool,
    },
    /// The surrogate screened out an over-proposed candidate; it was
    /// never measured and cost no budget.
    CandidateScreened {
        /// Round the candidate was proposed in.
        round: u64,
        /// Canonical configuration fingerprint of the rejected config.
        fingerprint: u64,
        /// Surrogate-predicted score, virtual seconds.
        predicted_secs: f64,
        /// Acquisition value (`mean - kappa * std`) it was ranked by.
        acquisition: f64,
    },
    /// The write-ahead trial journal reached a consistent point (all
    /// completed trials durable); a kill after this event loses nothing.
    CheckpointWritten {
        /// Completed trials in the journal.
        trials: u64,
        /// Budget spent at the checkpoint, seconds.
        spent_secs: f64,
    },
    /// The session was reconstructed from a journal. *Ephemeral*: live
    /// sinks see it, but it is never serialised to the JSONL trace —
    /// a resumed session's trace must be byte-identical to an
    /// uninterrupted one (same precedent as the unserialised `workers`
    /// field).
    SessionResumed {
        /// Completed trials replayed from the journal.
        trials_replayed: u64,
    },
    /// A remote worker registered with the daemon. *Ephemeral*: which
    /// workers happen to be attached is deployment topology, not session
    /// content — a session's trace must be byte-identical with or
    /// without workers.
    WorkerRegistered {
        /// The worker id the daemon issued.
        wid: u64,
        /// The worker's executor capability tag (e.g. `"sim"`).
        executor: String,
        /// Concurrent trial slots the worker offers.
        slots: u64,
    },
    /// A trial was leased to a remote worker. *Ephemeral*, like
    /// [`TraceEvent::WorkerRegistered`]: where a trial executed varies
    /// run to run and never reaches the serialised trace.
    TrialLeased {
        /// The lease id.
        lease: u64,
        /// The session the trial belongs to.
        sid: u64,
        /// The worker the trial went to.
        wid: u64,
        /// Canonical fingerprint of the leased configuration.
        fingerprint: u64,
    },
    /// A lease expired (missed deadline, worker death, or an explicit
    /// `fail`) and its slot was reissued — to another worker or back to
    /// the local pool. *Ephemeral*, like
    /// [`TraceEvent::WorkerRegistered`].
    LeaseExpired {
        /// The lease that was lost.
        lease: u64,
        /// The worker that held it.
        wid: u64,
        /// Why it expired (`"deadline"`, `"worker-gone"`, `"failed"`).
        reason: String,
    },
    /// The daemon refused a connection or a submit under overload
    /// (connection limit hit, or the admission queue full).
    /// *Ephemeral*, like [`TraceEvent::WorkerRegistered`]: load shedding
    /// is deployment weather, not session content.
    ConnectionRejected {
        /// Why admission refused (`"conn-limit"`, `"overloaded"`).
        reason: String,
        /// The `retry_after_ms` hint handed to the peer (0 for
        /// connection-limit rejects, which carry no hint).
        retry_after_ms: u64,
    },
    /// A wire frame was rejected before decoding (over the size cap, or
    /// not UTF-8). *Ephemeral*, like [`TraceEvent::WorkerRegistered`].
    FrameRejected {
        /// The stable wire error code (`"frame-too-large"`,
        /// `"bad-frame"`).
        code: String,
        /// Bytes of the offending frame that were observed before the
        /// reject (for an oversized frame, at least the cap).
        bytes: u64,
    },
    /// A client retried a request after an `overloaded` reject or an
    /// I/O failure, under the jittered backoff policy. *Ephemeral*,
    /// like [`TraceEvent::WorkerRegistered`].
    ClientRetried {
        /// 0-based attempt index that failed (0 = the original try).
        attempt: u64,
        /// Milliseconds the client backed off before this retry.
        delay_ms: u64,
    },
    /// A worker lost its daemon connection and re-registered under the
    /// backoff policy instead of exiting. *Ephemeral*, like
    /// [`TraceEvent::WorkerRegistered`].
    WorkerReconnected {
        /// The worker id issued by the *new* registration.
        wid: u64,
        /// Reconnect attempts it took to get back in (1 = first retry
        /// succeeded).
        attempts: u64,
    },
    /// A timed tuning phase began (propose / screen / measure / fit /
    /// checkpoint; see [`crate::phase`]). *Ephemeral*: span events carry
    /// wall-clock timings that vary run to run, so they feed live sinks
    /// (the metrics registry, watch streams) but never the
    /// byte-deterministic JSONL trace.
    PhaseStarted {
        /// Phase name (one of the [`crate::phase`] constants).
        phase: String,
        /// Round the phase belongs to (0 = the primer round; for
        /// per-trial spans, the batch slot).
        round: u64,
    },
    /// A timed tuning phase ended. *Ephemeral*, like
    /// [`TraceEvent::PhaseStarted`]. Per-trial latency spans
    /// ([`crate::phase::TRIAL`]) emit only this closing event.
    PhaseEnded {
        /// Phase name (one of the [`crate::phase`] constants).
        phase: String,
        /// Round the phase belongs to (for per-trial spans, the slot).
        round: u64,
        /// Wall-clock time the phase took, seconds (host time, not
        /// virtual tuning time).
        elapsed_secs: f64,
    },
    /// The tuning budget was exhausted (emitted once, at the charge that
    /// crossed the limit).
    BudgetExhausted {
        /// Budget spent, seconds (may straddle past the total).
        spent_secs: f64,
        /// Budget total, seconds.
        total_secs: f64,
        /// Evaluations completed at exhaustion.
        evaluations: u64,
    },
    /// The session ended.
    SessionFinished {
        /// Program tuned.
        program: String,
        /// Default-configuration score, seconds.
        default_secs: f64,
        /// Best score found, seconds.
        best_secs: f64,
        /// Headline improvement, percent.
        improvement_percent: f64,
        /// Candidates evaluated.
        evaluations: u64,
        /// Budget spent, seconds.
        spent_secs: f64,
        /// Best configuration's flag delta.
        best_delta: Vec<String>,
    },
}

impl TraceEvent {
    /// Stable event-type tag (the JSON `type` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SessionStarted { .. } => "SessionStarted",
            TraceEvent::RoundProposed { .. } => "RoundProposed",
            TraceEvent::TrialMeasured { .. } => "TrialMeasured",
            TraceEvent::CacheHit { .. } => "CacheHit",
            TraceEvent::DuplicateSuppressed { .. } => "DuplicateSuppressed",
            TraceEvent::TrialAborted { .. } => "TrialAborted",
            TraceEvent::TrialEvaluated { .. } => "TrialEvaluated",
            TraceEvent::TrialRetried { .. } => "TrialRetried",
            TraceEvent::Quarantined { .. } => "Quarantined",
            TraceEvent::ModelFit { .. } => "ModelFit",
            TraceEvent::CandidateScreened { .. } => "CandidateScreened",
            TraceEvent::CheckpointWritten { .. } => "CheckpointWritten",
            TraceEvent::SessionResumed { .. } => "SessionResumed",
            TraceEvent::WorkerRegistered { .. } => "WorkerRegistered",
            TraceEvent::TrialLeased { .. } => "TrialLeased",
            TraceEvent::LeaseExpired { .. } => "LeaseExpired",
            TraceEvent::ConnectionRejected { .. } => "ConnectionRejected",
            TraceEvent::FrameRejected { .. } => "FrameRejected",
            TraceEvent::ClientRetried { .. } => "ClientRetried",
            TraceEvent::WorkerReconnected { .. } => "WorkerReconnected",
            TraceEvent::PhaseStarted { .. } => "PhaseStarted",
            TraceEvent::PhaseEnded { .. } => "PhaseEnded",
            TraceEvent::BestImproved { .. } => "BestImproved",
            TraceEvent::TechniqueSwitched { .. } => "TechniqueSwitched",
            TraceEvent::BudgetExhausted { .. } => "BudgetExhausted",
            TraceEvent::SessionFinished { .. } => "SessionFinished",
        }
    }

    /// Is this event live-only — meaningful to an attached observer but
    /// excluded from the serialised JSONL trace?
    /// [`TraceEvent::SessionResumed`] describes *how this process
    /// reached* its state, not the session itself, and a resumed trace
    /// must match the uninterrupted one byte for byte. The span events
    /// ([`TraceEvent::PhaseStarted`] / [`TraceEvent::PhaseEnded`]) carry
    /// wall-clock timings that differ run to run, so serialising them
    /// would break the trace's byte-determinism contract. The worker-
    /// plane events ([`TraceEvent::WorkerRegistered`] /
    /// [`TraceEvent::TrialLeased`] / [`TraceEvent::LeaseExpired`])
    /// describe deployment topology — which host ran a trial — and a
    /// distributed session's trace must stay byte-identical to a
    /// single-host run.
    pub fn is_ephemeral(&self) -> bool {
        matches!(
            self,
            TraceEvent::SessionResumed { .. }
                | TraceEvent::WorkerRegistered { .. }
                | TraceEvent::TrialLeased { .. }
                | TraceEvent::LeaseExpired { .. }
                | TraceEvent::ConnectionRejected { .. }
                | TraceEvent::FrameRejected { .. }
                | TraceEvent::ClientRetried { .. }
                | TraceEvent::WorkerReconnected { .. }
                | TraceEvent::PhaseStarted { .. }
                | TraceEvent::PhaseEnded { .. }
        )
    }

    /// Render as one JSON object (one line of the JSONL trace).
    pub fn to_json(&self) -> String {
        let o = JsonObject::new().str("type", self.kind());
        match self {
            TraceEvent::SessionStarted {
                program,
                executor,
                technique,
                manipulator,
                budget_secs,
                seed,
                workers: _,
                batch,
                repeats,
            } => o
                .str("program", program)
                .str("executor", executor)
                .str("technique", technique)
                .str("manipulator", manipulator)
                .f64("budget_secs", *budget_secs)
                .u64("seed", *seed)
                .u64("batch", *batch)
                .u64("repeats", *repeats)
                .finish(),
            TraceEvent::RoundProposed {
                round,
                technique,
                candidates,
            } => o
                .u64("round", *round)
                .str("technique", technique)
                .u64("candidates", *candidates)
                .finish(),
            TraceEvent::TrialMeasured {
                slot,
                repeat_secs,
                cost_secs,
                error,
                error_kind,
            } => {
                let mut o = o
                    .u64("slot", *slot as u64)
                    .f64_array("repeat_secs", repeat_secs)
                    .f64("cost_secs", *cost_secs)
                    .opt_str("error", error.as_deref());
                if let Some(kind) = error_kind {
                    o = o.str("error_kind", kind);
                }
                o.finish()
            }
            TraceEvent::CacheHit {
                slot,
                fingerprint,
                score_secs,
                cost_secs,
                saved_secs,
            } => o
                .u64("slot", *slot as u64)
                .u64("fingerprint", *fingerprint)
                .opt_f64("score_secs", *score_secs)
                .f64("cost_secs", *cost_secs)
                .f64("saved_secs", *saved_secs)
                .finish(),
            TraceEvent::DuplicateSuppressed { slot, of_slot } => o
                .u64("slot", *slot as u64)
                .u64("of_slot", *of_slot as u64)
                .finish(),
            TraceEvent::TrialAborted {
                slot,
                after_runs,
                p_value,
                effect,
                saved_secs,
            } => o
                .u64("slot", *slot as u64)
                .u64("after_runs", *after_runs)
                .f64("p_value", *p_value)
                .f64("effect", *effect)
                .f64("saved_secs", *saved_secs)
                .finish(),
            TraceEvent::TrialEvaluated {
                index,
                technique,
                delta,
                repeat_secs,
                score_secs,
                cost_secs,
                budget_spent_secs,
                gc_pause_total_ms,
                gc_collections,
                jit_compile_ms,
                jit_compiles,
                error,
                error_kind,
            } => {
                let mut o = o
                    .u64("index", *index)
                    .str("technique", technique)
                    .str_array("delta", delta)
                    .f64_array("repeat_secs", repeat_secs)
                    .opt_f64("score_secs", *score_secs)
                    .f64("cost_secs", *cost_secs)
                    .f64("budget_spent_secs", *budget_spent_secs)
                    .opt_f64("gc_pause_total_ms", *gc_pause_total_ms)
                    .opt_f64("jit_compile_ms", *jit_compile_ms);
                if let Some(n) = gc_collections {
                    o = o.u64("gc_collections", *n);
                }
                if let Some(n) = jit_compiles {
                    o = o.u64("jit_compiles", *n);
                }
                o = o.opt_str("error", error.as_deref());
                if let Some(kind) = error_kind {
                    o = o.str("error_kind", kind);
                }
                o.finish()
            }
            TraceEvent::TrialRetried {
                slot,
                rep,
                attempt,
                error,
                error_kind,
                cost_secs,
            } => o
                .u64("slot", *slot as u64)
                .u64("rep", *rep)
                .u64("attempt", *attempt)
                .str("error", error)
                .str("error_kind", error_kind)
                .f64("cost_secs", *cost_secs)
                .finish(),
            TraceEvent::Quarantined {
                fingerprint,
                failures,
                error_kind,
            } => o
                .u64("fingerprint", *fingerprint)
                .u64("failures", *failures)
                .str("error_kind", error_kind)
                .finish(),
            TraceEvent::ModelFit {
                round,
                samples,
                refit,
            } => o
                .u64("round", *round)
                .u64("samples", *samples)
                .bool("refit", *refit)
                .finish(),
            TraceEvent::CandidateScreened {
                round,
                fingerprint,
                predicted_secs,
                acquisition,
            } => o
                .u64("round", *round)
                .u64("fingerprint", *fingerprint)
                .f64("predicted_secs", *predicted_secs)
                .f64("acquisition", *acquisition)
                .finish(),
            TraceEvent::CheckpointWritten { trials, spent_secs } => o
                .u64("trials", *trials)
                .f64("spent_secs", *spent_secs)
                .finish(),
            TraceEvent::SessionResumed { trials_replayed } => {
                o.u64("trials_replayed", *trials_replayed).finish()
            }
            TraceEvent::WorkerRegistered {
                wid,
                executor,
                slots,
            } => o
                .u64("wid", *wid)
                .str("executor", executor)
                .u64("slots", *slots)
                .finish(),
            TraceEvent::TrialLeased {
                lease,
                sid,
                wid,
                fingerprint,
            } => o
                .u64("lease", *lease)
                .u64("sid", *sid)
                .u64("wid", *wid)
                .u64("fingerprint", *fingerprint)
                .finish(),
            TraceEvent::LeaseExpired { lease, wid, reason } => o
                .u64("lease", *lease)
                .u64("wid", *wid)
                .str("reason", reason)
                .finish(),
            TraceEvent::ConnectionRejected {
                reason,
                retry_after_ms,
            } => o
                .str("reason", reason)
                .u64("retry_after_ms", *retry_after_ms)
                .finish(),
            TraceEvent::FrameRejected { code, bytes } => {
                o.str("code", code).u64("bytes", *bytes).finish()
            }
            TraceEvent::ClientRetried { attempt, delay_ms } => o
                .u64("attempt", *attempt)
                .u64("delay_ms", *delay_ms)
                .finish(),
            TraceEvent::WorkerReconnected { wid, attempts } => {
                o.u64("wid", *wid).u64("attempts", *attempts).finish()
            }
            TraceEvent::PhaseStarted { phase, round } => {
                o.str("phase", phase).u64("round", *round).finish()
            }
            TraceEvent::PhaseEnded {
                phase,
                round,
                elapsed_secs,
            } => o
                .str("phase", phase)
                .u64("round", *round)
                .f64("elapsed_secs", *elapsed_secs)
                .finish(),
            TraceEvent::BestImproved {
                index,
                score_secs,
                improvement_percent,
                delta,
            } => o
                .u64("index", *index)
                .f64("score_secs", *score_secs)
                .f64("improvement_percent", *improvement_percent)
                .str_array("delta", delta)
                .finish(),
            TraceEvent::TechniqueSwitched { index, from, to } => o
                .u64("index", *index)
                .str("from", from)
                .str("to", to)
                .finish(),
            TraceEvent::BudgetExhausted {
                spent_secs,
                total_secs,
                evaluations,
            } => o
                .f64("spent_secs", *spent_secs)
                .f64("total_secs", *total_secs)
                .u64("evaluations", *evaluations)
                .finish(),
            TraceEvent::SessionFinished {
                program,
                default_secs,
                best_secs,
                improvement_percent,
                evaluations,
                spent_secs,
                best_delta,
            } => o
                .str("program", program)
                .f64("default_secs", *default_secs)
                .f64("best_secs", *best_secs)
                .f64("improvement_percent", *improvement_percent)
                .u64("evaluations", *evaluations)
                .f64("spent_secs", *spent_secs)
                .str_array("best_delta", best_delta)
                .finish(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One sample of every [`TraceEvent`] variant.
    pub(crate) fn every_variant() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SessionStarted {
                program: "p".into(),
                executor: "sim:p".into(),
                technique: "ensemble".into(),
                manipulator: "hierarchical".into(),
                budget_secs: 60.0,
                seed: 7,
                workers: 4,
                batch: 4,
                repeats: 3,
            },
            TraceEvent::RoundProposed {
                round: 1,
                technique: "ensemble".into(),
                candidates: 4,
            },
            TraceEvent::TrialMeasured {
                slot: 0,
                repeat_secs: vec![1.0],
                cost_secs: 1.5,
                error: None,
                error_kind: None,
            },
            TraceEvent::CacheHit {
                slot: 1,
                fingerprint: 0xDEAD_BEEF,
                score_secs: Some(1.1),
                cost_secs: 0.0,
                saved_secs: 3.8,
            },
            TraceEvent::DuplicateSuppressed {
                slot: 2,
                of_slot: 0,
            },
            TraceEvent::TrialAborted {
                slot: 3,
                after_runs: 2,
                p_value: 0.149,
                effect: 1.0,
                saved_secs: 1.4,
            },
            TraceEvent::TrialEvaluated {
                index: 1,
                technique: "random".into(),
                delta: vec!["-XX:+UseG1GC".into()],
                repeat_secs: vec![1.0, 1.1],
                score_secs: Some(1.05),
                cost_secs: 2.6,
                budget_spent_secs: 4.1,
                gc_pause_total_ms: Some(12.0),
                gc_collections: Some(3),
                jit_compile_ms: Some(40.0),
                jit_compiles: Some(200),
                error: None,
                error_kind: None,
            },
            TraceEvent::BestImproved {
                index: 1,
                score_secs: 1.05,
                improvement_percent: 4.2,
                delta: vec![],
            },
            TraceEvent::TechniqueSwitched {
                index: 2,
                from: "random".into(),
                to: "ils".into(),
            },
            TraceEvent::TrialRetried {
                slot: 1,
                rep: 0,
                attempt: 0,
                error: "injected hang: run timed out".into(),
                error_kind: "timeout".into(),
                cost_secs: 120.5,
            },
            TraceEvent::Quarantined {
                fingerprint: 0xBAD,
                failures: 3,
                error_kind: "oom".into(),
            },
            TraceEvent::ModelFit {
                round: 4,
                samples: 17,
                refit: true,
            },
            TraceEvent::CandidateScreened {
                round: 4,
                fingerprint: 0xFEED,
                predicted_secs: 2.4,
                acquisition: 2.1,
            },
            TraceEvent::CheckpointWritten {
                trials: 17,
                spent_secs: 301.5,
            },
            TraceEvent::SessionResumed {
                trials_replayed: 17,
            },
            TraceEvent::WorkerRegistered {
                wid: 3,
                executor: "sim".into(),
                slots: 2,
            },
            TraceEvent::TrialLeased {
                lease: 9,
                sid: 1,
                wid: 3,
                fingerprint: 0xFEED,
            },
            TraceEvent::LeaseExpired {
                lease: 9,
                wid: 3,
                reason: "deadline".into(),
            },
            TraceEvent::ConnectionRejected {
                reason: "overloaded".into(),
                retry_after_ms: 250,
            },
            TraceEvent::FrameRejected {
                code: "frame-too-large".into(),
                bytes: 1 << 20,
            },
            TraceEvent::ClientRetried {
                attempt: 0,
                delay_ms: 120,
            },
            TraceEvent::WorkerReconnected {
                wid: 3,
                attempts: 2,
            },
            TraceEvent::PhaseStarted {
                phase: "propose".into(),
                round: 4,
            },
            TraceEvent::PhaseEnded {
                phase: "propose".into(),
                round: 4,
                elapsed_secs: 0.002,
            },
            TraceEvent::BudgetExhausted {
                spent_secs: 61.0,
                total_secs: 60.0,
                evaluations: 9,
            },
            TraceEvent::SessionFinished {
                program: "p".into(),
                default_secs: 1.2,
                best_secs: 1.05,
                improvement_percent: 14.3,
                evaluations: 9,
                spent_secs: 61.0,
                best_delta: vec![],
            },
        ]
    }

    #[test]
    fn every_variant_renders_with_type_tag() {
        let events = every_variant();
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 26, "one sample per variant");
        for e in &events {
            let j = e.to_json();
            assert!(
                j.starts_with(&format!("{{\"type\":\"{}\"", e.kind())),
                "{j}"
            );
            assert!(j.ends_with('}'));
        }
    }

    #[test]
    fn only_live_only_events_are_ephemeral() {
        let ephemeral: Vec<&str> = every_variant()
            .iter()
            .filter(|e| e.is_ephemeral())
            .map(TraceEvent::kind)
            .collect();
        assert_eq!(
            ephemeral,
            [
                "SessionResumed",
                "WorkerRegistered",
                "TrialLeased",
                "LeaseExpired",
                "ConnectionRejected",
                "FrameRejected",
                "ClientRetried",
                "WorkerReconnected",
                "PhaseStarted",
                "PhaseEnded",
            ]
        );
    }

    #[test]
    fn failed_trial_serialises_score_null_and_error() {
        let e = TraceEvent::TrialEvaluated {
            index: 3,
            technique: "anneal".into(),
            delta: vec![],
            repeat_secs: vec![],
            score_secs: None,
            cost_secs: 0.7,
            budget_spent_secs: 9.0,
            gc_pause_total_ms: None,
            gc_collections: None,
            jit_compile_ms: None,
            jit_compiles: None,
            error: Some("java.lang.OutOfMemoryError: Java heap space".into()),
            error_kind: Some("oom".into()),
        };
        let j = e.to_json();
        assert!(j.contains("\"score_secs\":null"));
        assert!(j.contains("OutOfMemoryError"));
        assert!(j.contains("\"error_kind\":\"oom\""));
    }

    #[test]
    fn successful_trial_omits_error_kind() {
        let e = TraceEvent::TrialMeasured {
            slot: 0,
            repeat_secs: vec![1.0],
            cost_secs: 1.5,
            error: None,
            error_kind: None,
        };
        // Legacy traces predate `error_kind`; successful trials must
        // serialise to the same bytes they always did.
        assert!(!e.to_json().contains("error_kind"));
    }
}
