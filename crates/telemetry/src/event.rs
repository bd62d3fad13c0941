//! The typed trial-event model.
//!
//! Every observable step of a tuning session is one [`TraceEvent`]. The
//! stream is *complete* (every candidate evaluation appears exactly once
//! as [`TraceEvent::TrialEvaluated`], with its budget charge) and
//! *deterministic* (given the tuner seed, the same bytes are produced at
//! any worker count — see `jtune_harness::evaluate_batch` for the
//! ordering contract).
//!
//! The trace format is declared once, in the `trace_events!` table
//! below, with the shared row machinery of [`jtune_util::rows`]. One
//! row per variant says whether it is a `fact` (serialised to the JSONL
//! trace) or `live` (seen by live sinks only) and lists its fields in
//! JSON order, each with its type and, where the type alone does not
//! say how it is written, its codec. The enum, [`TraceEvent::kind`],
//! [`TraceEvent::is_ephemeral`], the encoder behind
//! [`TraceEvent::to_json`] and the decoder behind
//! [`TraceEvent::from_json`] are all generated from that table, so the
//! encoder, the decoder and the live/fact split cannot disagree.

use jtune_util::json::JsonObject;
use jtune_util::rows::Fields;

/// Generate [`TraceEvent`] and its methods from one row per variant:
/// `fact` or `live`, the variant name, then its fields in JSON order as
/// `name: Type` with an optional `=> Codec` (see [`jtune_util::rows`]).
/// The trace is a strict table: a key no row declares is an error.
macro_rules! trace_events {
    (@live live) => { true };
    (@live fact) => { false };
    ($(
        $(#[$vmeta:meta])*
        $class:ident $variant:ident { $($fields:tt)* }
    )*) => {
        jtune_util::json_rows! {
            /// One structured event in a tuning session's trace.
            #[derive(Clone, Debug, PartialEq)]
            pub enum TraceEvent: strict, tagged "type" {
                $( $(#[$vmeta])* $variant { $($fields)* }, )*
            }
        }

        impl TraceEvent {
            /// Is this event live-only — meaningful to an attached
            /// observer but excluded from the serialised JSONL trace?
            /// The `live` rows of the table: resumes, spans and the
            /// worker-plane and overload events describe how this
            /// process or deployment ran, not the session, and a
            /// resumed, distributed or spans-on trace must match the
            /// plain one byte for byte.
            pub fn is_ephemeral(&self) -> bool {
                match self {
                    $( TraceEvent::$variant { .. } => trace_events!(@live $class), )*
                }
            }
        }
    };
}

impl TraceEvent {
    /// Render as one JSON object (one line of the JSONL trace).
    pub fn to_json(&self) -> String {
        self.put_fields(JsonObject::new()).finish()
    }

    /// Decode one trace line written by [`TraceEvent::to_json`]. An
    /// unknown `type`, a missing or unknown field, or a field of the
    /// wrong type is an error naming the field.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let mut m = Fields::parse(line)?;
        let kind = m.take_tag("type").ok_or("missing event type")?;
        TraceEvent::from_tag(&kind, &mut m)?.ok_or_else(|| format!("unknown event type {kind:?}"))
    }
}

trace_events! {
    /// A tuning session began.
    fact SessionStarted {
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
        workers: u64 => Skip,
        /// Candidates proposed per round.
        batch: u64,
        /// Measurement repeats per candidate.
        repeats: u64,
    }
    /// The tuner proposed a round (batch) of candidates.
    fact RoundProposed {
        /// Round number (0 = the structural primer round).
        round: u64,
        /// Technique driving the round (`primer` for round 0).
        technique: String,
        /// Number of candidates in the round.
        candidates: u64,
    }
    /// The evaluation pool finished measuring one batch slot (raw,
    /// worker-level record; `slot` is the index within the batch).
    fact TrialMeasured {
        /// Candidate index within the batch.
        slot: usize,
        /// Successful per-repeat objective values, run order.
        repeat_secs: Vec<f64>,
        /// Budget cost of the whole evaluation.
        cost_secs: f64,
        /// First failure message, if any repeat failed.
        error: Option<String> => OrNull,
        /// Classified failure kind (`crash` / `oom` / `timeout` /
        /// `flag-conflict`), present exactly when `error` is.
        error_kind: Option<String> => IfSome,
    }
    /// The pipeline served a re-proposed configuration from the trial
    /// cache instead of re-measuring it.
    fact CacheHit {
        /// Candidate index within the batch.
        slot: usize,
        /// Canonical configuration fingerprint (the cache key).
        fingerprint: u64,
        /// The cached median score, seconds (`None` = cached failure).
        score_secs: Option<f64> => OrNull,
        /// Budget charged for the hit (the re-charge policy's share of
        /// the original cost; 0 by default).
        cost_secs: f64,
        /// Budget the hit avoided spending (original cost − charge).
        saved_secs: f64,
    }
    /// A candidate was dropped because an earlier slot in the same batch
    /// proposed the identical configuration.
    fact DuplicateSuppressed {
        /// Candidate index within the batch.
        slot: usize,
        /// Earlier slot holding the identical configuration.
        of_slot: usize,
    }
    /// Racing abandoned a statistically hopeless candidate before its
    /// full repeat count, refunding the unspent repeats.
    fact TrialAborted {
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
    }
    /// One candidate evaluation was scored and charged to the budget
    /// (session-level record; `index` matches `TrialRecord::index`).
    fact TrialEvaluated {
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
        score_secs: Option<f64> => OrNull,
        /// Budget charge for this evaluation.
        cost_secs: f64,
        /// Cumulative budget spent after the charge.
        budget_spent_secs: f64,
        /// Total stop-the-world GC pause time across repeats, ms
        /// (`None` when the executor cannot observe it).
        gc_pause_total_ms: Option<f64> => OrNull,
        /// JIT compile-stall time across repeats, ms.
        jit_compile_ms: Option<f64> => OrNull,
        /// GC collections (young + full) across repeats.
        gc_collections: Option<u64> => IfSome,
        /// Methods JIT-compiled across repeats.
        jit_compiles: Option<u64> => IfSome,
        /// First failure message, if the candidate failed.
        error: Option<String> => OrNull,
        /// Classified failure kind, present exactly when `error` is.
        error_kind: Option<String> => IfSome,
    }
    /// A candidate became the best found so far.
    fact BestImproved {
        /// Evaluation index of the new best.
        index: u64,
        /// Its score, seconds.
        score_secs: f64,
        /// Improvement over the default config, percent.
        improvement_percent: f64,
        /// Its flag delta.
        delta: Vec<String>,
    }
    /// The proposing technique changed between consecutive trials (for
    /// the AUC-bandit ensemble this traces arm switches).
    fact TechniqueSwitched {
        /// First evaluation index proposed by the new technique.
        index: u64,
        /// Previous technique.
        from: String,
        /// New technique.
        to: String,
    }
    /// A transient trial failure was retried under the retry policy
    /// (emitted before the run's [`TraceEvent::TrialMeasured`]).
    fact TrialRetried {
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
    }
    /// A configuration fingerprint was quarantined after a streak of
    /// deterministic failures; the tuner will not re-propose it.
    fact Quarantined {
        /// Canonical configuration fingerprint.
        fingerprint: u64,
        /// Deterministic-failure runs accumulated at the breaker.
        failures: u64,
        /// Kind of the failure that tripped the breaker.
        error_kind: String,
    }
    /// The surrogate model refit on the completed-trial history before
    /// screening a round's proposals.
    fact ModelFit {
        /// Round whose proposals the refit model will screen.
        round: u64,
        /// Completed observations the model is trained on.
        samples: u64,
        /// Whether the model actually refit (false: no new data since
        /// the previous fit, the cached model was reused).
        refit: bool,
    }
    /// The surrogate screened out an over-proposed candidate; it was
    /// never measured and cost no budget.
    fact CandidateScreened {
        /// Round the candidate was proposed in.
        round: u64,
        /// Canonical configuration fingerprint of the rejected config.
        fingerprint: u64,
        /// Surrogate-predicted score, virtual seconds.
        predicted_secs: f64,
        /// Acquisition value (`mean - kappa * std`) it was ranked by.
        acquisition: f64,
    }
    /// The write-ahead trial journal reached a consistent point (all
    /// completed trials durable); a kill after this event loses nothing.
    fact CheckpointWritten {
        /// Completed trials in the journal.
        trials: u64,
        /// Budget spent at the checkpoint, seconds.
        spent_secs: f64,
    }
    /// The session was reconstructed from a journal. *Ephemeral*: live
    /// sinks see it, but it is never serialised to the JSONL trace —
    /// a resumed session's trace must be byte-identical to an
    /// uninterrupted one (same precedent as the unserialised `workers`
    /// field).
    live SessionResumed {
        /// Completed trials replayed from the journal.
        trials_replayed: u64,
    }
    /// A remote worker registered with the daemon. *Ephemeral*: which
    /// workers happen to be attached is deployment topology, not session
    /// content — a session's trace must be byte-identical with or
    /// without workers.
    live WorkerRegistered {
        /// The worker id the daemon issued.
        wid: u64,
        /// The worker's executor capability tag (e.g. `"sim"`).
        executor: String,
        /// Concurrent trial slots the worker offers.
        slots: u64,
    }
    /// A trial was leased to a remote worker. *Ephemeral*, like
    /// [`TraceEvent::WorkerRegistered`]: where a trial executed varies
    /// run to run and never reaches the serialised trace.
    live TrialLeased {
        /// The lease id.
        lease: u64,
        /// The session the trial belongs to.
        sid: u64,
        /// The worker the trial went to.
        wid: u64,
        /// Canonical fingerprint of the leased configuration.
        fingerprint: u64,
    }
    /// A lease expired (missed deadline, worker death, or an explicit
    /// `fail`) and its slot was reissued — to another worker or back to
    /// the local pool. *Ephemeral*, like
    /// [`TraceEvent::WorkerRegistered`].
    live LeaseExpired {
        /// The lease that was lost.
        lease: u64,
        /// The worker that held it.
        wid: u64,
        /// Why it expired (`"deadline"`, `"worker-gone"`, `"failed"`).
        reason: String,
    }
    /// The daemon refused a connection or a submit under overload
    /// (connection limit hit, or the admission queue full).
    /// *Ephemeral*, like [`TraceEvent::WorkerRegistered`]: load shedding
    /// is deployment weather, not session content.
    live ConnectionRejected {
        /// Why admission refused (`"conn-limit"`, `"overloaded"`).
        reason: String,
        /// The `retry_after_ms` hint handed to the peer (0 for
        /// connection-limit rejects, which carry no hint).
        retry_after_ms: u64,
    }
    /// A wire frame was rejected before decoding (over the size cap, or
    /// not UTF-8). *Ephemeral*, like [`TraceEvent::WorkerRegistered`].
    live FrameRejected {
        /// The stable wire error code (`"frame-too-large"`,
        /// `"bad-frame"`).
        code: String,
        /// Bytes of the offending frame that were observed before the
        /// reject (for an oversized frame, at least the cap).
        bytes: u64,
    }
    /// A client retried a request after an `overloaded` reject or an
    /// I/O failure, under the jittered backoff policy. *Ephemeral*,
    /// like [`TraceEvent::WorkerRegistered`].
    live ClientRetried {
        /// 0-based attempt index that failed (0 = the original try).
        attempt: u64,
        /// Milliseconds the client backed off before this retry.
        delay_ms: u64,
    }
    /// A worker lost its daemon connection and re-registered under the
    /// backoff policy instead of exiting. *Ephemeral*, like
    /// [`TraceEvent::WorkerRegistered`].
    live WorkerReconnected {
        /// The worker id issued by the *new* registration.
        wid: u64,
        /// Reconnect attempts it took to get back in (1 = first retry
        /// succeeded).
        attempts: u64,
    }
    /// A timed tuning phase began (propose / screen / measure / fit /
    /// checkpoint; see [`crate::phase`]). *Ephemeral*: span events carry
    /// wall-clock timings that vary run to run, so they feed live sinks
    /// (the metrics registry, watch streams) but never the
    /// byte-deterministic JSONL trace.
    live PhaseStarted {
        /// Phase name (one of the [`crate::phase`] constants).
        phase: String,
        /// Round the phase belongs to (0 = the primer round; for
        /// per-trial spans, the batch slot).
        round: u64,
    }
    /// A timed tuning phase ended. *Ephemeral*, like
    /// [`TraceEvent::PhaseStarted`]. Per-trial latency spans
    /// ([`crate::phase::TRIAL`]) emit only this closing event.
    live PhaseEnded {
        /// Phase name (one of the [`crate::phase`] constants).
        phase: String,
        /// Round the phase belongs to (for per-trial spans, the slot).
        round: u64,
        /// Wall-clock time the phase took, seconds (host time, not
        /// virtual tuning time).
        elapsed_secs: f64,
    }
    /// The tuning budget was exhausted (emitted once, at the charge that
    /// crossed the limit).
    fact BudgetExhausted {
        /// Budget spent, seconds (may straddle past the total).
        spent_secs: f64,
        /// Budget total, seconds.
        total_secs: f64,
        /// Evaluations completed at exhaustion.
        evaluations: u64,
    }
    /// The session ended.
    fact SessionFinished {
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

    /// The shapes [`every_variant`] leaves out: the other side of each
    /// optional field, escaped strings and non-finite floats.
    pub(crate) fn optional_shapes() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TrialMeasured {
                slot: 4,
                repeat_secs: vec![],
                cost_secs: 0.25,
                error: Some("boom \"x\"\n\ty".into()),
                error_kind: Some("crash".into()),
            },
            TraceEvent::CacheHit {
                slot: 0,
                fingerprint: u64::MAX,
                score_secs: None,
                cost_secs: 0.5,
                saved_secs: 2.0,
            },
            TraceEvent::TrialEvaluated {
                index: 3,
                technique: "anneal".into(),
                delta: vec!["-XX:MaxHeapSize=16m".into(), "-XX:-UseG1GC".into()],
                repeat_secs: vec![f64::NAN, 2.5],
                score_secs: None,
                cost_secs: 0.7,
                budget_spent_secs: 9.0,
                gc_pause_total_ms: None,
                gc_collections: None,
                jit_compile_ms: None,
                jit_compiles: None,
                error: Some("java.lang.OutOfMemoryError: Java heap space".into()),
                error_kind: Some("oom".into()),
            },
            TraceEvent::SessionFinished {
                program: "p".into(),
                default_secs: f64::INFINITY,
                best_secs: f64::NEG_INFINITY,
                improvement_percent: f64::NAN,
                evaluations: 0,
                spent_secs: 0.0,
                best_delta: vec!["-XX:+UseG1GC".into()],
            },
        ]
    }

    /// The exact trace line of each [`every_variant`] sample, then of
    /// each [`optional_shapes`] sample.
    const EXPECTED_LINES: [&str; 30] = [
        r#"{"type":"SessionStarted","program":"p","executor":"sim:p","technique":"ensemble","manipulator":"hierarchical","budget_secs":60,"seed":7,"batch":4,"repeats":3}"#,
        r#"{"type":"RoundProposed","round":1,"technique":"ensemble","candidates":4}"#,
        r#"{"type":"TrialMeasured","slot":0,"repeat_secs":[1],"cost_secs":1.5,"error":null}"#,
        r#"{"type":"CacheHit","slot":1,"fingerprint":3735928559,"score_secs":1.1,"cost_secs":0,"saved_secs":3.8}"#,
        r#"{"type":"DuplicateSuppressed","slot":2,"of_slot":0}"#,
        r#"{"type":"TrialAborted","slot":3,"after_runs":2,"p_value":0.149,"effect":1,"saved_secs":1.4}"#,
        r#"{"type":"TrialEvaluated","index":1,"technique":"random","delta":["-XX:+UseG1GC"],"repeat_secs":[1,1.1],"score_secs":1.05,"cost_secs":2.6,"budget_spent_secs":4.1,"gc_pause_total_ms":12,"jit_compile_ms":40,"gc_collections":3,"jit_compiles":200,"error":null}"#,
        r#"{"type":"BestImproved","index":1,"score_secs":1.05,"improvement_percent":4.2,"delta":[]}"#,
        r#"{"type":"TechniqueSwitched","index":2,"from":"random","to":"ils"}"#,
        r#"{"type":"TrialRetried","slot":1,"rep":0,"attempt":0,"error":"injected hang: run timed out","error_kind":"timeout","cost_secs":120.5}"#,
        r#"{"type":"Quarantined","fingerprint":2989,"failures":3,"error_kind":"oom"}"#,
        r#"{"type":"ModelFit","round":4,"samples":17,"refit":true}"#,
        r#"{"type":"CandidateScreened","round":4,"fingerprint":65261,"predicted_secs":2.4,"acquisition":2.1}"#,
        r#"{"type":"CheckpointWritten","trials":17,"spent_secs":301.5}"#,
        r#"{"type":"SessionResumed","trials_replayed":17}"#,
        r#"{"type":"WorkerRegistered","wid":3,"executor":"sim","slots":2}"#,
        r#"{"type":"TrialLeased","lease":9,"sid":1,"wid":3,"fingerprint":65261}"#,
        r#"{"type":"LeaseExpired","lease":9,"wid":3,"reason":"deadline"}"#,
        r#"{"type":"ConnectionRejected","reason":"overloaded","retry_after_ms":250}"#,
        r#"{"type":"FrameRejected","code":"frame-too-large","bytes":1048576}"#,
        r#"{"type":"ClientRetried","attempt":0,"delay_ms":120}"#,
        r#"{"type":"WorkerReconnected","wid":3,"attempts":2}"#,
        r#"{"type":"PhaseStarted","phase":"propose","round":4}"#,
        r#"{"type":"PhaseEnded","phase":"propose","round":4,"elapsed_secs":0.002}"#,
        r#"{"type":"BudgetExhausted","spent_secs":61,"total_secs":60,"evaluations":9}"#,
        r#"{"type":"SessionFinished","program":"p","default_secs":1.2,"best_secs":1.05,"improvement_percent":14.3,"evaluations":9,"spent_secs":61,"best_delta":[]}"#,
        r#"{"type":"TrialMeasured","slot":4,"repeat_secs":[],"cost_secs":0.25,"error":"boom \"x\"\n\ty","error_kind":"crash"}"#,
        r#"{"type":"CacheHit","slot":0,"fingerprint":18446744073709551615,"score_secs":null,"cost_secs":0.5,"saved_secs":2}"#,
        r#"{"type":"TrialEvaluated","index":3,"technique":"anneal","delta":["-XX:MaxHeapSize=16m","-XX:-UseG1GC"],"repeat_secs":[null,2.5],"score_secs":null,"cost_secs":0.7,"budget_spent_secs":9,"gc_pause_total_ms":null,"jit_compile_ms":null,"error":"java.lang.OutOfMemoryError: Java heap space","error_kind":"oom"}"#,
        r#"{"type":"SessionFinished","program":"p","default_secs":null,"best_secs":null,"improvement_percent":null,"evaluations":0,"spent_secs":0,"best_delta":["-XX:+UseG1GC"]}"#,
    ];

    #[test]
    fn encoder_writes_the_pinned_lines() {
        let events: Vec<TraceEvent> = every_variant()
            .into_iter()
            .chain(optional_shapes())
            .collect();
        assert_eq!(events.len(), EXPECTED_LINES.len());
        for (e, expected) in events.iter().zip(EXPECTED_LINES) {
            assert_eq!(e.to_json(), expected);
        }
    }

    #[test]
    fn every_event_decodes_to_itself_and_re_encodes_to_the_same_bytes() {
        for mut e in every_variant() {
            let line = e.to_json();
            let back = TraceEvent::from_json(&line).unwrap_or_else(|err| panic!("{err}: {line}"));
            assert_eq!(back.to_json(), line);
            // Not serialised, so it reads back as 0.
            if let TraceEvent::SessionStarted { workers, .. } = &mut e {
                *workers = 0;
            }
            assert_eq!(back, e);
        }
        // Non-finite floats come back as NaN, which is written as null again.
        for e in optional_shapes() {
            let line = e.to_json();
            let back = TraceEvent::from_json(&line).unwrap_or_else(|err| panic!("{err}: {line}"));
            assert_eq!(back.to_json(), line);
        }
    }

    #[test]
    fn decode_errors_name_the_field() {
        let ok = r#"{"type":"CheckpointWritten","trials":17,"spent_secs":301.5}"#;
        assert!(TraceEvent::from_json(ok).is_ok());
        for (line, error) in [
            (
                r#"{"type":"CheckpointWritten","trials":17}"#,
                "CheckpointWritten: missing field `spent_secs`",
            ),
            (
                r#"{"type":"CheckpointWritten","trials":"17","spent_secs":1}"#,
                "CheckpointWritten: field `trials`: expected an unsigned integer",
            ),
            (
                r#"{"type":"CheckpointWritten","trials":-1,"spent_secs":1}"#,
                "CheckpointWritten: field `trials`: expected an unsigned integer",
            ),
            (
                r#"{"type":"CheckpointWritten","trials":17,"spent_secs":1,"workers":2}"#,
                "CheckpointWritten: unknown field `workers`",
            ),
            (
                r#"{"type":"CacheHit","slot":1,"fingerprint":2,"cost_secs":0,"saved_secs":3.8}"#,
                "CacheHit: missing field `score_secs`",
            ),
            (
                r#"{"type":"TrialMeasured","slot":0,"repeat_secs":[1,"x"],"cost_secs":1,"error":null}"#,
                "TrialMeasured: field `repeat_secs`: expected an array of numbers",
            ),
            (
                r#"{"type":"TrialMeasured","slot":0,"repeat_secs":[],"cost_secs":1,"error":null,"error_kind":null}"#,
                "TrialMeasured: field `error_kind`: expected a string",
            ),
            (
                r#"{"type":"SessionStarted","program":"p","executor":"sim:p","technique":"t","manipulator":"m","budget_secs":60,"seed":7,"workers":4,"batch":4,"repeats":3}"#,
                "SessionStarted: unknown field `workers`",
            ),
            (
                r#"{"type":"Frobnicated","trials":17}"#,
                "unknown event type \"Frobnicated\"",
            ),
            (r#"{"trials":17}"#, "missing event type"),
            (r#"[1]"#, "not a JSON object"),
        ] {
            assert_eq!(
                TraceEvent::from_json(line),
                Err(error.to_string()),
                "{line}"
            );
        }
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
