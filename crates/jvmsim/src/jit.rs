//! The tiered-JIT model.
//!
//! Methods are modelled in *buckets*: the workload's `hot_methods` are
//! ranked by a Zipf distribution over invocation frequency and grouped into
//! a fixed number of rank buckets. Each bucket tracks per-method invocation
//! counts; crossing the (flag-derived) tier thresholds enqueues the
//! bucket's methods for compilation. A compile queue, served by
//! `CICompilerCount` background threads at realistic bytecode-per-second
//! rates, delays the speedup — which is exactly why `TieredCompilation` and
//! low thresholds transform *startup* workloads and barely move long
//! steady-state runs.
//!
//! The overall mutator speed factor at any instant is the
//! invocation-weighted mean of the tier speeds, where the C1/C2 speeds are
//! themselves modulated by the inlining and optimisation flags against the
//! workload's call profile.

use crate::flagview::FlagView;
use crate::workload::Workload;

/// Number of rank buckets the hot-method distribution is folded into.
const BUCKETS: usize = 24;

/// Bytecodes per second a C1 compiler thread retires.
const C1_COMPILE_RATE: f64 = 600_000.0;
/// Bytecodes per second a C2 compiler thread retires (before inlining
/// expansion).
const C2_COMPILE_RATE: f64 = 25_000.0;
/// Native bytes emitted per bytecode (code-cache footprint).
const NATIVE_BYTES_PER_BYTECODE: f64 = 10.0;

/// Execution tier of a bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Template interpreter.
    Interp,
    /// C1 (client) compiled.
    C1,
    /// C2 (server) compiled.
    C2,
}

/// Relative speeds of the three tiers for a given config + workload
/// (interpreter ≡ 1.0).
#[derive(Clone, Copy, Debug)]
pub struct TierSpeeds {
    /// Interpreter relative speed (can dip below 1.0 with profiling).
    pub interp: f64,
    /// C1 relative speed.
    pub c1: f64,
    /// C2 relative speed.
    pub c2: f64,
}

/// Inlining coverage in `[0, 1]`: the fraction of call sites the inliner
/// can fold away, derived from the size-threshold flags against the
/// workload's (exponentially distributed) method sizes.
pub fn inline_coverage(view: &FlagView, wl: &Workload) -> f64 {
    if !view.inline || !view.use_compiler {
        return 0.0;
    }
    let mean = wl.mean_method_size.max(1.0);
    // P(size ≤ threshold) under Exp(mean).
    let p_small = 1.0 - (-view.max_inline_size / mean).exp();
    let p_hot = 1.0 - (-view.freq_inline_size / mean).exp();
    // Hot call sites (~40 % of dynamic calls) get the frequent threshold;
    // InlineSmallCode re-admits already-compiled callees for ~half of the
    // remainder.
    let p_code = 1.0 - (-view.inline_small_code / (mean * NATIVE_BYTES_PER_BYTECODE)).exp();
    let breadth = 0.4 * p_hot + 0.45 * p_small + 0.15 * p_small.max(p_code * 0.8);
    // Depth: diminishing returns past ~5 levels.
    let depth = 1.0 - (-(view.max_inline_level as f64) / 3.0).exp();
    let accessors = if view.inline_accessors { 1.0 } else { 0.85 };
    (breadth * depth * accessors).clamp(0.0, 1.0)
}

/// Steady-state tier speeds for this configuration and workload.
pub fn tier_speeds(view: &FlagView, wl: &Workload) -> TierSpeeds {
    let cov = inline_coverage(view, wl);
    // Dynamic call overhead: each call costs ~12 work units of overhead in
    // compiled code when not inlined; inlining removes it and unlocks
    // cross-call optimisation.
    let call_tax = (wl.call_density * 6.0 * (1.0 - cov)).min(0.35);
    let opt_bonus =
        1.0 * if view.escape_analysis && view.eliminate_allocations {
            1.0 + 0.05 * (wl.alloc_rate / (wl.alloc_rate + 1.0))
        } else {
            1.0
        } * if view.escape_analysis && view.eliminate_locks {
            1.0 + (0.04 * wl.lock_density * 400.0).min(0.04)
        } else {
            1.0
        } * if view.use_superword {
            1.0 + 0.06 * wl.array_stream_fraction
        } else {
            1.0
        } * (1.0
            + 0.04 * wl.array_stream_fraction * (view.loop_unroll_limit / 60.0).min(2.0) / 2.0)
            * if view.inline_math {
                1.0 + 0.08 * wl.fp_fraction
            } else {
                1.0
            }
            * if view.aggressive_opts { 1.02 } else { 1.0 };
    let cross_call = 1.0 + 0.08 * cov * (wl.call_density * 30.0).min(1.0);

    // Profile quality: C2 leans on branch/type profiles. Under the classic
    // policy those come from interpreter counters, so compiling very early
    // (a tiny CompileThreshold) produces measurably poorer code; tiered
    // compilation profiles in C1 and does not pay this tax — which is the
    // real reason tiered is HotSpot's startup answer rather than "just
    // lower the threshold".
    let profile_quality = if view.tiered {
        1.0
    } else {
        let maturity = (view.compile_threshold / 10_000.0).min(1.0);
        let base = 0.86 + 0.14 * maturity.powf(0.35);
        if view.profile_interpreter {
            base
        } else {
            base * 0.95
        }
    };

    let c2 =
        crate::engine::C2_SPEEDUP * (1.0 - call_tax) * opt_bonus * cross_call * profile_quality;
    // C1: lighter inlining, no loop opts; profiling variant (tiered level
    // 3) is a bit slower than pure C1 but we fold that into the constant.
    let c1 = crate::engine::C1_SPEEDUP * (1.0 - 0.7 * call_tax) * (1.0 + 0.015 * cov);
    let interp = 1.0
        * if view.profile_interpreter { 0.95 } else { 1.0 }
        * if view.fast_accessors {
            1.0 + (wl.call_density * 2.0).min(0.04)
        } else {
            1.0
        };
    TierSpeeds { interp, c1, c2 }
}

#[derive(Clone, Debug)]
struct Bucket {
    /// Share of all dynamic calls landing in this bucket.
    call_share: f64,
    /// Methods in the bucket.
    methods: f64,
    /// Invocations accumulated per method.
    invocations: f64,
    tier: Tier,
    /// Tier queued for compilation (compile work already enqueued).
    queued: Option<Tier>,
}

/// Live JIT state during a run.
#[derive(Clone, Debug)]
pub struct JitModel {
    buckets: Vec<Bucket>,
    /// [`JitModel::speed_factor`], kept by [`JitModel::retier`].
    speed: f64,
    /// Call share of the buckets at C2, kept by [`JitModel::retier`].
    c2_share: f64,
    speeds: TierSpeeds,
    /// Outstanding compile work, in compiler-thread seconds.
    backlog: Vec<(usize, Tier, f64)>,
    code_cache_used: f64,
    code_cache_capacity: f64,
    compile_seconds_per_method_c1: f64,
    compile_seconds_per_method_c2: f64,
    native_bytes_per_method: f64,
    /// Counters for the outcome report.
    pub c1_compiles: u64,
    /// Counters for the outcome report.
    pub c2_compiles: u64,
    /// Compilations dropped to a full code cache.
    pub dropped: u64,
    /// Work retired at C2 speed (for `c2_work_fraction`).
    c2_work: f64,
    total_work: f64,
    tiered: bool,
    stop_at: Tier,
    use_compiler: bool,
    tier_up_c1: f64,
    tier_up_c2: f64,
    ci_threads: f64,
    background: bool,
    flushing: bool,
}

/// The workload's hot methods folded into at most [`BUCKETS`] rank
/// buckets of equal rank width, as `(call_share, methods)`: the bucket's
/// share of all dynamic calls under the Zipf weights, and its method
/// count. It depends only on the workload, so a prepared run computes it
/// once instead of one `powf` per hot method per run.
pub(crate) fn zipf_buckets(wl: &Workload) -> Vec<(f64, f64)> {
    let n = wl.hot_methods.max(1) as usize;
    let s = wl.hotness_skew;
    let mut rank_w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = rank_w.iter().sum();
    for w in &mut rank_w {
        *w /= total;
    }
    let per = n.div_ceil(BUCKETS);
    rank_w
        .chunks(per)
        .map(|chunk| (chunk.iter().sum(), chunk.len() as f64))
        .collect()
}

impl JitModel {
    /// Build the model for one run.
    pub fn new(view: &FlagView, wl: &Workload) -> JitModel {
        JitModel::with_buckets(view, wl, &zipf_buckets(wl))
    }

    /// Build the model for one run over the workload's [`zipf_buckets`].
    pub(crate) fn with_buckets(view: &FlagView, wl: &Workload, shares: &[(f64, f64)]) -> JitModel {
        let buckets: Vec<Bucket> = shares
            .iter()
            .map(|&(call_share, methods)| Bucket {
                call_share,
                methods,
                invocations: 0.0,
                tier: Tier::Interp,
                queued: None,
            })
            .collect();

        // Inlining inflates C2 compile cost and code size.
        let cov = inline_coverage(view, wl);
        let expansion = 1.0 + 2.0 * cov;
        let msize = wl.mean_method_size;
        let stop_at = if !view.use_compiler || view.tiered_stop_level == 0 {
            Tier::Interp
        } else if view.tiered && view.tiered_stop_level <= 3 {
            Tier::C1
        } else {
            Tier::C2
        };
        // Thresholds: tiered uses the tier3/tier4 pair; the classic policy
        // compiles straight to C2 at CompileThreshold.
        let (t_c1, t_c2) = if view.tiered {
            (view.tier3_threshold, view.tier4_threshold)
        } else {
            (f64::INFINITY, view.compile_threshold)
        };
        let mut model = JitModel {
            buckets,
            speed: 0.0,
            c2_share: 0.0,
            speeds: tier_speeds(view, wl),
            backlog: Vec::new(),
            code_cache_used: 0.0,
            code_cache_capacity: view.code_cache_size,
            compile_seconds_per_method_c1: msize / C1_COMPILE_RATE,
            compile_seconds_per_method_c2: msize * expansion / C2_COMPILE_RATE,
            native_bytes_per_method: msize * expansion * NATIVE_BYTES_PER_BYTECODE,
            c1_compiles: 0,
            c2_compiles: 0,
            dropped: 0,
            c2_work: 0.0,
            total_work: 0.0,
            tiered: view.tiered,
            stop_at,
            use_compiler: view.use_compiler && view.tiered_stop_level > 0,
            tier_up_c1: t_c1,
            tier_up_c2: t_c2,
            ci_threads: view.ci_compiler_count as f64,
            background: view.background_compilation,
            flushing: view.code_cache_flushing,
        };
        model.retier();
        model
    }

    /// Recompute the sums over the buckets' tiers, in bucket order. Only a
    /// tier change moves them, so caching them between changes keeps
    /// every bit.
    fn retier(&mut self) {
        let mut f = 0.0;
        for b in &self.buckets {
            let tier_speed = match b.tier {
                Tier::Interp => self.speeds.interp,
                Tier::C1 => self.speeds.c1,
                Tier::C2 => self.speeds.c2,
            };
            f += b.call_share * tier_speed;
        }
        self.speed = f.max(0.05);
        self.c2_share = self
            .buckets
            .iter()
            .filter(|b| b.tier == Tier::C2)
            .map(|b| b.call_share)
            .sum::<f64>();
    }

    /// Current mutator speed factor relative to the interpreter (≥ ~1).
    pub fn speed_factor(&self) -> f64 {
        self.speed
    }

    /// Advance the model by `work` units retired over `dt_secs` of mutator
    /// time; `calls_per_unit` comes from the workload.
    ///
    /// Returns the foreground **stall seconds** to charge to the run
    /// (non-zero only with `-XX:-BackgroundCompilation`).
    pub fn advance(&mut self, work: f64, dt_secs: f64, calls_per_unit: f64) -> f64 {
        self.total_work += work;
        self.c2_work += work * self.c2_share;
        if !self.use_compiler {
            return 0.0;
        }
        let calls = work * calls_per_unit;
        let mut stall = 0.0;
        // Threshold crossings enqueue compiles. A bucket at the top tier
        // never compiles again, so its invocations are not counted.
        for (i, b) in self.buckets.iter_mut().enumerate() {
            if b.tier == self.stop_at || b.methods == 0.0 || b.call_share == 0.0 {
                continue;
            }
            b.invocations += calls * b.call_share / b.methods;
            let want = if self.tiered {
                if b.tier == Tier::Interp && b.invocations >= self.tier_up_c1 {
                    Some(Tier::C1)
                } else if b.tier <= Tier::C1
                    && b.invocations >= self.tier_up_c2
                    && self.stop_at == Tier::C2
                {
                    Some(Tier::C2)
                } else {
                    None
                }
            } else if b.tier == Tier::Interp && b.invocations >= self.tier_up_c2 {
                Some(Tier::C2)
            } else {
                None
            };
            if let Some(t) = want {
                let t = t.min(self.stop_at);
                if t > b.tier && b.queued.is_none_or(|q| q < t) {
                    let per_method = match t {
                        Tier::C1 => self.compile_seconds_per_method_c1,
                        Tier::C2 => self.compile_seconds_per_method_c2,
                        Tier::Interp => 0.0,
                    };
                    // Code-cache space is reserved at enqueue time (the
                    // real allocator rejects compilations whose result the
                    // cache cannot hold).
                    let bytes = b.methods * self.native_bytes_per_method;
                    if self.code_cache_used + bytes > self.code_cache_capacity && !self.flushing {
                        // Cache full, no sweeper: compilation stops.
                        self.dropped += b.methods as u64;
                        continue;
                    } else {
                        if self.code_cache_used + bytes > self.code_cache_capacity {
                            // Sweeper makes room at a small throughput cost,
                            // modelled as extra compile work; occupancy
                            // stays pinned at capacity.
                            self.backlog.push((i, t, 0.2 * per_method * b.methods));
                            self.code_cache_used = self.code_cache_capacity;
                        } else {
                            self.code_cache_used += bytes;
                        }
                        b.queued = Some(t);
                        let cost = per_method * b.methods;
                        self.backlog.push((i, t, cost));
                        if !self.background {
                            // Foreground compilation blocks the mutator for
                            // the full compile cost (spread over compiler
                            // threads).
                            stall += cost / self.ci_threads;
                        }
                    }
                }
            }
        }
        // Serve the queue with CICompilerCount threads.
        let mut budget = dt_secs * self.ci_threads;
        if !self.background {
            // Foreground mode: everything already accounted as stall;
            // drain instantly.
            budget = f64::INFINITY;
        }
        let mut retiered = false;
        let mut k = 0;
        while k < self.backlog.len() && budget > 0.0 {
            let (i, t, ref mut remaining) = self.backlog[k];
            let spend = remaining.min(budget);
            *remaining -= spend;
            if budget.is_finite() {
                budget -= spend;
            }
            if *remaining <= 1e-12 {
                let b = &mut self.buckets[i];
                if t > b.tier {
                    b.tier = t;
                    retiered = true;
                    match t {
                        Tier::C1 => self.c1_compiles += b.methods as u64,
                        Tier::C2 => self.c2_compiles += b.methods as u64,
                        Tier::Interp => {}
                    }
                }
                if b.queued == Some(t) {
                    b.queued = None;
                }
                self.backlog.remove(k);
            } else {
                k += 1;
            }
        }
        if retiered {
            self.retier();
        }
        stall
    }

    /// Fraction of all retired work that ran at C2 speed.
    pub fn c2_work_fraction(&self) -> f64 {
        if self.total_work <= 0.0 {
            0.0
        } else {
            self.c2_work / self.total_work
        }
    }
}

/// The model as it was before runs were prepared, kept as the reference
/// the prepared model is tested against: it folds the Zipf weights on
/// every run and re-sums the tier shares on every call.
#[cfg(test)]
pub(crate) mod reference {
    use super::{
        inline_coverage, tier_speeds, Tier, TierSpeeds, BUCKETS, C1_COMPILE_RATE, C2_COMPILE_RATE,
        NATIVE_BYTES_PER_BYTECODE,
    };
    use crate::flagview::FlagView;
    use crate::workload::Workload;

    #[derive(Clone, Debug)]
    struct Bucket {
        /// Share of all dynamic calls landing in this bucket.
        call_share: f64,
        /// Methods in the bucket.
        methods: f64,
        /// Invocations accumulated per method.
        invocations: f64,
        tier: Tier,
        /// Tier queued for compilation (compile work already enqueued).
        queued: Option<Tier>,
    }

    /// Live JIT state during a run.
    #[derive(Clone, Debug)]
    pub struct JitModel {
        buckets: Vec<Bucket>,
        speeds: TierSpeeds,
        /// Outstanding compile work, in compiler-thread seconds.
        backlog: Vec<(usize, Tier, f64)>,
        code_cache_used: f64,
        code_cache_capacity: f64,
        compile_seconds_per_method_c1: f64,
        compile_seconds_per_method_c2: f64,
        native_bytes_per_method: f64,
        /// Counters for the outcome report.
        pub c1_compiles: u64,
        /// Counters for the outcome report.
        pub c2_compiles: u64,
        /// Compilations dropped to a full code cache.
        pub dropped: u64,
        /// Work retired at C2 speed (for `c2_work_fraction`).
        c2_work: f64,
        total_work: f64,
        tiered: bool,
        stop_at: Tier,
        use_compiler: bool,
        tier_up_c1: f64,
        tier_up_c2: f64,
        ci_threads: f64,
        background: bool,
        flushing: bool,
    }

    impl JitModel {
        /// Build the model for one run.
        pub fn new(view: &FlagView, wl: &Workload) -> JitModel {
            // Zipf weights over method ranks, folded into BUCKETS groups of
            // equal rank width.
            let n = wl.hot_methods.max(1) as usize;
            let s = wl.hotness_skew;
            let mut rank_w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
            let total: f64 = rank_w.iter().sum();
            for w in &mut rank_w {
                *w /= total;
            }
            let per = n.div_ceil(BUCKETS);
            let mut buckets = Vec::with_capacity(BUCKETS);
            for chunk in rank_w.chunks(per) {
                buckets.push(Bucket {
                    call_share: chunk.iter().sum(),
                    methods: chunk.len() as f64,
                    invocations: 0.0,
                    tier: Tier::Interp,
                    queued: None,
                });
            }

            // Inlining inflates C2 compile cost and code size.
            let cov = inline_coverage(view, wl);
            let expansion = 1.0 + 2.0 * cov;
            let msize = wl.mean_method_size;
            let stop_at = if !view.use_compiler || view.tiered_stop_level == 0 {
                Tier::Interp
            } else if view.tiered && view.tiered_stop_level <= 3 {
                Tier::C1
            } else {
                Tier::C2
            };
            // Thresholds: tiered uses the tier3/tier4 pair; the classic policy
            // compiles straight to C2 at CompileThreshold.
            let (t_c1, t_c2) = if view.tiered {
                (view.tier3_threshold, view.tier4_threshold)
            } else {
                (f64::INFINITY, view.compile_threshold)
            };
            JitModel {
                buckets,
                speeds: tier_speeds(view, wl),
                backlog: Vec::new(),
                code_cache_used: 0.0,
                code_cache_capacity: view.code_cache_size,
                compile_seconds_per_method_c1: msize / C1_COMPILE_RATE,
                compile_seconds_per_method_c2: msize * expansion / C2_COMPILE_RATE,
                native_bytes_per_method: msize * expansion * NATIVE_BYTES_PER_BYTECODE,
                c1_compiles: 0,
                c2_compiles: 0,
                dropped: 0,
                c2_work: 0.0,
                total_work: 0.0,
                tiered: view.tiered,
                stop_at,
                use_compiler: view.use_compiler && view.tiered_stop_level > 0,
                tier_up_c1: t_c1,
                tier_up_c2: t_c2,
                ci_threads: view.ci_compiler_count as f64,
                background: view.background_compilation,
                flushing: view.code_cache_flushing,
            }
        }

        /// Current mutator speed factor relative to the interpreter (≥ ~1).
        pub fn speed_factor(&self) -> f64 {
            let mut f = 0.0;
            for b in &self.buckets {
                let tier_speed = match b.tier {
                    Tier::Interp => self.speeds.interp,
                    Tier::C1 => self.speeds.c1,
                    Tier::C2 => self.speeds.c2,
                };
                f += b.call_share * tier_speed;
            }
            f.max(0.05)
        }

        /// Advance the model by `work` units retired over `dt_secs` of mutator
        /// time; `calls_per_unit` comes from the workload.
        ///
        /// Returns the foreground **stall seconds** to charge to the run
        /// (non-zero only with `-XX:-BackgroundCompilation`).
        pub fn advance(&mut self, work: f64, dt_secs: f64, calls_per_unit: f64) -> f64 {
            self.total_work += work;
            self.c2_work += work
                * self
                    .buckets
                    .iter()
                    .filter(|b| b.tier == Tier::C2)
                    .map(|b| b.call_share)
                    .sum::<f64>();
            if !self.use_compiler {
                return 0.0;
            }
            let calls = work * calls_per_unit;
            let mut stall = 0.0;
            // Threshold crossings enqueue compiles.
            for (i, b) in self.buckets.iter_mut().enumerate() {
                if b.methods == 0.0 || b.call_share == 0.0 {
                    continue;
                }
                b.invocations += calls * b.call_share / b.methods;
                let want = if self.tiered {
                    if b.tier == Tier::Interp && b.invocations >= self.tier_up_c1 {
                        Some(Tier::C1)
                    } else if b.tier <= Tier::C1
                        && b.invocations >= self.tier_up_c2
                        && self.stop_at == Tier::C2
                    {
                        Some(Tier::C2)
                    } else {
                        None
                    }
                } else if b.tier == Tier::Interp && b.invocations >= self.tier_up_c2 {
                    Some(Tier::C2)
                } else {
                    None
                };
                if let Some(t) = want {
                    let t = t.min(self.stop_at);
                    if t > b.tier && b.queued.is_none_or(|q| q < t) {
                        let per_method = match t {
                            Tier::C1 => self.compile_seconds_per_method_c1,
                            Tier::C2 => self.compile_seconds_per_method_c2,
                            Tier::Interp => 0.0,
                        };
                        // Code-cache space is reserved at enqueue time (the
                        // real allocator rejects compilations whose result the
                        // cache cannot hold).
                        let bytes = b.methods * self.native_bytes_per_method;
                        if self.code_cache_used + bytes > self.code_cache_capacity && !self.flushing
                        {
                            // Cache full, no sweeper: compilation stops.
                            self.dropped += b.methods as u64;
                            continue;
                        } else {
                            if self.code_cache_used + bytes > self.code_cache_capacity {
                                // Sweeper makes room at a small throughput cost,
                                // modelled as extra compile work; occupancy
                                // stays pinned at capacity.
                                self.backlog.push((i, t, 0.2 * per_method * b.methods));
                                self.code_cache_used = self.code_cache_capacity;
                            } else {
                                self.code_cache_used += bytes;
                            }
                            b.queued = Some(t);
                            let cost = per_method * b.methods;
                            self.backlog.push((i, t, cost));
                            if !self.background {
                                // Foreground compilation blocks the mutator for
                                // the full compile cost (spread over compiler
                                // threads).
                                stall += cost / self.ci_threads;
                            }
                        }
                    }
                }
            }
            // Serve the queue with CICompilerCount threads.
            let mut budget = dt_secs * self.ci_threads;
            if !self.background {
                // Foreground mode: everything already accounted as stall;
                // drain instantly.
                budget = f64::INFINITY;
            }
            let mut k = 0;
            while k < self.backlog.len() && budget > 0.0 {
                let (i, t, ref mut remaining) = self.backlog[k];
                let spend = remaining.min(budget);
                *remaining -= spend;
                if budget.is_finite() {
                    budget -= spend;
                }
                if *remaining <= 1e-12 {
                    let b = &mut self.buckets[i];
                    if t > b.tier {
                        b.tier = t;
                        match t {
                            Tier::C1 => self.c1_compiles += b.methods as u64,
                            Tier::C2 => self.c2_compiles += b.methods as u64,
                            Tier::Interp => {}
                        }
                    }
                    if b.queued == Some(t) {
                        b.queued = None;
                    }
                    self.backlog.remove(k);
                } else {
                    k += 1;
                }
            }
            stall
        }

        /// Fraction of all retired work that ran at C2 speed.
        pub fn c2_work_fraction(&self) -> f64 {
            if self.total_work <= 0.0 {
                0.0
            } else {
                self.c2_work / self.total_work
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use jtune_flags::{hotspot_registry, FlagValue, JvmConfig};

    fn view_with(sets: &[(&str, FlagValue)]) -> FlagView {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        for (n, v) in sets {
            c.set_by_name(r, n, *v).unwrap();
        }
        FlagView::resolve(r, &c, &Machine::default()).unwrap().0
    }

    fn drive(model: &mut JitModel, wl: &Workload, work: f64, steps: usize) {
        let per = work / steps as f64;
        for _ in 0..steps {
            // dt consistent with ~interpreter-ish speed; exact value only
            // matters for queue draining.
            model.advance(per, per / 100e6, wl.call_density);
        }
    }

    #[test]
    fn warmup_monotonically_speeds_up() {
        let view = view_with(&[]);
        let wl = Workload::baseline("w");
        let mut m = JitModel::new(&view, &wl);
        let s0 = m.speed_factor();
        assert!((s0 - tier_speeds(&view, &wl).interp).abs() < 1e-9);
        let mut last = s0;
        for _ in 0..50 {
            drive(&mut m, &wl, 2e8, 10);
            let s = m.speed_factor();
            assert!(s >= last - 1e-9, "speed regressed {last} -> {s}");
            last = s;
        }
        assert!(last > 3.0, "never warmed up: {last}");
    }

    #[test]
    fn tiered_warms_up_faster_early() {
        let wl = {
            let mut w = Workload::baseline("w");
            w.call_density = 0.01;
            w
        };
        let classic = view_with(&[]);
        let tiered = view_with(&[("TieredCompilation", FlagValue::Bool(true))]);
        let mut mc = JitModel::new(&classic, &wl);
        let mut mt = JitModel::new(&tiered, &wl);
        // Early in the run (well before the classic 10k threshold bites for
        // most buckets):
        drive(&mut mc, &wl, 3e8, 30);
        drive(&mut mt, &wl, 3e8, 30);
        assert!(
            mt.speed_factor() > mc.speed_factor(),
            "tiered {} vs classic {}",
            mt.speed_factor(),
            mc.speed_factor()
        );
    }

    #[test]
    fn lower_threshold_compiles_sooner() {
        let wl = Workload::baseline("w");
        let hi = view_with(&[("CompileThreshold", FlagValue::Int(100_000))]);
        let lo = view_with(&[("CompileThreshold", FlagValue::Int(500))]);
        let mut mhi = JitModel::new(&hi, &wl);
        let mut mlo = JitModel::new(&lo, &wl);
        drive(&mut mhi, &wl, 5e8, 50);
        drive(&mut mlo, &wl, 5e8, 50);
        assert!(mlo.speed_factor() > mhi.speed_factor());
    }

    #[test]
    fn interpreter_only_never_speeds_up() {
        let view = view_with(&[("UseCompiler", FlagValue::Bool(false))]);
        let wl = Workload::baseline("w");
        let mut m = JitModel::new(&view, &wl);
        drive(&mut m, &wl, 5e9, 100);
        assert!(m.speed_factor() <= 1.05);
        assert_eq!(m.c1_compiles + m.c2_compiles, 0);
    }

    #[test]
    fn inlining_off_hurts_call_dense_workloads() {
        let mut wl = Workload::baseline("w");
        wl.call_density = 0.03;
        let on = view_with(&[]);
        let off = view_with(&[("Inline", FlagValue::Bool(false))]);
        let s_on = tier_speeds(&on, &wl);
        let s_off = tier_speeds(&off, &wl);
        assert!(s_on.c2 > s_off.c2 * 1.1, "{} vs {}", s_on.c2, s_off.c2);
    }

    #[test]
    fn inline_coverage_monotone_in_thresholds() {
        let wl = Workload::baseline("w");
        let small = view_with(&[("MaxInlineSize", FlagValue::Int(5))]);
        let big = view_with(&[("MaxInlineSize", FlagValue::Int(200))]);
        assert!(inline_coverage(&big, &wl) > inline_coverage(&small, &wl));
    }

    #[test]
    fn tiny_code_cache_without_flushing_strands_methods() {
        let wl = Workload::baseline("w");
        let tiny = view_with(&[("ReservedCodeCacheSize", FlagValue::Int(2 << 20))]);
        let mut m = JitModel::new(&tiny, &wl);
        // Ensure the per-bucket footprint exceeds 2 MB at some point.
        drive(&mut m, &wl, 1e10, 200);
        let full = view_with(&[]);
        let mut mf = JitModel::new(&full, &wl);
        drive(&mut mf, &wl, 1e10, 200);
        assert!(
            m.speed_factor() <= mf.speed_factor(),
            "tiny cache should not beat a roomy one"
        );
    }

    #[test]
    fn foreground_compilation_reports_stalls() {
        let wl = Workload::baseline("w");
        let fg = view_with(&[("BackgroundCompilation", FlagValue::Bool(false))]);
        let mut m = JitModel::new(&fg, &wl);
        let mut stall = 0.0;
        for _ in 0..100 {
            stall += m.advance(1e8, 1.0, wl.call_density);
        }
        assert!(stall > 0.0, "no stalls with foreground compilation");
    }

    #[test]
    fn c2_work_fraction_grows() {
        let view = view_with(&[("TieredCompilation", FlagValue::Bool(true))]);
        let wl = Workload::baseline("w");
        let mut m = JitModel::new(&view, &wl);
        drive(&mut m, &wl, 1e8, 10);
        let early = m.c2_work_fraction();
        drive(&mut m, &wl, 2e10, 100);
        assert!(m.c2_work_fraction() > early);
        assert!(m.c2_work_fraction() <= 1.0);
    }

    #[test]
    fn stop_at_level_one_caps_at_c1() {
        let view = view_with(&[
            ("TieredCompilation", FlagValue::Bool(true)),
            ("TieredStopAtLevel", FlagValue::Int(1)),
        ]);
        let wl = Workload::baseline("w");
        let mut m = JitModel::new(&view, &wl);
        drive(&mut m, &wl, 2e10, 200);
        assert_eq!(m.c2_compiles, 0);
        assert!(m.c1_compiles > 0);
        let speeds = tier_speeds(&view, &wl);
        assert!(m.speed_factor() <= speeds.c1 + 1e-9);
    }
}
