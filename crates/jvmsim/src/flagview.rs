//! Typed, resolved view of the performance-relevant flags.
//!
//! [`FlagView::resolve`] reads a [`JvmConfig`] once per run and produces a
//! plain struct the simulation loop consumes — no name lookups or enum
//! matching in hot paths. It reads through a table of [`FlagId`]s that a
//! prepared run looks up once per registry, so resolving hashes no names.
//! Resolution also performs HotSpot's *ergonomics*:
//! `ParallelGCThreads = 0` becomes the machine-derived default,
//! `CMSInitiatingOccupancyFraction = -1` becomes the classic
//! `(100 - MinHeapFreeRatio) + …` formula, `-Xms > -Xmx` is corrected with
//! a warning, and so on.

use jtune_flags::{FlagId, JvmConfig, Registry};

use crate::machine::Machine;

/// Declares [`FlagIds`] with one field per flag name.
macro_rules! flag_ids {
    ($($name:ident)*) => {
        /// The [`FlagId`] of every flag [`FlagView`] reads, looked up by
        /// name once per registry: resolving a configuration then hashes
        /// no names.
        #[allow(non_snake_case)]
        #[derive(Clone, Debug)]
        pub(crate) struct FlagIds {
            $($name: FlagId,)*
        }

        impl FlagIds {
            /// Look every flag up in `registry`, which must define them all.
            pub(crate) fn new(registry: &Registry) -> FlagIds {
                FlagIds {
                    $($name: registry
                        .id(stringify!($name))
                        .unwrap_or_else(|| panic!("flag {} missing", stringify!($name))),)*
                }
            }
        }
    };
}

flag_ids! {
    UseSerialGC UseConcMarkSweepGC UseG1GC UseParallelGC UseParNewGC MaxHeapSize
    InitialHeapSize NewRatio NewSize MaxNewSize SurvivorRatio MaxTenuringThreshold
    ParallelGCThreads ConcGCThreads CMSInitiatingOccupancyFraction MinHeapFreeRatio
    CMSTriggerRatio G1HeapRegionSize UseCompressedOops AllocatePrefetchDistance
    TieredCompilation TargetSurvivorRatio NeverTenure AlwaysTenure AlwaysPreTouch
    UseAdaptiveSizePolicy MaxGCPauseMillis GCTimeRatio ParallelRefProcEnabled DisableExplicitGC
    UseCMSInitiatingOccupancyOnly CMSIncrementalMode CMSIncrementalDutyCycle
    CMSScavengeBeforeRemark CMSParallelRemarkEnabled UseCMSCompactAtFullCollection
    G1ReservePercent InitiatingHeapOccupancyPercent G1NewSizePercent G1MaxNewSizePercent
    G1HeapWastePercent G1MixedGCCountTarget G1EagerReclaimHumongousObjects UseCompiler
    TieredStopAtLevel CompileThreshold Tier3CompileThreshold Tier4CompileThreshold
    CICompilerCount BackgroundCompilation UseOnStackReplacement ProfileInterpreter
    DontCompileHugeMethods Inline MaxInlineSize FreqInlineSize InlineSmallCode MaxInlineLevel
    InlineAccessors InlineMathNatives ReservedCodeCacheSize UseCodeCacheFlushing
    DoEscapeAnalysis EliminateAllocations EliminateLocks UseSuperWord LoopUnrollLimit
    AggressiveOpts UseBiasedLocking BiasedLockingStartupDelay UseSpinning PreBlockSpin
    UseHeavyMonitors UseTLAB ResizeTLAB TLABSize TLABWasteTargetPercent ZeroTLAB
    ObjectAlignmentInBytes UseLargePages UseNUMA AllocatePrefetchStyle AllocatePrefetchLines
    GuaranteedSafepointInterval UseMembar UseSharedSpaces BytecodeVerificationRemote
    BytecodeVerificationLocal UseFastAccessorMethods StackTraceInThrowable
}

/// Which collector the configuration selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectorKind {
    /// `-XX:+UseSerialGC`.
    Serial,
    /// `-XX:+UseParallelGC` (the JDK-7 server default).
    Parallel,
    /// `-XX:+UseConcMarkSweepGC`.
    Cms,
    /// `-XX:+UseG1GC`.
    G1,
}

impl CollectorKind {
    /// Display name matching the option labels in `jtune-flagtree`.
    pub fn name(self) -> &'static str {
        match self {
            CollectorKind::Serial => "serial",
            CollectorKind::Parallel => "parallel",
            CollectorKind::Cms => "cms",
            CollectorKind::G1 => "g1",
        }
    }
}

/// Resolved snapshot of every flag the simulator reads.
#[derive(Clone, Debug)]
pub struct FlagView {
    // ---- heap ----
    /// Initial heap (bytes), after correction against `xmx`.
    pub xms: f64,
    /// Maximum heap (bytes).
    pub xmx: f64,
    /// Young-generation size (bytes), resolved from NewSize/MaxNewSize/
    /// NewRatio against `xmx`.
    pub young_size: f64,
    /// Eden-to-one-survivor ratio.
    pub survivor_ratio: f64,
    /// Target survivor occupancy percentage.
    pub target_survivor: f64,
    /// Maximum object age before tenuring.
    pub max_tenuring: u32,
    /// `NeverTenure` / `AlwaysTenure` (mutually overriding).
    pub never_tenure: bool,
    /// See `never_tenure`.
    pub always_tenure: bool,
    /// Touch heap pages at startup.
    pub always_pretouch: bool,

    // ---- collector ----
    /// The selected collector (first enabled wins: G1, CMS, serial, else
    /// parallel).
    pub collector: CollectorKind,
    /// STW parallel GC workers (resolved; ≥ 1).
    pub parallel_gc_threads: u32,
    /// Concurrent workers for CMS/G1 (resolved; ≥ 1).
    pub conc_gc_threads: u32,
    /// Parallel collector adaptive sizing.
    pub use_adaptive_size: bool,
    /// Pause goal in ms (parallel-adaptive and G1).
    pub max_gc_pause_ms: f64,
    /// Throughput goal: app/gc time ratio.
    pub gc_time_ratio: f64,
    /// Parallel reference processing.
    pub parallel_ref_proc: bool,
    /// `DisableExplicitGC` (the workload model has no System.gc calls, but
    /// the flag participates in validity tests).
    pub disable_explicit_gc: bool,

    // ---- CMS ----
    /// Occupancy percentage starting a CMS cycle (resolved from -1).
    pub cms_initiating: f64,
    /// Only use the occupancy trigger.
    pub cms_occupancy_only: bool,
    /// Incremental mode (duty-cycled concurrent work).
    pub cms_incremental: bool,
    /// i-CMS duty cycle percentage.
    pub cms_duty_cycle: f64,
    /// Scavenge before remark (shortens remark pauses).
    pub cms_scavenge_before_remark: bool,
    /// Parallel remark.
    pub cms_parallel_remark: bool,
    /// Compact on stop-the-world full collections.
    pub cms_compact_at_full: bool,

    // ---- G1 ----
    /// Region size in bytes (resolved from 0 = ergonomic).
    pub g1_region_size: f64,
    /// Reserve percentage.
    pub g1_reserve_pct: f64,
    /// Marking-trigger occupancy percentage.
    pub g1_ihop: f64,
    /// Young-gen bounds as heap percentages.
    pub g1_new_pct: f64,
    /// Upper bound of young gen as heap percentage.
    pub g1_max_new_pct: f64,
    /// Stop mixed GCs below this reclaimable percentage.
    pub g1_heap_waste_pct: f64,
    /// Mixed collections targeted after each marking.
    pub g1_mixed_count_target: u32,
    /// Eagerly reclaim dead humongous objects.
    pub g1_eager_humongous: bool,

    // ---- JIT ----
    /// Compiler enabled at all.
    pub use_compiler: bool,
    /// Tiered compilation.
    pub tiered: bool,
    /// Highest tier used (0 = interpreter only … 4 = C2).
    pub tiered_stop_level: u32,
    /// Classic-mode C2 threshold.
    pub compile_threshold: f64,
    /// Tiered C1 threshold.
    pub tier3_threshold: f64,
    /// Tiered C2 threshold.
    pub tier4_threshold: f64,
    /// Background compiler threads.
    pub ci_compiler_count: u32,
    /// Background (non-blocking) compilation.
    pub background_compilation: bool,
    /// On-stack replacement enabled.
    pub use_osr: bool,
    /// Interpreter profiling (slows interpretation slightly, improves C2).
    pub profile_interpreter: bool,
    /// Skip huge methods.
    pub dont_compile_huge: bool,

    // ---- inlining ----
    /// Master inlining switch.
    pub inline: bool,
    /// Max bytecode size of ordinary inline candidates.
    pub max_inline_size: f64,
    /// Max bytecode size of hot inline candidates.
    pub freq_inline_size: f64,
    /// Max native-code size of already-compiled inline candidates.
    pub inline_small_code: f64,
    /// Nesting depth limit.
    pub max_inline_level: u32,
    /// Trivial-accessor inlining.
    pub inline_accessors: bool,
    /// Math intrinsics.
    pub inline_math: bool,

    // ---- code cache ----
    /// Reserved code-cache bytes.
    pub code_cache_size: f64,
    /// Sweep cold code when full.
    pub code_cache_flushing: bool,

    // ---- optimisation ----
    /// Escape analysis master switch.
    pub escape_analysis: bool,
    /// Scalar replacement (requires escape analysis).
    pub eliminate_allocations: bool,
    /// Lock elision (requires escape analysis).
    pub eliminate_locks: bool,
    /// Auto-vectorisation.
    pub use_superword: bool,
    /// Unroll budget.
    pub loop_unroll_limit: f64,
    /// `AggressiveOpts` bundle.
    pub aggressive_opts: bool,

    // ---- runtime ----
    /// Biased locking.
    pub biased_locking: bool,
    /// Delay before biasing starts (ms).
    pub biased_delay_ms: f64,
    /// Spin before blocking.
    pub use_spinning: bool,
    /// Spin iterations.
    pub pre_block_spin: f64,
    /// Inflate all monitors.
    pub heavy_monitors: bool,
    /// TLAB allocation.
    pub use_tlab: bool,
    /// Adaptive TLAB sizing.
    pub resize_tlab: bool,
    /// Fixed TLAB size (0 = adaptive).
    pub tlab_size: f64,
    /// Eden waste target percentage.
    pub tlab_waste_target: f64,
    /// Eager TLAB zeroing.
    pub zero_tlab: bool,
    /// Compressed oops (auto-disabled above 32 GB heaps).
    pub compressed_oops: bool,
    /// Object alignment (bytes).
    pub object_alignment: u32,
    /// Large pages requested.
    pub large_pages: bool,
    /// NUMA-aware allocation.
    pub use_numa: bool,
    /// Allocation prefetch style (0-3).
    pub prefetch_style: u32,
    /// Prefetch distance in bytes (resolved from -1).
    pub prefetch_distance: f64,
    /// Lines prefetched.
    pub prefetch_lines: f64,
    /// Guaranteed safepoint interval (ms; 0 = disabled).
    pub safepoint_interval_ms: f64,
    /// Real memory barriers on state transitions.
    pub use_membar: bool,
    /// CDS mapped (faster startup when the archive exists).
    pub shared_spaces: bool,
    /// Verify remotely loaded classes.
    pub verify_remote: bool,
    /// Verify locally loaded classes (slows startup).
    pub verify_local: bool,
    /// Fast JNI accessors / fast accessor methods.
    pub fast_accessors: bool,
    /// Record stack traces in throwables.
    pub stack_traces: bool,
}

impl FlagView {
    /// Resolve `config` against `registry` for `machine`.
    ///
    /// Returns the view plus the HotSpot-style correction warnings, or an
    /// error string when the configuration is unusable (mirrors a JVM that
    /// refuses to start).
    pub fn resolve(
        registry: &Registry,
        config: &JvmConfig,
        machine: &Machine,
    ) -> Result<(FlagView, Vec<String>), String> {
        FlagView::resolve_ids(&FlagIds::new(registry), config, machine)
    }

    /// [`FlagView::resolve`] through ids looked up beforehand: a prepared
    /// run resolves every configuration with one table.
    pub(crate) fn resolve_ids(
        ids: &FlagIds,
        config: &JvmConfig,
        machine: &Machine,
    ) -> Result<(FlagView, Vec<String>), String> {
        let mut warnings = Vec::new();
        let b = |id: FlagId| -> bool {
            config
                .get(id)
                .as_bool()
                .unwrap_or_else(|| panic!("flag {id:?} is not bool"))
        };
        let int = |id: FlagId| -> f64 {
            config
                .get(id)
                .as_int()
                .unwrap_or_else(|| panic!("flag {id:?} is not int")) as f64
        };

        // Collector selection. Like real HotSpot, *conflicting collector
        // combinations are fatal*: enabling more than one of the exclusive
        // selection flags refuses to start ("Conflicting collector
        // combinations in option list"). This is exactly the dependency
        // problem the paper's flag hierarchy exists to resolve — a
        // structure-blind tuner pays for it in crashed evaluations.
        let exclusive = [
            b(ids.UseSerialGC),
            b(ids.UseConcMarkSweepGC),
            b(ids.UseG1GC),
        ];
        let enabled = exclusive.iter().filter(|&&x| x).count()
            + (b(ids.UseParallelGC) && (exclusive[0] || exclusive[1] || exclusive[2])) as usize;
        if enabled > 1 {
            return Err("Conflicting collector combinations in option list".into());
        }
        if b(ids.UseParNewGC) && !b(ids.UseConcMarkSweepGC) {
            return Err("UseParNewGC is only valid with UseConcMarkSweepGC".into());
        }
        let collector = if b(ids.UseG1GC) {
            CollectorKind::G1
        } else if b(ids.UseConcMarkSweepGC) {
            CollectorKind::Cms
        } else if b(ids.UseSerialGC) {
            CollectorKind::Serial
        } else {
            CollectorKind::Parallel
        };

        // Heap sizing.
        let xmx = int(ids.MaxHeapSize);
        if xmx <= 0.0 {
            return Err("MaxHeapSize must be positive".into());
        }
        let mut xms = int(ids.InitialHeapSize);
        if xms > xmx {
            warnings.push(format!(
                "InitialHeapSize ({xms}) larger than MaxHeapSize ({xmx}); using MaxHeapSize"
            ));
            xms = xmx;
        }

        // Young generation: explicit NewSize/MaxNewSize beat NewRatio.
        let new_ratio = int(ids.NewRatio).max(1.0);
        let by_ratio = xmx / (new_ratio + 1.0);
        let new_size = int(ids.NewSize);
        let max_new = int(ids.MaxNewSize);
        let mut young = if max_new < xmx {
            // User constrained the young gen explicitly.
            max_new.min(by_ratio.max(new_size))
        } else {
            by_ratio
        };
        young = young.clamp(1e6, 0.95 * xmx);

        let survivor_ratio = int(ids.SurvivorRatio).max(1.0);
        let max_tenuring = int(ids.MaxTenuringThreshold).clamp(0.0, 15.0) as u32;

        // GC threads.
        let pgct = int(ids.ParallelGCThreads) as u32;
        let parallel_gc_threads = if pgct == 0 {
            machine.default_parallel_gc_threads()
        } else {
            pgct
        }
        .max(1);
        let cgct = int(ids.ConcGCThreads) as u32;
        let conc_gc_threads = if cgct == 0 {
            parallel_gc_threads.div_ceil(4)
        } else {
            cgct
        }
        .max(1);

        // CMS trigger: -1 resolves to the classic ergonomic formula.
        let cms_raw = int(ids.CMSInitiatingOccupancyFraction);
        let cms_initiating = if cms_raw < 0.0 {
            let min_free = int(ids.MinHeapFreeRatio);
            ((100.0 - min_free) + (int(ids.CMSTriggerRatio) / 100.0) * min_free).clamp(0.0, 100.0)
        } else {
            cms_raw
        };

        // G1 region size: 0 resolves ergonomically to heap/2048 clamped to
        // [1 MB, 32 MB], rounded to a power of two.
        let g1_raw = int(ids.G1HeapRegionSize);
        let g1_region_size = if g1_raw <= 0.0 {
            let target = (xmx / 2048.0).clamp(1e6, 32.0 * 1024.0 * 1024.0);
            2f64.powf(target.log2().round())
                .clamp(1048576.0, 33554432.0)
        } else {
            g1_raw.max(1048576.0)
        };

        // Compressed oops are unusable above ~32 GB.
        let mut compressed_oops = b(ids.UseCompressedOops);
        if compressed_oops && xmx > 32.0 * (1u64 << 30) as f64 {
            warnings.push("UseCompressedOops disabled: heap exceeds 32 GB".into());
            compressed_oops = false;
        }

        let prefetch_distance_raw = int(ids.AllocatePrefetchDistance);
        let prefetch_distance = if prefetch_distance_raw < 0.0 {
            192.0
        } else {
            prefetch_distance_raw
        };

        let tiered = b(ids.TieredCompilation);
        let view = FlagView {
            xms,
            xmx,
            young_size: young,
            survivor_ratio,
            target_survivor: int(ids.TargetSurvivorRatio),
            max_tenuring,
            never_tenure: b(ids.NeverTenure),
            always_tenure: b(ids.AlwaysTenure),
            always_pretouch: b(ids.AlwaysPreTouch),
            collector,
            parallel_gc_threads,
            conc_gc_threads,
            use_adaptive_size: b(ids.UseAdaptiveSizePolicy),
            max_gc_pause_ms: int(ids.MaxGCPauseMillis),
            gc_time_ratio: int(ids.GCTimeRatio).max(1.0),
            parallel_ref_proc: b(ids.ParallelRefProcEnabled),
            disable_explicit_gc: b(ids.DisableExplicitGC),
            cms_initiating,
            cms_occupancy_only: b(ids.UseCMSInitiatingOccupancyOnly),
            cms_incremental: b(ids.CMSIncrementalMode),
            cms_duty_cycle: int(ids.CMSIncrementalDutyCycle),
            cms_scavenge_before_remark: b(ids.CMSScavengeBeforeRemark),
            cms_parallel_remark: b(ids.CMSParallelRemarkEnabled),
            cms_compact_at_full: b(ids.UseCMSCompactAtFullCollection),
            g1_region_size,
            g1_reserve_pct: int(ids.G1ReservePercent),
            g1_ihop: int(ids.InitiatingHeapOccupancyPercent),
            g1_new_pct: int(ids.G1NewSizePercent),
            g1_max_new_pct: int(ids.G1MaxNewSizePercent),
            g1_heap_waste_pct: int(ids.G1HeapWastePercent),
            g1_mixed_count_target: int(ids.G1MixedGCCountTarget).max(1.0) as u32,
            g1_eager_humongous: b(ids.G1EagerReclaimHumongousObjects),
            use_compiler: b(ids.UseCompiler),
            tiered,
            tiered_stop_level: int(ids.TieredStopAtLevel).clamp(0.0, 4.0) as u32,
            compile_threshold: int(ids.CompileThreshold).max(1.0),
            tier3_threshold: int(ids.Tier3CompileThreshold).max(1.0),
            tier4_threshold: int(ids.Tier4CompileThreshold).max(1.0),
            ci_compiler_count: (int(ids.CICompilerCount) as u32).max(1),
            background_compilation: b(ids.BackgroundCompilation),
            use_osr: b(ids.UseOnStackReplacement),
            profile_interpreter: b(ids.ProfileInterpreter),
            dont_compile_huge: b(ids.DontCompileHugeMethods),
            inline: b(ids.Inline),
            max_inline_size: int(ids.MaxInlineSize),
            freq_inline_size: int(ids.FreqInlineSize),
            inline_small_code: int(ids.InlineSmallCode),
            max_inline_level: int(ids.MaxInlineLevel) as u32,
            inline_accessors: b(ids.InlineAccessors),
            inline_math: b(ids.InlineMathNatives),
            code_cache_size: int(ids.ReservedCodeCacheSize),
            code_cache_flushing: b(ids.UseCodeCacheFlushing),
            escape_analysis: b(ids.DoEscapeAnalysis),
            eliminate_allocations: b(ids.EliminateAllocations),
            eliminate_locks: b(ids.EliminateLocks),
            use_superword: b(ids.UseSuperWord),
            loop_unroll_limit: int(ids.LoopUnrollLimit),
            aggressive_opts: b(ids.AggressiveOpts),
            biased_locking: b(ids.UseBiasedLocking),
            biased_delay_ms: int(ids.BiasedLockingStartupDelay),
            use_spinning: b(ids.UseSpinning),
            pre_block_spin: int(ids.PreBlockSpin),
            heavy_monitors: b(ids.UseHeavyMonitors),
            use_tlab: b(ids.UseTLAB),
            resize_tlab: b(ids.ResizeTLAB),
            tlab_size: int(ids.TLABSize),
            tlab_waste_target: int(ids.TLABWasteTargetPercent),
            zero_tlab: b(ids.ZeroTLAB),
            compressed_oops,
            object_alignment: int(ids.ObjectAlignmentInBytes) as u32,
            large_pages: b(ids.UseLargePages),
            use_numa: b(ids.UseNUMA),
            prefetch_style: int(ids.AllocatePrefetchStyle) as u32,
            prefetch_distance,
            prefetch_lines: int(ids.AllocatePrefetchLines),
            safepoint_interval_ms: int(ids.GuaranteedSafepointInterval),
            use_membar: b(ids.UseMembar),
            shared_spaces: b(ids.UseSharedSpaces),
            verify_remote: b(ids.BytecodeVerificationRemote),
            verify_local: b(ids.BytecodeVerificationLocal),
            fast_accessors: b(ids.UseFastAccessorMethods),
            stack_traces: b(ids.StackTraceInThrowable),
        };
        Ok((view, warnings))
    }

    /// Eden size implied by young size and survivor ratio.
    pub fn eden_size(&self) -> f64 {
        self.young_size * self.survivor_ratio / (self.survivor_ratio + 2.0)
    }

    /// Size of one survivor space.
    pub fn survivor_size(&self) -> f64 {
        self.young_size / (self.survivor_ratio + 2.0)
    }

    /// Old-generation capacity.
    pub fn old_size(&self) -> f64 {
        (self.xmx - self.young_size).max(0.0)
    }
}

/// Resolution by name as it was before runs were prepared, kept as the
/// reference [`FlagView::resolve_ids`] is tested against.
#[cfg(test)]
impl FlagView {
    pub(crate) fn reference_resolve(
        registry: &Registry,
        config: &JvmConfig,
        machine: &Machine,
    ) -> Result<(FlagView, Vec<String>), String> {
        let mut warnings = Vec::new();
        let b = |name: &str| -> bool {
            config
                .get_by_name(registry, name)
                .and_then(|v| v.as_bool())
                .unwrap_or_else(|| panic!("flag {name} missing or not bool"))
        };
        let int = |name: &str| -> f64 {
            config
                .get_by_name(registry, name)
                .and_then(|v| v.as_int())
                .unwrap_or_else(|| panic!("flag {name} missing or not int")) as f64
        };

        // Collector selection. Like real HotSpot, *conflicting collector
        // combinations are fatal*: enabling more than one of the exclusive
        // selection flags refuses to start ("Conflicting collector
        // combinations in option list"). This is exactly the dependency
        // problem the paper's flag hierarchy exists to resolve — a
        // structure-blind tuner pays for it in crashed evaluations.
        let exclusive = [b("UseSerialGC"), b("UseConcMarkSweepGC"), b("UseG1GC")];
        let enabled = exclusive.iter().filter(|&&x| x).count()
            + (b("UseParallelGC") && (exclusive[0] || exclusive[1] || exclusive[2])) as usize;
        if enabled > 1 {
            return Err("Conflicting collector combinations in option list".into());
        }
        if b("UseParNewGC") && !b("UseConcMarkSweepGC") {
            return Err("UseParNewGC is only valid with UseConcMarkSweepGC".into());
        }
        let collector = if b("UseG1GC") {
            CollectorKind::G1
        } else if b("UseConcMarkSweepGC") {
            CollectorKind::Cms
        } else if b("UseSerialGC") {
            CollectorKind::Serial
        } else {
            CollectorKind::Parallel
        };

        // Heap sizing.
        let xmx = int("MaxHeapSize");
        if xmx <= 0.0 {
            return Err("MaxHeapSize must be positive".into());
        }
        let mut xms = int("InitialHeapSize");
        if xms > xmx {
            warnings.push(format!(
                "InitialHeapSize ({xms}) larger than MaxHeapSize ({xmx}); using MaxHeapSize"
            ));
            xms = xmx;
        }

        // Young generation: explicit NewSize/MaxNewSize beat NewRatio.
        let new_ratio = int("NewRatio").max(1.0);
        let by_ratio = xmx / (new_ratio + 1.0);
        let new_size = int("NewSize");
        let max_new = int("MaxNewSize");
        let mut young = if max_new < xmx {
            // User constrained the young gen explicitly.
            max_new.min(by_ratio.max(new_size))
        } else {
            by_ratio
        };
        young = young.clamp(1e6, 0.95 * xmx);

        let survivor_ratio = int("SurvivorRatio").max(1.0);
        let max_tenuring = int("MaxTenuringThreshold").clamp(0.0, 15.0) as u32;

        // GC threads.
        let pgct = int("ParallelGCThreads") as u32;
        let parallel_gc_threads = if pgct == 0 {
            machine.default_parallel_gc_threads()
        } else {
            pgct
        }
        .max(1);
        let cgct = int("ConcGCThreads") as u32;
        let conc_gc_threads = if cgct == 0 {
            parallel_gc_threads.div_ceil(4)
        } else {
            cgct
        }
        .max(1);

        // CMS trigger: -1 resolves to the classic ergonomic formula.
        let cms_raw = int("CMSInitiatingOccupancyFraction");
        let cms_initiating = if cms_raw < 0.0 {
            let min_free = int("MinHeapFreeRatio");
            ((100.0 - min_free) + (int("CMSTriggerRatio") / 100.0) * min_free).clamp(0.0, 100.0)
        } else {
            cms_raw
        };

        // G1 region size: 0 resolves ergonomically to heap/2048 clamped to
        // [1 MB, 32 MB], rounded to a power of two.
        let g1_raw = int("G1HeapRegionSize");
        let g1_region_size = if g1_raw <= 0.0 {
            let target = (xmx / 2048.0).clamp(1e6, 32.0 * 1024.0 * 1024.0);
            2f64.powf(target.log2().round())
                .clamp(1048576.0, 33554432.0)
        } else {
            g1_raw.max(1048576.0)
        };

        // Compressed oops are unusable above ~32 GB.
        let mut compressed_oops = b("UseCompressedOops");
        if compressed_oops && xmx > 32.0 * (1u64 << 30) as f64 {
            warnings.push("UseCompressedOops disabled: heap exceeds 32 GB".into());
            compressed_oops = false;
        }

        let prefetch_distance_raw = int("AllocatePrefetchDistance");
        let prefetch_distance = if prefetch_distance_raw < 0.0 {
            192.0
        } else {
            prefetch_distance_raw
        };

        let tiered = b("TieredCompilation");
        let view = FlagView {
            xms,
            xmx,
            young_size: young,
            survivor_ratio,
            target_survivor: int("TargetSurvivorRatio"),
            max_tenuring,
            never_tenure: b("NeverTenure"),
            always_tenure: b("AlwaysTenure"),
            always_pretouch: b("AlwaysPreTouch"),
            collector,
            parallel_gc_threads,
            conc_gc_threads,
            use_adaptive_size: b("UseAdaptiveSizePolicy"),
            max_gc_pause_ms: int("MaxGCPauseMillis"),
            gc_time_ratio: int("GCTimeRatio").max(1.0),
            parallel_ref_proc: b("ParallelRefProcEnabled"),
            disable_explicit_gc: b("DisableExplicitGC"),
            cms_initiating,
            cms_occupancy_only: b("UseCMSInitiatingOccupancyOnly"),
            cms_incremental: b("CMSIncrementalMode"),
            cms_duty_cycle: int("CMSIncrementalDutyCycle"),
            cms_scavenge_before_remark: b("CMSScavengeBeforeRemark"),
            cms_parallel_remark: b("CMSParallelRemarkEnabled"),
            cms_compact_at_full: b("UseCMSCompactAtFullCollection"),
            g1_region_size,
            g1_reserve_pct: int("G1ReservePercent"),
            g1_ihop: int("InitiatingHeapOccupancyPercent"),
            g1_new_pct: int("G1NewSizePercent"),
            g1_max_new_pct: int("G1MaxNewSizePercent"),
            g1_heap_waste_pct: int("G1HeapWastePercent"),
            g1_mixed_count_target: int("G1MixedGCCountTarget").max(1.0) as u32,
            g1_eager_humongous: b("G1EagerReclaimHumongousObjects"),
            use_compiler: b("UseCompiler"),
            tiered,
            tiered_stop_level: int("TieredStopAtLevel").clamp(0.0, 4.0) as u32,
            compile_threshold: int("CompileThreshold").max(1.0),
            tier3_threshold: int("Tier3CompileThreshold").max(1.0),
            tier4_threshold: int("Tier4CompileThreshold").max(1.0),
            ci_compiler_count: (int("CICompilerCount") as u32).max(1),
            background_compilation: b("BackgroundCompilation"),
            use_osr: b("UseOnStackReplacement"),
            profile_interpreter: b("ProfileInterpreter"),
            dont_compile_huge: b("DontCompileHugeMethods"),
            inline: b("Inline"),
            max_inline_size: int("MaxInlineSize"),
            freq_inline_size: int("FreqInlineSize"),
            inline_small_code: int("InlineSmallCode"),
            max_inline_level: int("MaxInlineLevel") as u32,
            inline_accessors: b("InlineAccessors"),
            inline_math: b("InlineMathNatives"),
            code_cache_size: int("ReservedCodeCacheSize"),
            code_cache_flushing: b("UseCodeCacheFlushing"),
            escape_analysis: b("DoEscapeAnalysis"),
            eliminate_allocations: b("EliminateAllocations"),
            eliminate_locks: b("EliminateLocks"),
            use_superword: b("UseSuperWord"),
            loop_unroll_limit: int("LoopUnrollLimit"),
            aggressive_opts: b("AggressiveOpts"),
            biased_locking: b("UseBiasedLocking"),
            biased_delay_ms: int("BiasedLockingStartupDelay"),
            use_spinning: b("UseSpinning"),
            pre_block_spin: int("PreBlockSpin"),
            heavy_monitors: b("UseHeavyMonitors"),
            use_tlab: b("UseTLAB"),
            resize_tlab: b("ResizeTLAB"),
            tlab_size: int("TLABSize"),
            tlab_waste_target: int("TLABWasteTargetPercent"),
            zero_tlab: b("ZeroTLAB"),
            compressed_oops,
            object_alignment: int("ObjectAlignmentInBytes") as u32,
            large_pages: b("UseLargePages"),
            use_numa: b("UseNUMA"),
            prefetch_style: int("AllocatePrefetchStyle") as u32,
            prefetch_distance,
            prefetch_lines: int("AllocatePrefetchLines"),
            safepoint_interval_ms: int("GuaranteedSafepointInterval"),
            use_membar: b("UseMembar"),
            shared_spaces: b("UseSharedSpaces"),
            verify_remote: b("BytecodeVerificationRemote"),
            verify_local: b("BytecodeVerificationLocal"),
            fast_accessors: b("UseFastAccessorMethods"),
            stack_traces: b("StackTraceInThrowable"),
        };
        Ok((view, warnings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_flags::{hotspot_registry, FlagValue};

    fn default_view() -> FlagView {
        let r = hotspot_registry();
        let c = JvmConfig::default_for(r);
        FlagView::resolve(r, &c, &Machine::default()).unwrap().0
    }

    #[test]
    fn default_resolves_to_parallel_classic() {
        let v = default_view();
        assert_eq!(v.collector, CollectorKind::Parallel);
        assert!(!v.tiered);
        assert_eq!(v.parallel_gc_threads, 8);
        assert_eq!(v.conc_gc_threads, 2);
        assert!(v.compressed_oops);
    }

    #[test]
    fn heap_geometry_from_defaults() {
        let v = default_view();
        assert_eq!(v.xmx, (1u64 << 30) as f64);
        // NewRatio = 2 → young = xmx / 3.
        assert!((v.young_size - v.xmx / 3.0).abs() < 1.0);
        assert!(v.eden_size() > v.survivor_size());
        assert!((v.eden_size() + 2.0 * v.survivor_size() - v.young_size).abs() < 1.0);
        assert!((v.old_size() + v.young_size - v.xmx).abs() < 1.0);
    }

    #[test]
    fn xms_greater_than_xmx_corrected_with_warning() {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "MaxHeapSize", FlagValue::Int(64 << 20))
            .unwrap();
        c.set_by_name(r, "InitialHeapSize", FlagValue::Int(256 << 20))
            .unwrap();
        let (v, warnings) = FlagView::resolve(r, &c, &Machine::default()).unwrap();
        assert_eq!(v.xms, v.xmx);
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn conflicting_collectors_refuse_to_start() {
        // Real HotSpot exits with "Conflicting collector combinations";
        // so do we. (The flag hierarchy exists so the tuner never produces
        // such configurations.)
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "UseG1GC", FlagValue::Bool(true)).unwrap();
        // UseParallelGC is still on from the defaults.
        let err = FlagView::resolve(r, &c, &Machine::default()).unwrap_err();
        assert!(err.contains("Conflicting collector"), "{err}");
        // Disabling the default collector resolves the conflict.
        c.set_by_name(r, "UseParallelGC", FlagValue::Bool(false))
            .unwrap();
        c.set_by_name(r, "UseParallelOldGC", FlagValue::Bool(false))
            .unwrap();
        let (v, _) = FlagView::resolve(r, &c, &Machine::default()).unwrap();
        assert_eq!(v.collector, CollectorKind::G1);
    }

    #[test]
    fn parnew_requires_cms() {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "UseParNewGC", FlagValue::Bool(true))
            .unwrap();
        let err = FlagView::resolve(r, &c, &Machine::default()).unwrap_err();
        assert!(err.contains("UseParNewGC"), "{err}");
    }

    #[test]
    fn cms_ergonomic_trigger_resolves() {
        let v = default_view();
        // MinHeapFreeRatio=40, CMSTriggerRatio=80 → 60 + 0.8*40 = 92.
        assert!((v.cms_initiating - 92.0).abs() < 1e-9);
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "CMSInitiatingOccupancyFraction", FlagValue::Int(55))
            .unwrap();
        let (v, _) = FlagView::resolve(r, &c, &Machine::default()).unwrap();
        assert_eq!(v.cms_initiating, 55.0);
    }

    #[test]
    fn g1_region_ergonomics() {
        let v = default_view();
        // 1 GB heap / 2048 = 512 KB → clamped to 1 MB.
        assert_eq!(v.g1_region_size, 1048576.0);
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "MaxHeapSize", FlagValue::Int(16 << 30))
            .unwrap();
        let (v, _) = FlagView::resolve(r, &c, &Machine::default()).unwrap();
        // 16 GB / 2048 = 8 MB.
        assert_eq!(v.g1_region_size, 8.0 * 1048576.0);
    }

    #[test]
    fn huge_heap_disables_compressed_oops() {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        // Above the 32 GB compressed-oops ceiling (33 GB fits the domain's
        // 32 GiB hi? MaxHeapSize hi is 32 GB, so use exactly the boundary).
        c.set_by_name(r, "MaxHeapSize", FlagValue::Int(32 << 30))
            .unwrap();
        let (v, _) = FlagView::resolve(r, &c, &Machine::default()).unwrap();
        // 32 GB is not *above* the ceiling; oops stay on.
        assert!(v.compressed_oops);
        assert!((v.xmx - (32u64 << 30) as f64).abs() < 1.0);
    }

    #[test]
    fn prefetch_distance_default_resolves() {
        let v = default_view();
        assert_eq!(v.prefetch_distance, 192.0);
    }

    #[test]
    fn explicit_new_size_constrains_young_gen() {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        c.set_by_name(r, "MaxNewSize", FlagValue::Int(64 << 20))
            .unwrap();
        let (v, _) = FlagView::resolve(r, &c, &Machine::default()).unwrap();
        assert!(v.young_size <= (64u64 << 20) as f64 + 1.0);
    }
}
