//! The simulation engine: the epoch loop tying JIT, GC and runtime models
//! together over a virtual clock.

use jtune_flags::{JvmConfig, Registry};
use jtune_util::{SimDuration, SimTime};

use crate::flagview::{FlagIds, FlagView};
use crate::gc::{GcEvent, GcEventKind, GcModel};
use crate::jit::{self, JitModel};
use crate::machine::Machine;
use crate::noise::NoiseModel;
use crate::outcome::{GcStats, JitStats, RunFailure, RunOutcome, TimeBreakdown};
use crate::runtime;
use crate::workload::Workload;

/// Work units per second per thread in the interpreter.
pub const INTERP_UNITS_PER_SEC: f64 = 50e6;
/// C1 speedup over the interpreter (before flag modulation).
pub const C1_SPEEDUP: f64 = 5.0;
/// C2 speedup over the interpreter (before flag modulation).
pub const C2_SPEEDUP: f64 = 12.0;
/// Upper bound on one epoch of virtual time.
const MAX_EPOCH_SECS: f64 = 0.05;
/// Hard iteration cap: no legitimate run needs this many epochs; hitting
/// it means a degenerate configuration, which we surface as a failure.
const MAX_EPOCHS: u64 = 3_000_000;

/// The simulated JVM.
#[derive(Clone, Debug, Default)]
pub struct JvmSim {
    machine: Machine,
}

impl JvmSim {
    /// A JVM on the default 8-core machine.
    pub fn new() -> JvmSim {
        JvmSim::default()
    }

    /// A JVM on a specific machine.
    pub fn on(machine: Machine) -> JvmSim {
        JvmSim { machine }
    }

    /// The machine this JVM runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Prepare runs of `workload` under configurations from `registry`:
    /// look up the flag ids and fold the workload's hot methods into
    /// buckets once, for every run that follows.
    pub fn prepare(&self, registry: &Registry, workload: Workload) -> PreparedRun {
        debug_assert!(workload.validate().is_ok(), "invalid workload");
        PreparedRun {
            machine: self.machine.clone(),
            ids: FlagIds::new(registry),
            buckets: jit::zipf_buckets(&workload),
            workload,
        }
    }

    /// Execute `workload` under `config`. `seed` drives the measurement
    /// noise (and only the noise): same seed, same outcome. Prepares the
    /// run first; callers that run one workload many times keep a
    /// [`PreparedRun`] instead.
    pub fn run(
        &self,
        registry: &Registry,
        config: &JvmConfig,
        workload: &Workload,
        seed: u64,
    ) -> RunOutcome {
        self.prepare(registry, workload.clone()).run(config, seed)
    }
}

/// Runs of one workload on one machine, prepared by [`JvmSim::prepare`]:
/// it holds what every run would otherwise recompute, the registry ids of
/// the flags [`FlagView`] reads and the workload's call-share buckets.
/// Both come out of the same operations in the same order as a run
/// computing them itself would use, so a prepared run gives the same bits.
#[derive(Clone, Debug)]
pub struct PreparedRun {
    machine: Machine,
    workload: Workload,
    ids: FlagIds,
    buckets: Vec<(f64, f64)>,
}

impl PreparedRun {
    /// The workload being run.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Execute the workload under `config`, which must come from the
    /// registry the run was prepared with. `seed` drives the measurement
    /// noise (and only the noise): same seed, same outcome.
    pub fn run(&self, config: &JvmConfig, seed: u64) -> RunOutcome {
        let (machine, workload) = (&self.machine, &self.workload);
        let mut noise = NoiseModel::new(seed ^ config.fingerprint());

        let (view, warnings) = match FlagView::resolve_ids(&self.ids, config, machine) {
            Ok(v) => v,
            Err(why) => {
                return RunOutcome {
                    total: SimDuration::ZERO,
                    breakdown: TimeBreakdown::default(),
                    gc: GcStats::default(),
                    jit: JitStats::default(),
                    peak_heap: 0.0,
                    warnings: Vec::new(),
                    failure: Some(RunFailure::InvalidConfig(why)),
                }
            }
        };

        let mut breakdown = TimeBreakdown {
            startup: runtime::startup_time(&view, workload, machine),
            ..TimeBreakdown::default()
        };

        let mut jit = JitModel::with_buckets(&view, workload, &self.buckets);
        let mut gc = GcModel::new(&view, workload, machine);
        let mut gc_stats = GcStats::default();
        // One buffer for every epoch's stop-the-world events.
        let mut events = Vec::new();

        let mutator_factor = runtime::mutator_factor(&view, workload, machine);
        let waste = runtime::allocation_waste(&view);
        let sp_overhead = runtime::safepoint_overhead(&view, workload);

        // Effective application parallelism.
        let threads = workload.threads.min(machine.cores * 4) as f64;
        let app_parallelism = (threads.min(machine.cores as f64))
            * if workload.threads > machine.cores {
                0.95
            } else {
                1.0
            };

        let mut work_done = 0.0;
        let mut drag = 0.0;
        let mut failure = None;
        let mut clock = SimTime::ZERO + breakdown.startup;

        let mut epochs: u64 = 0;
        while work_done < workload.total_work {
            epochs += 1;
            if epochs > MAX_EPOCHS {
                failure = Some(RunFailure::InvalidConfig(
                    "configuration makes no forward progress".into(),
                ));
                break;
            }
            // Memory pressure: committed heap beyond physical memory swaps.
            let committed = gc.committed() + view.code_cache_size + 200e6;
            let mem = machine.memory as f64;
            let swap_factor = if committed > 0.9 * mem {
                1.0 / (1.0 + 6.0 * ((committed - 0.9 * mem) / mem))
            } else {
                1.0
            };

            let speed = INTERP_UNITS_PER_SEC
                * jit.speed_factor()
                * mutator_factor
                * app_parallelism
                * (1.0 - drag)
                * swap_factor;
            debug_assert!(speed > 0.0);

            // Epoch length: bounded by eden exhaustion and the epoch cap.
            let remaining = workload.total_work - work_done;
            let mut epoch_work = (speed * MAX_EPOCH_SECS).min(remaining);
            if workload.alloc_rate > 0.0 {
                let until_gc = gc.eden_room() / (workload.alloc_rate * waste) + 1.0;
                epoch_work = epoch_work.min(until_gc);
            }
            epoch_work = epoch_work.max(remaining.min(1000.0));
            let dt = epoch_work / speed;

            work_done += epoch_work;
            breakdown.mutator += SimDuration::from_secs_f64(dt * (1.0 - drag));
            breakdown.gc_concurrent_drag += SimDuration::from_secs_f64(dt * drag);
            breakdown.safepoint += SimDuration::from_secs_f64(dt * sp_overhead);
            clock += SimDuration::from_secs_f64(dt * (1.0 + sp_overhead));

            // JIT progress (possibly stalling the mutator).
            let stall = jit.advance(epoch_work, dt, workload.call_density);
            breakdown.jit_stall += SimDuration::from_secs_f64(stall);
            clock += SimDuration::from_secs_f64(stall);

            // Allocation, then concurrent GC progress, → GC events. The
            // events of a failed allocation are never charged.
            events.clear();
            if let Err(f) = gc.allocate(epoch_work * workload.alloc_rate * waste, &mut events) {
                failure = Some(f);
                break;
            }
            drag = gc.tick_concurrent(dt, &mut events);
            absorb(&mut breakdown, &mut gc_stats, &mut clock, &events);
        }

        gc_stats.young_collections = gc.young_collections;
        gc_stats.full_collections = gc.full_collections;
        gc_stats.concurrent_cycles = gc.concurrent_cycles;
        gc_stats.failures = gc.failures;
        gc_stats.promoted_bytes = gc.promoted_bytes;

        let jit_stats = JitStats {
            c1_compiles: jit.c1_compiles,
            c2_compiles: jit.c2_compiles,
            code_cache_full_drops: jit.dropped,
            c2_work_fraction: jit.c2_work_fraction(),
        };

        let raw_total = breakdown.total();
        let total = if failure.is_none() {
            noise.apply(raw_total)
        } else {
            raw_total
        };
        RunOutcome {
            total,
            breakdown,
            gc: gc_stats,
            jit: jit_stats,
            peak_heap: gc.peak_used,
            warnings,
            failure,
        }
    }
}

fn absorb(
    breakdown: &mut TimeBreakdown,
    stats: &mut GcStats,
    clock: &mut SimTime,
    events: &[GcEvent],
) {
    for e in events {
        breakdown.gc_pause += e.pause;
        *clock += e.pause;
        if e.kind != GcEventKind::Expansion {
            stats.pauses.record(e.pause);
        }
    }
}

/// The engine as it was before runs were prepared, kept as the reference
/// [`PreparedRun::run`] is tested against: it resolves flags by name,
/// builds the JIT model's buckets and returns a fresh event list per GC
/// call on every run.
#[cfg(test)]
fn reference_run(
    machine: &Machine,
    registry: &Registry,
    config: &JvmConfig,
    workload: &Workload,
    seed: u64,
) -> RunOutcome {
    debug_assert!(workload.validate().is_ok(), "invalid workload");
    let mut noise = NoiseModel::new(seed ^ config.fingerprint());

    let (view, warnings) = match FlagView::reference_resolve(registry, config, machine) {
        Ok(v) => v,
        Err(why) => {
            return RunOutcome {
                total: SimDuration::ZERO,
                breakdown: TimeBreakdown::default(),
                gc: GcStats::default(),
                jit: JitStats::default(),
                peak_heap: 0.0,
                warnings: Vec::new(),
                failure: Some(RunFailure::InvalidConfig(why)),
            }
        }
    };

    let mut breakdown = TimeBreakdown {
        startup: runtime::startup_time(&view, workload, machine),
        ..TimeBreakdown::default()
    };

    let mut jit = jit::reference::JitModel::new(&view, workload);
    let mut gc = GcModel::new(&view, workload, machine);
    let mut gc_stats = GcStats::default();

    let mutator_factor = runtime::mutator_factor(&view, workload, machine);
    let waste = runtime::allocation_waste(&view);
    let sp_overhead = runtime::safepoint_overhead(&view, workload);

    // Effective application parallelism.
    let threads = workload.threads.min(machine.cores * 4) as f64;
    let app_parallelism = (threads.min(machine.cores as f64))
        * if workload.threads > machine.cores {
            0.95
        } else {
            1.0
        };

    let mut work_done = 0.0;
    let mut drag = 0.0;
    let mut failure = None;
    let mut clock = SimTime::ZERO + breakdown.startup;

    let mut epochs: u64 = 0;
    while work_done < workload.total_work {
        epochs += 1;
        if epochs > MAX_EPOCHS {
            failure = Some(RunFailure::InvalidConfig(
                "configuration makes no forward progress".into(),
            ));
            break;
        }
        // Memory pressure: committed heap beyond physical memory swaps.
        let committed = gc.committed() + view.code_cache_size + 200e6;
        let mem = machine.memory as f64;
        let swap_factor = if committed > 0.9 * mem {
            1.0 / (1.0 + 6.0 * ((committed - 0.9 * mem) / mem))
        } else {
            1.0
        };

        let speed = INTERP_UNITS_PER_SEC
            * jit.speed_factor()
            * mutator_factor
            * app_parallelism
            * (1.0 - drag)
            * swap_factor;
        debug_assert!(speed > 0.0);

        // Epoch length: bounded by eden exhaustion and the epoch cap.
        let remaining = workload.total_work - work_done;
        let mut epoch_work = (speed * MAX_EPOCH_SECS).min(remaining);
        if workload.alloc_rate > 0.0 {
            let until_gc = gc.eden_room() / (workload.alloc_rate * waste) + 1.0;
            epoch_work = epoch_work.min(until_gc);
        }
        epoch_work = epoch_work.max(remaining.min(1000.0));
        let dt = epoch_work / speed;

        work_done += epoch_work;
        breakdown.mutator += SimDuration::from_secs_f64(dt * (1.0 - drag));
        breakdown.gc_concurrent_drag += SimDuration::from_secs_f64(dt * drag);
        breakdown.safepoint += SimDuration::from_secs_f64(dt * sp_overhead);
        clock += SimDuration::from_secs_f64(dt * (1.0 + sp_overhead));

        // JIT progress (possibly stalling the mutator).
        let stall = jit.advance(epoch_work, dt, workload.call_density);
        breakdown.jit_stall += SimDuration::from_secs_f64(stall);
        clock += SimDuration::from_secs_f64(stall);

        // Allocation → GC events.
        match gc.reference_allocate(epoch_work * workload.alloc_rate * waste) {
            Ok(events) => {
                absorb(&mut breakdown, &mut gc_stats, &mut clock, &events);
            }
            Err(f) => {
                failure = Some(f);
                break;
            }
        }
        // Concurrent GC progress.
        let (new_drag, events) = gc.reference_tick_concurrent(dt);
        drag = new_drag;
        absorb(&mut breakdown, &mut gc_stats, &mut clock, &events);
    }

    gc_stats.young_collections = gc.young_collections;
    gc_stats.full_collections = gc.full_collections;
    gc_stats.concurrent_cycles = gc.concurrent_cycles;
    gc_stats.failures = gc.failures;
    gc_stats.promoted_bytes = gc.promoted_bytes;

    let jit_stats = JitStats {
        c1_compiles: jit.c1_compiles,
        c2_compiles: jit.c2_compiles,
        code_cache_full_drops: jit.dropped,
        c2_work_fraction: jit.c2_work_fraction(),
    };

    let raw_total = breakdown.total();
    let total = if failure.is_none() {
        noise.apply(raw_total)
    } else {
        raw_total
    };
    RunOutcome {
        total,
        breakdown,
        gc: gc_stats,
        jit: jit_stats,
        peak_heap: gc.peak_used,
        warnings,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_flags::{hotspot_registry, Domain, FlagValue};
    use jtune_util::{Rng, Xoshiro256pp};

    fn run_with(sets: &[(&str, FlagValue)], wl: &Workload, seed: u64) -> RunOutcome {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        for (n, v) in sets {
            c.set_by_name(r, n, *v).unwrap();
        }
        JvmSim::new().run(r, &c, wl, seed)
    }

    /// `workload` from `jtune-workloads`, which depends on this crate and
    /// so hands back the library build's type: copy it field by field.
    macro_rules! local {
        ($w:expr) => {{
            let w = $w;
            Workload {
                name: w.name,
                total_work: w.total_work,
                threads: w.threads,
                alloc_rate: w.alloc_rate,
                mean_object_size: w.mean_object_size,
                humongous_fraction: w.humongous_fraction,
                nursery_survival: w.nursery_survival,
                mid_life_fraction: w.mid_life_fraction,
                live_set: w.live_set,
                hot_methods: w.hot_methods,
                hotness_skew: w.hotness_skew,
                mean_method_size: w.mean_method_size,
                call_density: w.call_density,
                lock_density: w.lock_density,
                lock_contention: w.lock_contention,
                pointer_density: w.pointer_density,
                array_stream_fraction: w.array_stream_fraction,
                fp_fraction: w.fp_fraction,
                classes_loaded: w.classes_loaded,
            }
        }};
    }

    fn random_value(domain: &Domain, rng: &mut Xoshiro256pp) -> FlagValue {
        match *domain {
            Domain::Bool => FlagValue::Bool(rng.next_bool(0.5)),
            Domain::IntRange { lo, hi, log_scale } if log_scale && lo >= 0 => {
                let (lo_f, hi_f) = ((lo as f64).max(1.0), (hi as f64).max(1.0));
                let x = (lo_f.ln() + rng.next_f64() * (hi_f.ln() - lo_f.ln())).exp();
                FlagValue::Int((x.round() as i64).clamp(lo, hi))
            }
            Domain::IntRange { lo, hi, .. } => FlagValue::Int(rng.next_range_i64(lo, hi)),
            Domain::DoubleRange { lo, hi } => FlagValue::Double(rng.next_range_f64(lo, hi)),
        }
    }

    /// A random configuration: hierarchical ones pick every selector's
    /// option and redraw a quarter of the active flags, then canonicalise;
    /// flat ones redraw a tenth of all tunable flags, collector switches
    /// included, so many of them fail.
    fn random_config(hierarchical: bool, rng: &mut Xoshiro256pp) -> JvmConfig {
        let (r, tree) = (hotspot_registry(), jtune_flagtree::hotspot_tree());
        let mut c = JvmConfig::default_for(r);
        if hierarchical {
            for sid in tree.selector_ids() {
                let n = tree.selector(sid).options.len() as u64;
                tree.assign_selector(&mut c, sid, rng.next_below(n) as usize);
            }
            for id in tree.active_flags(&c) {
                if rng.next_bool(0.25) {
                    c.set(id, random_value(&r.spec(id).domain, rng));
                }
            }
            tree.enforce(r, &mut c);
        } else {
            for &id in r.tunable_ids() {
                if rng.next_bool(0.1) {
                    c.set(id, random_value(&r.spec(id).domain, rng));
                }
            }
        }
        c
    }

    /// Every field of a prepared run's outcome equals the reference
    /// engine's, floats by their bits.
    fn assert_identical(new: &RunOutcome, old: &RunOutcome, case: &str) {
        let RunOutcome {
            total,
            breakdown: b,
            gc,
            jit,
            peak_heap,
            warnings,
            failure,
        } = new;
        let o = &old.breakdown;
        assert_eq!(*total, old.total, "{case}: total");
        assert_eq!(
            [
                b.startup,
                b.mutator,
                b.gc_pause,
                b.gc_concurrent_drag,
                b.jit_stall,
                b.safepoint
            ],
            [
                o.startup,
                o.mutator,
                o.gc_pause,
                o.gc_concurrent_drag,
                o.jit_stall,
                o.safepoint
            ],
            "{case}: breakdown"
        );
        let g = &old.gc;
        assert_eq!(
            [
                gc.young_collections,
                gc.full_collections,
                gc.concurrent_cycles,
                gc.failures
            ],
            [
                g.young_collections,
                g.full_collections,
                g.concurrent_cycles,
                g.failures
            ],
            "{case}: gc counters"
        );
        assert_eq!(
            gc.promoted_bytes.to_bits(),
            g.promoted_bytes.to_bits(),
            "{case}: promoted"
        );
        assert_eq!(
            format!("{:?}", gc.pauses),
            format!("{:?}", g.pauses),
            "{case}: pauses"
        );
        let j = &old.jit;
        assert_eq!(
            [jit.c1_compiles, jit.c2_compiles, jit.code_cache_full_drops],
            [j.c1_compiles, j.c2_compiles, j.code_cache_full_drops],
            "{case}: jit counters"
        );
        assert_eq!(
            jit.c2_work_fraction.to_bits(),
            j.c2_work_fraction.to_bits(),
            "{case}: c2"
        );
        assert_eq!(
            peak_heap.to_bits(),
            old.peak_heap.to_bits(),
            "{case}: peak heap"
        );
        assert_eq!(*warnings, old.warnings, "{case}: warnings");
        assert_eq!(*failure, old.failure, "{case}: failure");
    }

    #[test]
    fn prepared_runs_match_the_reference_engine_bit_for_bit() {
        let registry = hotspot_registry();
        let mut workloads: Vec<Workload> = jtune_workloads::specjvm2008_startup()
            .into_iter()
            .chain(jtune_workloads::dacapo())
            .map(|w| local!(w))
            .collect();
        assert_eq!(workloads.len(), 29, "every suite workload");
        let mut synth = jtune_workloads::SyntheticGenerator::new(0x5EED);
        workloads.extend((0..12).map(|_| local!(synth.next_workload())));
        let mut rng = Xoshiro256pp::seed_from_u64(0xB175);
        let (mut runs, mut failures) = (0, 0);
        for (w, workload) in workloads.into_iter().enumerate() {
            let machine = if w % 3 == 2 {
                Machine::small()
            } else {
                Machine::default()
            };
            let prepared = JvmSim::on(machine.clone()).prepare(registry, workload);
            for k in 0..16 {
                let config = random_config(k % 2 == 0, &mut rng);
                let seed = rng.next_u64();
                let new = prepared.run(&config, seed);
                let old = reference_run(&machine, registry, &config, prepared.workload(), seed);
                let case = format!("{} config {k}", prepared.workload().name);
                assert_identical(&new, &old, &case);
                runs += 1;
                failures += usize::from(new.failure.is_some());
            }
        }
        // The generated cases reach both the success and the failure paths.
        assert!(
            failures > 0 && failures < runs,
            "{failures} of {runs} runs failed"
        );
    }

    #[test]
    fn default_run_completes_with_plausible_time() {
        let wl = Workload::baseline("w");
        let out = run_with(&[], &wl, 1);
        assert!(out.ok(), "{:?}", out.failure);
        let secs = out.total.as_secs_f64();
        assert!((1.0..600.0).contains(&secs), "total {secs}s");
        assert!(out.breakdown.mutator > SimDuration::ZERO);
        assert!(out.gc.young_collections > 0);
        assert!(out.jit.c2_compiles > 0);
    }

    #[test]
    fn same_seed_same_result_different_seed_different() {
        let wl = Workload::baseline("w");
        let a = run_with(&[], &wl, 7);
        let b = run_with(&[], &wl, 7);
        let c = run_with(&[], &wl, 8);
        assert_eq!(a.total, b.total);
        assert_ne!(a.total, c.total);
        // Noise-free breakdown identical regardless of seed.
        assert_eq!(a.breakdown.mutator, c.breakdown.mutator);
    }

    #[test]
    fn interpreter_only_is_much_slower() {
        let mut wl = Workload::baseline("w");
        // Long enough that JIT warm-up amortises.
        wl.total_work = 2e10;
        let jit = run_with(&[], &wl, 1);
        let interp = run_with(&[("UseCompiler", FlagValue::Bool(false))], &wl, 1);
        assert!(
            interp.total.as_secs_f64() > 3.0 * jit.total.as_secs_f64(),
            "interp {} vs jit {}",
            interp.total,
            jit.total
        );
    }

    #[test]
    fn tiered_helps_startup_workloads() {
        let mut wl = Workload::baseline("startup");
        wl.total_work = 8e8;
        wl.hot_methods = 2000;
        wl.hotness_skew = 0.6;
        assert!(wl.startup_sensitive());
        let classic = run_with(&[], &wl, 3);
        let tiered = run_with(&[("TieredCompilation", FlagValue::Bool(true))], &wl, 3);
        assert!(
            tiered.total < classic.total,
            "tiered {} vs classic {}",
            tiered.total,
            classic.total
        );
    }

    #[test]
    fn bigger_heap_reduces_gc_time_for_allocation_heavy_load() {
        let mut wl = Workload::baseline("alloc");
        wl.alloc_rate = 4.0;
        wl.live_set = 500e6;
        let small = run_with(&[("MaxHeapSize", FlagValue::Int(768 << 20))], &wl, 5);
        let big = run_with(&[("MaxHeapSize", FlagValue::Int(4 << 30))], &wl, 5);
        assert!(small.ok() && big.ok());
        assert!(
            big.breakdown.gc_pause < small.breakdown.gc_pause,
            "big {} vs small {}",
            big.breakdown.gc_pause,
            small.breakdown.gc_pause
        );
        assert!(big.total < small.total);
    }

    #[test]
    fn heap_larger_than_ram_swaps_and_loses() {
        let mut wl = Workload::baseline("w");
        wl.alloc_rate = 2.0;
        let sane = run_with(&[("MaxHeapSize", FlagValue::Int(2 << 30))], &wl, 5);
        let insane = run_with(
            &[
                ("MaxHeapSize", FlagValue::Int(16 << 30)),
                ("InitialHeapSize", FlagValue::Int(16 << 30)),
            ],
            &wl,
            5,
        );
        assert!(
            insane.total > sane.total,
            "swap-thrashing config won: {} vs {}",
            insane.total,
            sane.total
        );
    }

    #[test]
    fn tiny_heap_for_big_live_set_fails_oom() {
        let mut wl = Workload::baseline("w");
        wl.live_set = 900e6;
        wl.nursery_survival = 0.4;
        let out = run_with(&[("MaxHeapSize", FlagValue::Int(256 << 20))], &wl, 1);
        assert_eq!(out.failure, Some(RunFailure::OutOfMemory));
    }

    #[test]
    fn startup_dominated_by_class_loading_benefits_from_cds() {
        let mut wl = Workload::baseline("classy");
        wl.classes_loaded = 20_000;
        wl.total_work = 5e8;
        let with = run_with(&[], &wl, 2);
        let without = run_with(&[("UseSharedSpaces", FlagValue::Bool(false))], &wl, 2);
        assert!(with.breakdown.startup < without.breakdown.startup);
        assert!(with.total < without.total);
    }

    #[test]
    fn gc_choice_matters_for_gc_bound_workload() {
        let mut wl = Workload::baseline("gc-bound");
        wl.alloc_rate = 5.0;
        wl.live_set = 600e6;
        wl.nursery_survival = 0.12;
        wl.total_work = 3e9;
        let serial = run_with(
            &[
                ("UseSerialGC", FlagValue::Bool(true)),
                ("UseParallelGC", FlagValue::Bool(false)),
                ("UseParallelOldGC", FlagValue::Bool(false)),
            ],
            &wl,
            4,
        );
        let parallel = run_with(&[], &wl, 4);
        assert!(serial.ok() && parallel.ok());
        assert!(
            parallel.total < serial.total,
            "parallel {} vs serial {}",
            parallel.total,
            serial.total
        );
    }

    #[test]
    fn warnings_surface_in_outcome() {
        let wl = Workload::baseline("w");
        let out = run_with(
            &[
                ("InitialHeapSize", FlagValue::Int(2 << 30)),
                ("MaxHeapSize", FlagValue::Int(1 << 30)),
            ],
            &wl,
            1,
        );
        assert!(!out.warnings.is_empty());
        assert!(out.ok());
    }

    #[test]
    fn zero_allocation_workload_never_gcs() {
        let mut wl = Workload::baseline("pure-compute");
        wl.alloc_rate = 0.0;
        wl.live_set = 0.0;
        let out = run_with(&[], &wl, 1);
        assert!(out.ok());
        assert_eq!(out.gc.young_collections, 0);
        assert_eq!(out.breakdown.gc_pause, SimDuration::ZERO);
    }

    #[test]
    fn breakdown_total_close_to_reported_total() {
        let wl = Workload::baseline("w");
        let out = run_with(&[], &wl, 9);
        let raw = out.breakdown.total().as_secs_f64();
        let noisy = out.total.as_secs_f64();
        assert!((noisy / raw - 1.0).abs() < 0.15, "raw {raw} noisy {noisy}");
    }
}
