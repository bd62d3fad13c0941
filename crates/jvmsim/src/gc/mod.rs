//! The garbage-collection engine.
//!
//! [`GcModel`] owns the heap state and collector behaviour for one run.
//! The simulation engine feeds it allocation ([`GcModel::allocate`]) and
//! elapsed mutator time ([`GcModel::tick_concurrent`]); the model appends
//! the stop-the-world [`GcEvent`]s they cause to one buffer the engine
//! owns, and replies with a concurrent-drag fraction.
//!
//! Collector-specific pause-cost functions live in the per-collector
//! modules ([`serial`], [`parallel`], [`cms`], [`g1`]); this module holds
//! the generational mechanics they share: eden filling, survivor aging and
//! tenuring, promotion, old-generation occupancy, heap expansion and
//! out-of-memory behaviour.

pub mod cms;
pub mod g1;
pub mod parallel;
pub mod serial;

use jtune_util::SimDuration;

use crate::flagview::{CollectorKind, FlagView};
use crate::heap::{HeapGeometry, HeapState};
use crate::machine::Machine;
use crate::outcome::RunFailure;
use crate::workload::Workload;

/// What kind of stop-the-world event occurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcEventKind {
    /// Young (minor) collection.
    Young,
    /// G1 mixed collection (young + some old regions).
    Mixed,
    /// Stop-the-world full collection.
    Full,
    /// CMS/G1 initial-mark pause.
    InitialMark,
    /// CMS remark / G1 final-mark pause.
    Remark,
    /// Committed-heap expansion.
    Expansion,
}

/// One stop-the-world event.
#[derive(Clone, Copy, Debug)]
pub struct GcEvent {
    /// Event kind.
    pub kind: GcEventKind,
    /// Pause duration.
    pub pause: SimDuration,
}

/// Concurrent-cycle phase (CMS concurrent phases / G1 marking).
#[derive(Clone, Copy, Debug, PartialEq)]
enum CyclePhase {
    Idle,
    /// Concurrent work remaining, in concurrent-thread-seconds.
    Running {
        remaining: f64,
    },
}

/// Per-run GC state machine.
#[derive(Clone, Debug)]
pub struct GcModel {
    view: FlagView,
    machine: Machine,
    /// Capacities (mutable under adaptive sizing / G1 pause control).
    pub geometry: HeapGeometry,
    /// Occupancy.
    pub state: HeapState,
    /// Committed heap (grows from `xms` towards `total`).
    committed: f64,
    /// CMS free-list fragmentation ∈ [0, 0.3]: reduces usable old space.
    fragmentation: f64,
    cycle: CyclePhase,
    /// G1: mixed collections remaining after the last marking.
    mixed_remaining: u32,
    /// Per-workload constants.
    nursery_survival: f64,
    humongous_fraction: f64,
    live_target: f64,
    /// Exponential average of promoted bytes per young GC (trigger
    /// ergonomics).
    promo_estimate: f64,
    /// Recent young-pause estimate in ms (G1 young sizing).
    pause_estimate_ms: f64,
    /// Counters mirrored into [`crate::outcome::GcStats`].
    pub young_collections: u64,
    /// Full (stop-the-world) collections.
    pub full_collections: u64,
    /// Concurrent cycles started.
    pub concurrent_cycles: u64,
    /// Concurrent-mode / evacuation failures.
    pub failures: u64,
    /// Total bytes promoted.
    pub promoted_bytes: f64,
    /// Consecutive ineffective full GCs (OOM detector).
    futile_full_gcs: u32,
    /// Peak heap occupancy observed.
    pub peak_used: f64,
}

impl GcModel {
    /// Build the model for one run.
    pub fn new(view: &FlagView, wl: &Workload, machine: &Machine) -> GcModel {
        let mut geometry = HeapGeometry::from_view(view);
        if view.collector == CollectorKind::G1 {
            // G1 sizes its young generation from the pause goal, not
            // NewRatio; start at the configured minimum.
            let young = (view.g1_new_pct / 100.0 * geometry.total).max(1e6);
            geometry.resize_young(young, view.survivor_ratio);
        }
        GcModel {
            view: view.clone(),
            machine: machine.clone(),
            geometry,
            state: HeapState::default(),
            committed: view.xms.max(1e6),
            fragmentation: 0.0,
            cycle: CyclePhase::Idle,
            mixed_remaining: 0,
            nursery_survival: wl.nursery_survival,
            humongous_fraction: wl.humongous_fraction,
            live_target: wl.live_set,
            promo_estimate: 0.0,
            pause_estimate_ms: 5.0,
            young_collections: 0,
            full_collections: 0,
            concurrent_cycles: 0,
            failures: 0,
            promoted_bytes: 0.0,
            futile_full_gcs: 0,
            peak_used: 0.0,
        }
    }

    /// Free space left in eden.
    pub fn eden_room(&self) -> f64 {
        (self.geometry.eden - self.state.eden_used).max(0.0)
    }

    /// Committed heap in bytes.
    pub fn committed(&self) -> f64 {
        self.committed
    }

    /// How many parallel STW workers this collector actually uses.
    fn stw_threads(&self) -> f64 {
        match self.view.collector {
            CollectorKind::Serial => 1.0,
            _ => effective_threads(self.view.parallel_gc_threads, self.machine.cores),
        }
    }

    /// Feed `bytes` of allocation into the heap, appending the STW events
    /// it causes to `events`. Humongous allocation bypasses eden under G1.
    pub fn allocate(&mut self, bytes: f64, events: &mut Vec<GcEvent>) -> Result<(), RunFailure> {
        let humongous = bytes * self.humongous_fraction;
        let ordinary = bytes - humongous;
        if humongous > 0.0 {
            // Region-rounding waste under G1; large-object slop elsewhere.
            let waste = if self.view.collector == CollectorKind::G1 {
                1.25
            } else {
                1.05
            };
            self.state.humongous += humongous * waste;
        }
        self.state.eden_used += ordinary;
        self.peak_used = self.peak_used.max(self.state.used());
        while self.state.eden_used >= self.geometry.eden {
            self.young_gc(events)?;
        }
        self.maybe_start_cycle(events);
        self.maybe_expand(events);
        Ok(())
    }

    /// Advance concurrent GC work by `dt` seconds of wall time. Returns the
    /// fraction of mutator throughput stolen by concurrent GC threads, and
    /// appends any pauses the cycle completion triggers to `events`.
    pub fn tick_concurrent(&mut self, dt: f64, events: &mut Vec<GcEvent>) -> f64 {
        let CyclePhase::Running { remaining } = self.cycle else {
            return 0.0;
        };
        let duty = if self.view.collector == CollectorKind::Cms && self.view.cms_incremental {
            (self.view.cms_duty_cycle / 100.0).clamp(0.05, 1.0)
        } else {
            1.0
        };
        let threads = self.view.conc_gc_threads as f64;
        let progress = dt * threads * duty;
        let drag = ((threads * duty) / self.machine.cores as f64).min(0.4);
        if progress >= remaining {
            self.finish_cycle(events);
        } else {
            self.cycle = CyclePhase::Running {
                remaining: remaining - progress,
            };
        }
        drag
    }

    // ---- young collection ----

    fn young_gc(&mut self, events: &mut Vec<GcEvent>) -> Result<(), RunFailure> {
        let eden_bytes = self.state.eden_used.min(self.geometry.eden);
        let overshoot = (self.state.eden_used - eden_bytes).max(0.0);
        let survive = eden_bytes * self.nursery_survival;

        // Tenuring: fraction of nursery survivors promoted this collection.
        let v = &self.view;
        let p_tenure = if v.always_tenure {
            1.0
        } else if v.never_tenure {
            0.0
        } else {
            0.30 + 0.70 * (-(v.max_tenuring as f64) / 3.0).exp()
        };
        // Survivor residency: survivors not yet promoted, living ~2 aging
        // rounds on average.
        let survivor_cap = self.geometry.survivor * (v.target_survivor / 100.0).clamp(0.05, 1.0);
        let resident = self.state.survivor_used * 0.5 + survive * (1.0 - p_tenure);
        let overflow = (resident - survivor_cap).max(0.0);
        let promoted = (survive * p_tenure + overflow).min(survive + self.state.survivor_used);
        self.state.survivor_used = (resident - overflow).max(0.0);

        // Old-generation intake.
        self.take_promotion(promoted, events)?;

        // Pause cost.
        let threads = self.stw_threads();
        let copied = survive + self.state.survivor_used;
        let mixed = self.view.collector == CollectorKind::G1 && self.mixed_remaining > 0;
        let mut pause_ms = match self.view.collector {
            CollectorKind::Serial => serial::young_pause_ms(copied, self.state.old_used()),
            CollectorKind::Parallel => {
                parallel::young_pause_ms(copied, self.state.old_used(), threads)
            }
            CollectorKind::Cms => cms::young_pause_ms(copied, self.state.old_used(), threads),
            CollectorKind::G1 => g1::young_pause_ms(
                copied,
                self.state.old_used(),
                threads,
                self.geometry.total,
                self.view.g1_region_size,
            ),
        };
        // Reference processing.
        pause_ms += if self.view.parallel_ref_proc {
            0.15
        } else {
            0.5
        };

        if mixed {
            // Reclaim a slice of old garbage in the same pause.
            let target = self.view.g1_mixed_count_target.max(1) as f64;
            let slice = self.state.old_garbage / target;
            let reclaimable_pct = 100.0 * self.state.old_garbage / self.geometry.old.max(1.0);
            if reclaimable_pct > self.view.g1_heap_waste_pct {
                pause_ms += g1::mixed_extra_pause_ms(slice, threads);
                self.state.old_garbage -= slice * 0.9;
                self.mixed_remaining -= 1;
            } else {
                self.mixed_remaining = 0;
            }
        }
        // G1 eagerly reclaims dead humongous regions at young pauses.
        if self.view.collector == CollectorKind::G1 && self.view.g1_eager_humongous {
            self.state.humongous *= 0.3;
        }

        self.state.eden_used = overshoot;
        self.young_collections += 1;
        self.promo_estimate = 0.7 * self.promo_estimate + 0.3 * promoted;
        self.pause_estimate_ms = 0.7 * self.pause_estimate_ms + 0.3 * pause_ms;
        events.push(GcEvent {
            kind: if mixed {
                GcEventKind::Mixed
            } else {
                GcEventKind::Young
            },
            pause: SimDuration::from_millis_f64(pause_ms),
        });

        self.adapt_young_size();
        Ok(())
    }

    /// Adaptive young-generation sizing: the parallel collector's
    /// `UseAdaptiveSizePolicy` grows the young gen while pauses are under
    /// the goal (throughput first); G1 sizes young directly from the pause
    /// goal. Other collectors keep the static geometry.
    fn adapt_young_size(&mut self) {
        let v = &self.view;
        match v.collector {
            CollectorKind::Parallel if v.use_adaptive_size => {
                let goal = v.max_gc_pause_ms;
                let young = self.geometry.young();
                // Pressure is about *live* data needing old-gen space;
                // reclaimable garbage filling the old gen is normal
                // operation and is handled by full collections.
                let old_pressure =
                    (self.state.old_live + self.state.humongous) / self.geometry.old.max(1.0);
                let new_young = if self.pause_estimate_ms > goal {
                    young * 0.85
                } else if old_pressure > 0.75 {
                    // Promotion pressure: cede space to the old generation
                    // (real PS ergonomics move the generation boundary).
                    young * 0.9
                } else {
                    // Grow towards lower GC frequency while pauses fit.
                    young * 1.1
                };
                // Keep the young generation within sane ergonomic bounds:
                // runaway shrinking would thrash tiny scavenges, runaway
                // growth would starve the old generation.
                let floor = 0.08 * self.geometry.total;
                let cap = 0.6 * self.geometry.total;
                self.geometry
                    .resize_young(new_young.clamp(floor, cap), v.survivor_ratio);
            }
            CollectorKind::G1 => {
                let goal = v.max_gc_pause_ms;
                let young = self.geometry.young();
                let ratio = (goal / self.pause_estimate_ms.max(0.1)).clamp(0.5, 2.0);
                let target = young * ratio.sqrt();
                let lo = v.g1_new_pct / 100.0 * self.geometry.total;
                let hi = (v.g1_max_new_pct / 100.0 * self.geometry.total)
                    .min(self.geometry.total - 1.2 * self.state.old_used());
                let hi = hi.max(lo + 1e6);
                self.geometry
                    .resize_young(target.clamp(lo, hi), v.survivor_ratio);
            }
            _ => {}
        }
    }

    // ---- old generation ----

    fn old_capacity_effective(&self) -> f64 {
        let mut cap = self.geometry.old * (1.0 - self.fragmentation);
        if self.view.collector == CollectorKind::G1 {
            cap *= 1.0 - (self.view.g1_reserve_pct / 100.0).clamp(0.0, 0.5);
        }
        cap
    }

    fn take_promotion(
        &mut self,
        promoted: f64,
        events: &mut Vec<GcEvent>,
    ) -> Result<(), RunFailure> {
        self.promoted_bytes += promoted;
        // Long-lived bytes build the live set; the rest is reclaimable.
        let long = promoted.min((self.live_target - self.state.old_live).max(0.0));
        self.state.old_live += long;
        self.state.old_garbage += promoted - long;

        if self.state.old_used() > self.old_capacity_effective() {
            self.full_gc(events)?;
        }
        Ok(())
    }

    fn full_gc(&mut self, events: &mut Vec<GcEvent>) -> Result<(), RunFailure> {
        let live = self.state.old_live;
        let garbage = self.state.old_garbage + self.state.humongous;
        let threads = self.stw_threads();
        let v = &self.view;
        let (pause_ms, reclaim_frac, defrag) = match v.collector {
            CollectorKind::Serial => (serial::full_pause_ms(live, garbage), 1.0, true),
            CollectorKind::Parallel => (parallel::full_pause_ms(live, garbage, threads), 1.0, true),
            CollectorKind::Cms => {
                // A stop-the-world CMS full collection is a concurrent-mode
                // failure: serial mark-sweep(-compact).
                self.failures += 1;
                self.cycle = CyclePhase::Idle;
                let compact = v.cms_compact_at_full;
                (cms::full_pause_ms(live, garbage, compact), 1.0, compact)
            }
            CollectorKind::G1 => {
                self.failures += 1;
                self.mixed_remaining = 0;
                self.cycle = CyclePhase::Idle;
                (g1::full_pause_ms(live, garbage), 1.0, true)
            }
        };
        let before = self.state.old_used();
        self.state.old_garbage *= 1.0 - reclaim_frac;
        self.state.humongous *= 1.0 - reclaim_frac;
        if defrag {
            self.fragmentation = 0.0;
        } else {
            self.fragmentation *= 0.5;
        }
        self.full_collections += 1;
        events.push(GcEvent {
            kind: GcEventKind::Full,
            pause: SimDuration::from_millis_f64(pause_ms),
        });

        // Out of memory: the live set simply does not fit, or repeated full
        // collections reclaim (almost) nothing.
        let after = self.state.old_used();
        if after > self.old_capacity_effective() {
            // Last resort before declaring OOM: collectors with flexible
            // generation boundaries (G1, adaptive parallel) hand the old
            // generation every byte the policy allows — real evacuation-
            // failure handling shrinks the young generation first.
            let v = &self.view;
            let can_shrink = v.collector == CollectorKind::G1
                || (v.collector == CollectorKind::Parallel && v.use_adaptive_size);
            if can_shrink {
                let sr = v.survivor_ratio;
                self.geometry.resize_young(0.05 * self.geometry.total, sr);
            }
            if after > self.old_capacity_effective() {
                return Err(RunFailure::OutOfMemory);
            }
        }
        if before - after < 0.02 * before.max(1.0) {
            self.futile_full_gcs += 1;
            if self.futile_full_gcs >= 4 {
                return Err(RunFailure::OutOfMemory);
            }
        } else {
            self.futile_full_gcs = 0;
        }
        Ok(())
    }

    // ---- concurrent cycles ----

    fn maybe_start_cycle(&mut self, events: &mut Vec<GcEvent>) {
        if self.cycle != CyclePhase::Idle {
            return;
        }
        let v = &self.view;
        match v.collector {
            CollectorKind::Cms => {
                let occ = 100.0 * self.state.old_used() / self.geometry.old.max(1.0);
                let mut trigger = v.cms_initiating;
                if !v.cms_occupancy_only {
                    // Ergonomic early trigger under promotion pressure.
                    let pressure = self.promo_estimate / self.geometry.old.max(1.0);
                    trigger = trigger.min(92.0 - (pressure * 400.0).min(30.0));
                }
                if occ >= trigger {
                    self.start_cycle(events, cms::initial_mark_pause_ms(self.state.old_live));
                }
            }
            CollectorKind::G1 => {
                let occ = 100.0 * self.state.used() / self.geometry.total.max(1.0);
                if occ >= v.g1_ihop && self.mixed_remaining == 0 {
                    self.start_cycle(events, g1::initial_mark_pause_ms(self.state.old_live));
                }
            }
            _ => {}
        }
    }

    fn start_cycle(&mut self, events: &mut Vec<GcEvent>, initial_mark_ms: f64) {
        self.concurrent_cycles += 1;
        let work = (self.state.old_used() / cms::CONC_MARK_RATE).max(0.01);
        self.cycle = CyclePhase::Running { remaining: work };
        events.push(GcEvent {
            kind: GcEventKind::InitialMark,
            pause: SimDuration::from_millis_f64(initial_mark_ms),
        });
    }

    fn finish_cycle(&mut self, events: &mut Vec<GcEvent>) {
        self.cycle = CyclePhase::Idle;
        let v = &self.view;
        match v.collector {
            CollectorKind::Cms => {
                let threads = self.stw_threads();
                let remark_ms = cms::remark_pause_ms(
                    self.state.old_used(),
                    self.state.eden_used,
                    v.cms_parallel_remark,
                    v.cms_scavenge_before_remark,
                    threads,
                );
                events.push(GcEvent {
                    kind: GcEventKind::Remark,
                    pause: SimDuration::from_millis_f64(remark_ms),
                });
                // Concurrent sweep reclaims garbage without compaction:
                // fragmentation accumulates.
                self.state.old_garbage *= 0.08;
                self.state.humongous *= 0.3;
                self.fragmentation = (self.fragmentation + 0.025).min(0.30);
            }
            CollectorKind::G1 => {
                events.push(GcEvent {
                    kind: GcEventKind::Remark,
                    pause: SimDuration::from_millis_f64(g1::remark_pause_ms(self.state.old_used())),
                });
                self.mixed_remaining = v.g1_mixed_count_target;
                // Marking identifies dead humongous objects.
                self.state.humongous *= 0.4;
            }
            _ => {}
        }
    }

    // ---- committed-heap growth ----

    fn maybe_expand(&mut self, events: &mut Vec<GcEvent>) {
        let needed = self.state.used().max(self.view.xms);
        while self.committed < needed.min(self.geometry.total) {
            self.committed = (self.committed * 1.3).min(self.geometry.total);
            // Commit + page-in cost; cheaper with large pages, prepaid by
            // AlwaysPreTouch (modelled as startup cost in the engine).
            let ms = if self.view.always_pretouch {
                0.2
            } else if self.view.large_pages && self.machine.large_pages_available {
                0.6
            } else {
                1.5
            };
            events.push(GcEvent {
                kind: GcEventKind::Expansion,
                pause: SimDuration::from_millis_f64(ms),
            });
        }
    }
}

/// STW GC worker scaling: near-linear to core count, with a coordination
/// penalty beyond it.
pub(crate) fn effective_threads(configured: u32, cores: u32) -> f64 {
    let t = configured.max(1) as f64;
    let c = cores as f64;
    if t <= c {
        t.powf(0.9)
    } else {
        // Oversubscription: progress capped at core scaling and degraded by
        // context switching.
        c.powf(0.9) / (1.0 + 0.08 * (t - c) / c)
    }
}

/// The event-returning calls the engine used before it owned one event
/// buffer, kept as the reference the prepared engine is tested against.
#[cfg(test)]
impl GcModel {
    /// Feed `bytes` of allocation into the heap, returning the STW events
    /// it caused. Humongous allocation bypasses eden under G1.
    pub(crate) fn reference_allocate(&mut self, bytes: f64) -> Result<Vec<GcEvent>, RunFailure> {
        let mut events = Vec::new();
        let humongous = bytes * self.humongous_fraction;
        let ordinary = bytes - humongous;
        if humongous > 0.0 {
            // Region-rounding waste under G1; large-object slop elsewhere.
            let waste = if self.view.collector == CollectorKind::G1 {
                1.25
            } else {
                1.05
            };
            self.state.humongous += humongous * waste;
        }
        self.state.eden_used += ordinary;
        self.peak_used = self.peak_used.max(self.state.used());
        while self.state.eden_used >= self.geometry.eden {
            self.young_gc(&mut events)?;
        }
        self.maybe_start_cycle(&mut events);
        self.maybe_expand(&mut events);
        Ok(events)
    }

    /// Advance concurrent GC work by `dt` seconds of wall time. Returns the
    /// fraction of mutator throughput stolen by concurrent GC threads plus
    /// any pauses the cycle completion triggers.
    pub(crate) fn reference_tick_concurrent(&mut self, dt: f64) -> (f64, Vec<GcEvent>) {
        let mut events = Vec::new();
        let CyclePhase::Running { remaining } = self.cycle else {
            return (0.0, events);
        };
        let duty = if self.view.collector == CollectorKind::Cms && self.view.cms_incremental {
            (self.view.cms_duty_cycle / 100.0).clamp(0.05, 1.0)
        } else {
            1.0
        };
        let threads = self.view.conc_gc_threads as f64;
        let progress = dt * threads * duty;
        let drag = ((threads * duty) / self.machine.cores as f64).min(0.4);
        if progress >= remaining {
            self.finish_cycle(&mut events);
        } else {
            self.cycle = CyclePhase::Running {
                remaining: remaining - progress,
            };
        }
        (drag, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtune_flags::{hotspot_registry, FlagValue, JvmConfig};

    fn model_with(sets: &[(&str, FlagValue)], wl: &Workload) -> GcModel {
        let r = hotspot_registry();
        let mut c = JvmConfig::default_for(r);
        for (n, v) in sets {
            c.set_by_name(r, n, *v).unwrap();
        }
        let m = Machine::default();
        let (view, _) = FlagView::resolve(r, &c, &m).unwrap();
        GcModel::new(&view, wl, &m)
    }

    fn pump(model: &mut GcModel, bytes: f64, steps: usize) -> Vec<GcEvent> {
        let mut all = Vec::new();
        for _ in 0..steps {
            model
                .allocate(bytes / steps as f64, &mut all)
                .expect("no OOM expected");
            model.tick_concurrent(0.05, &mut all);
        }
        all
    }

    #[test]
    fn eden_fills_and_triggers_young_gc() {
        let wl = Workload::baseline("w");
        // Static geometry: adaptive sizing would grow eden mid-test.
        let mut m = model_with(&[("UseAdaptiveSizePolicy", FlagValue::Bool(false))], &wl);
        let eden = m.geometry.eden;
        let events = pump(&mut m, eden * 3.5, 10);
        let young = events
            .iter()
            .filter(|e| e.kind == GcEventKind::Young)
            .count();
        assert!(young >= 3, "{young} young GCs");
        assert!(m.young_collections >= 3);
    }

    #[test]
    fn bigger_young_gen_means_fewer_young_gcs() {
        let wl = Workload::baseline("w");
        // Disable adaptive sizing so the static geometry is what we test.
        let mut small = model_with(
            &[
                ("NewRatio", FlagValue::Int(7)),
                ("UseAdaptiveSizePolicy", FlagValue::Bool(false)),
            ],
            &wl,
        );
        let mut big = model_with(
            &[
                ("NewRatio", FlagValue::Int(1)),
                ("UseAdaptiveSizePolicy", FlagValue::Bool(false)),
            ],
            &wl,
        );
        let bytes = 2e9;
        pump(&mut small, bytes, 100);
        pump(&mut big, bytes, 100);
        assert!(
            big.young_collections < small.young_collections,
            "big {} vs small {}",
            big.young_collections,
            small.young_collections
        );
    }

    #[test]
    fn live_set_exceeding_heap_is_oom() {
        let mut wl = Workload::baseline("w");
        wl.live_set = 2e9; // 2 GB live in a 1 GB heap
        wl.nursery_survival = 0.5;
        let mut m = model_with(&[("UseAdaptiveSizePolicy", FlagValue::Bool(false))], &wl);
        let mut oom = false;
        for _ in 0..4000 {
            match m.allocate(10e6, &mut Vec::new()) {
                Ok(_) => {}
                Err(RunFailure::OutOfMemory) => {
                    oom = true;
                    break;
                }
                Err(e) => panic!("unexpected failure {e:?}"),
            }
        }
        assert!(oom, "expected OutOfMemory");
    }

    #[test]
    fn cms_runs_concurrent_cycles_not_full_gcs_when_headroom() {
        let mut wl = Workload::baseline("w");
        wl.live_set = 300e6;
        wl.nursery_survival = 0.15;
        let mut m = model_with(
            &[
                ("UseConcMarkSweepGC", FlagValue::Bool(true)),
                ("UseParallelGC", FlagValue::Bool(false)),
                ("CMSInitiatingOccupancyFraction", FlagValue::Int(45)),
                ("UseCMSInitiatingOccupancyOnly", FlagValue::Bool(true)),
            ],
            &wl,
        );
        pump(&mut m, 6e9, 600);
        assert!(m.concurrent_cycles > 0, "no CMS cycles started");
        assert_eq!(m.failures, 0, "unexpected concurrent-mode failures");
    }

    #[test]
    fn cms_late_trigger_causes_concurrent_mode_failure() {
        let mut wl = Workload::baseline("w");
        wl.live_set = 500e6;
        wl.nursery_survival = 0.35;
        let mut m = model_with(
            &[
                ("UseConcMarkSweepGC", FlagValue::Bool(true)),
                ("UseParallelGC", FlagValue::Bool(false)),
                ("CMSInitiatingOccupancyFraction", FlagValue::Int(99)),
                ("UseCMSInitiatingOccupancyOnly", FlagValue::Bool(true)),
            ],
            &wl,
        );
        // Very fast allocation with a late trigger: old gen fills before a
        // cycle can help.
        for _ in 0..2000 {
            let mut events = Vec::new();
            if m.allocate(5e6, &mut events).is_err() {
                break;
            }
            m.tick_concurrent(0.001, &mut events);
        }
        assert!(m.failures > 0, "expected concurrent-mode failures");
    }

    #[test]
    fn g1_marking_then_mixed_collections() {
        let mut wl = Workload::baseline("w");
        wl.live_set = 350e6;
        wl.nursery_survival = 0.2;
        let mut m = model_with(
            &[
                ("UseG1GC", FlagValue::Bool(true)),
                ("UseParallelGC", FlagValue::Bool(false)),
                ("InitiatingHeapOccupancyPercent", FlagValue::Int(35)),
            ],
            &wl,
        );
        let events = pump(&mut m, 8e9, 800);
        assert!(m.concurrent_cycles > 0, "no G1 marking cycles");
        assert!(
            events.iter().any(|e| e.kind == GcEventKind::Mixed),
            "no mixed collections"
        );
    }

    #[test]
    fn g1_young_size_tracks_pause_goal() {
        let mut wl = Workload::baseline("w");
        wl.nursery_survival = 0.25;
        let mut tight = model_with(
            &[
                ("UseG1GC", FlagValue::Bool(true)),
                ("UseParallelGC", FlagValue::Bool(false)),
                ("MaxGCPauseMillis", FlagValue::Int(2)),
            ],
            &wl,
        );
        let mut loose = model_with(
            &[
                ("UseG1GC", FlagValue::Bool(true)),
                ("UseParallelGC", FlagValue::Bool(false)),
                ("MaxGCPauseMillis", FlagValue::Int(2000)),
            ],
            &wl,
        );
        pump(&mut tight, 4e9, 400);
        pump(&mut loose, 4e9, 400);
        assert!(
            loose.geometry.young() > tight.geometry.young(),
            "loose {} <= tight {}",
            loose.geometry.young(),
            tight.geometry.young()
        );
    }

    #[test]
    fn serial_pauses_longer_than_parallel() {
        let mut wl = Workload::baseline("w");
        wl.nursery_survival = 0.2;
        let run = |sets: &[(&str, FlagValue)]| -> f64 {
            let mut m = model_with(sets, &wl);
            let events = pump(&mut m, 2e9, 200);
            let total: f64 = events
                .iter()
                .filter(|e| e.kind == GcEventKind::Young)
                .map(|e| e.pause.as_millis_f64())
                .sum();
            total / m.young_collections.max(1) as f64
        };
        let serial = run(&[
            ("UseSerialGC", FlagValue::Bool(true)),
            ("UseParallelGC", FlagValue::Bool(false)),
            ("UseParallelOldGC", FlagValue::Bool(false)),
        ]);
        let parallel = run(&[]);
        assert!(serial > parallel, "serial {serial} <= parallel {parallel}");
    }

    #[test]
    fn always_tenure_promotes_more() {
        let wl = Workload::baseline("w");
        let mut at = model_with(&[("AlwaysTenure", FlagValue::Bool(true))], &wl);
        let mut nt = model_with(&[("NeverTenure", FlagValue::Bool(true))], &wl);
        pump(&mut at, 2e9, 200);
        pump(&mut nt, 2e9, 200);
        assert!(at.promoted_bytes > nt.promoted_bytes);
    }

    #[test]
    fn committed_heap_grows_from_xms_with_expansion_events() {
        let wl = Workload::baseline("w");
        let mut m = model_with(&[("InitialHeapSize", FlagValue::Int(16 << 20))], &wl);
        assert!((m.committed() - (16u64 << 20) as f64).abs() < 1.0);
        let events = pump(&mut m, 1e9, 100);
        assert!(events.iter().any(|e| e.kind == GcEventKind::Expansion));
        assert!(m.committed() > (16u64 << 20) as f64);
    }

    #[test]
    fn effective_threads_scaling() {
        assert_eq!(effective_threads(1, 8), 1.0);
        assert!(effective_threads(8, 8) > 6.0);
        assert!(effective_threads(8, 8) <= 8.0);
        // Oversubscription hurts.
        assert!(effective_threads(32, 8) < effective_threads(8, 8));
    }
}
