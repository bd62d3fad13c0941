//! Workload characterisation.
//!
//! A [`Workload`] is everything the simulator needs to know about a Java
//! program: how much abstract work it does, how it allocates, how its
//! object lifetimes distribute, how its hot methods look to the JIT, and
//! how it synchronises. The `jtune-workloads` crate provides calibrated
//! instances named after the SPECjvm2008 and DaCapo programs; this module
//! defines the schema and its invariants.

/// A simulated Java program.
///
/// All `*_density` fields are *per work unit*; one work unit corresponds
/// loosely to one bytecode-level operation batch. Interpreted execution
/// retires [`crate::engine::INTERP_UNITS_PER_SEC`] units per second per
/// thread, so `total_work = 5e9` is roughly a two-minute interpreted run or
/// a ten-second fully-JIT-compiled one.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name (`"compress"`, `"avrora"`, …).
    pub name: String,
    /// Total abstract work units to retire.
    pub total_work: f64,
    /// Application threads retiring work concurrently.
    pub threads: u32,
    /// Bytes allocated per work unit.
    pub alloc_rate: f64,
    /// Mean allocated-object size in bytes.
    pub mean_object_size: f64,
    /// Fraction of allocated *bytes* in humongous objects (≥ half a G1
    /// region); these bypass eden under G1 and fragment other collectors.
    pub humongous_fraction: f64,
    /// Fraction of allocated bytes still live at their first minor
    /// collection (the weak generational hypothesis says this is small).
    pub nursery_survival: f64,
    /// Of the bytes that survive nursery collection, the fraction that die
    /// "soon" in the old generation — reclaimable by concurrent collectors
    /// without a full compaction.
    pub mid_life_fraction: f64,
    /// Steady-state live set in bytes (long-lived data).
    pub live_set: f64,
    /// Number of distinct hot methods (the JIT working set).
    pub hot_methods: u32,
    /// Zipf skew of hot-method invocation frequency (≥ 0; larger = a few
    /// methods dominate and warm up fast).
    pub hotness_skew: f64,
    /// Mean bytecode size of hot methods (inlining interacts with this).
    pub mean_method_size: f64,
    /// Method calls per work unit (inlining benefit scales with this).
    pub call_density: f64,
    /// Monitor operations per work unit.
    pub lock_density: f64,
    /// Probability that a monitor operation is contended.
    pub lock_contention: f64,
    /// Reference (pointer) loads per work unit; compressed-oops sensitivity.
    pub pointer_density: f64,
    /// Fraction of work that streams linearly through arrays; allocation-
    /// prefetch and large-page sensitivity.
    pub array_stream_fraction: f64,
    /// Fraction of work in `java.lang.Math`-style kernels (intrinsics).
    pub fp_fraction: f64,
    /// Classes loaded during startup.
    pub classes_loaded: u32,
}

impl Workload {
    /// A neutral mid-size workload; tests and examples start from this and
    /// override fields.
    pub fn baseline(name: &str) -> Workload {
        Workload {
            name: name.to_string(),
            total_work: 4e9,
            threads: 4,
            alloc_rate: 0.8,
            mean_object_size: 48.0,
            humongous_fraction: 0.0,
            nursery_survival: 0.06,
            mid_life_fraction: 0.3,
            live_set: 120e6,
            hot_methods: 400,
            hotness_skew: 1.0,
            mean_method_size: 60.0,
            call_density: 0.02,
            lock_density: 0.001,
            lock_contention: 0.02,
            pointer_density: 0.3,
            array_stream_fraction: 0.3,
            fp_fraction: 0.2,
            classes_loaded: 2500,
        }
    }

    /// Check the schema invariants, returning the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let frac = |v: f64, what: &str| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{}: {what} = {v} outside [0,1]", self.name))
            }
        };
        if self.total_work <= 0.0 {
            return Err(format!("{}: total_work must be positive", self.name));
        }
        if self.threads == 0 {
            return Err(format!("{}: threads must be positive", self.name));
        }
        if self.alloc_rate < 0.0 {
            return Err(format!("{}: alloc_rate negative", self.name));
        }
        if self.mean_object_size < 8.0 {
            return Err(format!("{}: objects smaller than a header", self.name));
        }
        if self.live_set < 0.0 {
            return Err(format!("{}: live_set negative", self.name));
        }
        if self.hot_methods == 0 {
            return Err(format!("{}: hot_methods must be positive", self.name));
        }
        if self.hotness_skew < 0.0 {
            return Err(format!("{}: hotness_skew negative", self.name));
        }
        frac(self.humongous_fraction, "humongous_fraction")?;
        frac(self.nursery_survival, "nursery_survival")?;
        frac(self.mid_life_fraction, "mid_life_fraction")?;
        frac(self.lock_contention, "lock_contention")?;
        frac(self.array_stream_fraction, "array_stream_fraction")?;
        frac(self.fp_fraction, "fp_fraction")?;
        Ok(())
    }

    // ---- builder-style adjusters (each returns the modified workload,
    // so profiles can be derived fluently from the built-in ones) ----

    /// Scale the total work (run length) by `factor`.
    pub fn scaled(mut self, factor: f64) -> Workload {
        self.total_work = (self.total_work * factor.max(0.0)).max(1.0);
        self
    }

    /// Replace the thread count.
    pub fn with_threads(mut self, threads: u32) -> Workload {
        self.threads = threads.max(1);
        self
    }

    /// Replace the allocation rate (bytes per work unit).
    pub fn with_alloc_rate(mut self, rate: f64) -> Workload {
        self.alloc_rate = rate.max(0.0);
        self
    }

    /// Replace the steady-state live set.
    pub fn with_live_set(mut self, bytes: f64) -> Workload {
        self.live_set = bytes.max(0.0);
        self
    }

    /// Rename (derived profiles should not shadow their parent's name in
    /// reports).
    pub fn named(mut self, name: &str) -> Workload {
        self.name = name.to_string();
        self
    }

    /// Rough classification used in reports: a workload is *startup
    /// sensitive* when an ideal fully-compiled single thread would retire
    /// its work in under ~4 s, so warm-up and class loading are first-order
    /// costs (the SPECjvm2008 startup suite by construction).
    pub fn startup_sensitive(&self) -> bool {
        let ideal_secs =
            self.total_work / (crate::engine::INTERP_UNITS_PER_SEC * crate::engine::C2_SPEEDUP);
        ideal_secs < 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        assert_eq!(Workload::baseline("x").validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut w = Workload::baseline("bad");
        w.nursery_survival = 1.5;
        assert!(w.validate().is_err());
        let mut w = Workload::baseline("bad");
        w.total_work = 0.0;
        assert!(w.validate().is_err());
        let mut w = Workload::baseline("bad");
        w.threads = 0;
        assert!(w.validate().is_err());
        let mut w = Workload::baseline("bad");
        w.mean_object_size = 4.0;
        assert!(w.validate().is_err());
        let mut w = Workload::baseline("bad");
        w.hot_methods = 0;
        assert!(w.validate().is_err());
    }

    #[test]
    fn builder_adjusters_compose_and_stay_valid() {
        let w = Workload::baseline("base")
            .scaled(2.0)
            .with_threads(16)
            .with_alloc_rate(3.5)
            .with_live_set(1e9)
            .named("derived");
        assert_eq!(w.name, "derived");
        assert_eq!(w.total_work, 8e9);
        assert_eq!(w.threads, 16);
        assert_eq!(w.alloc_rate, 3.5);
        assert_eq!(w.live_set, 1e9);
        assert_eq!(w.validate(), Ok(()));
    }

    #[test]
    fn builder_adjusters_clamp_degenerate_inputs() {
        let w = Workload::baseline("x")
            .scaled(-1.0)
            .with_threads(0)
            .with_alloc_rate(-5.0)
            .with_live_set(-1.0);
        assert!(w.total_work >= 1.0);
        assert_eq!(w.threads, 1);
        assert_eq!(w.alloc_rate, 0.0);
        assert_eq!(w.live_set, 0.0);
        assert_eq!(w.validate(), Ok(()));
    }

    #[test]
    fn startup_sensitivity_follows_work() {
        let mut w = Workload::baseline("short");
        w.total_work = 1e9;
        assert!(w.startup_sensitive());
        w.total_work = 1e12;
        assert!(!w.startup_sensitive());
    }
}
