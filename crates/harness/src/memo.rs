//! Cross-session measurement memoization.
//!
//! A multi-session service (see the `jtune-server` crate) runs many
//! tuning sessions against the same workloads, and different sessions —
//! or one session resumed many times — keep re-measuring the same
//! `(configuration, noise seed)` points. For the simulator-backed
//! executor a measurement is a *pure function* of `(config, seed)`
//! (see [`Executor`]'s determinism contract), so a shared memo can
//! serve the identical [`Measurement`] a live run would produce —
//! byte-for-byte — which means memoization is completely invisible to
//! the per-session trace-determinism guarantee: a session gets the same
//! trace whether its runs were measured live or served from another
//! session's work.
//!
//! This is deliberately a *different layer* than [`crate::cache`]'s
//! [`crate::TrialCache`]: the trial cache memoizes whole protocol
//! evaluations *within* one session keyed by fingerprint alone (same
//! session ⇒ same seeds), and serving a hit changes the session's budget
//! accounting — it is a visible, budget-stretching feature. The
//! measurement memo keys on `(tag, fingerprint, seed)` so it can be
//! shared across sessions with different seeds while never changing any
//! observable number; hits only save host (wall-clock) time.
//!
//! Do **not** wrap a [`crate::ProcessExecutor`] in a [`MemoExecutor`]:
//! real JVM runs are not pure functions of their seed, and replaying one
//! observation as if it were a fresh sample would silently narrow the
//! measured distribution.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use jtune_flags::{JvmConfig, Registry};
use jtune_util::SimDuration;

use crate::executor::{Executor, Measurement, RunCounters};

/// A shared, thread-safe memo of executor measurements, keyed by
/// `(executor tag, configuration fingerprint, noise seed)`.
///
/// Wrap it in an `Arc` and hand a clone to one [`MemoExecutor`] per
/// session. The memo grows for the lifetime of the cache;
/// [`MeasurementCache::len`] reports the footprint so an owner can
/// decide when to drop and rebuild it. It keeps one B-tree per executor
/// tag: a B-tree grows a node at a time, so no insert ever rehashes or
/// doubles a table holding everything measured so far.
#[derive(Debug, Default)]
pub struct MeasurementCache {
    entries: Mutex<HashMap<u64, Table>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One executor tag's memo: `(fingerprint, seed)` → measurement.
type Table = BTreeMap<(u64, u64), Entry>;

/// One memoized measurement. A clean run with counters (every simulator
/// run that did not fail) is held inline in 56 bytes; anything else is
/// boxed. A `Measurement` itself is 96 bytes, so an entry with its key
/// shrinks from 112 bytes to 72.
#[derive(Debug)]
enum Entry {
    Run {
        time: SimDuration,
        pause_p99: Option<SimDuration>,
        counters: RunCounters,
    },
    Other(Box<Measurement>),
}

impl Entry {
    fn of(measurement: Measurement) -> Entry {
        match measurement {
            Measurement {
                time,
                pause_p99,
                counters: Some(counters),
                error: None,
            } => Entry::Run {
                time,
                pause_p99,
                counters,
            },
            other => Entry::Other(Box::new(other)),
        }
    }

    fn measurement(&self) -> Measurement {
        match self {
            Entry::Run {
                time,
                pause_p99,
                counters,
            } => Measurement {
                time: *time,
                pause_p99: *pause_p99,
                counters: Some(*counters),
                error: None,
            },
            Entry::Other(measurement) => (**measurement).clone(),
        }
    }
}

/// Stable key half for one executor: distinct workloads (or fault plans)
/// must never share entries, so the executor's `describe()` string is
/// hashed into every key.
fn tag_of(describe: &str) -> u64 {
    // FNV-1a: stable across runs (no RandomState), cheap, good enough
    // for a cache key that is also compared on the full fingerprint.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in describe.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl MeasurementCache {
    /// Empty shared cache.
    pub fn new() -> MeasurementCache {
        MeasurementCache::default()
    }

    /// Look up a prior measurement. Counts a global hit or miss.
    pub fn lookup(&self, tag: u64, fingerprint: u64, seed: u64) -> Option<Measurement> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let found = entries
            .get(&tag)
            .and_then(|table| table.get(&(fingerprint, seed)))
            .map(Entry::measurement);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Record a measurement (first insert wins, like the trial cache, so
    /// a cached answer never changes under a reader).
    pub fn insert(&self, tag: u64, fingerprint: u64, seed: u64, measurement: Measurement) {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(tag)
            .or_default()
            .entry((fingerprint, seed))
            .or_insert_with(|| Entry::of(measurement));
    }

    /// Distinct `(tag, fingerprint, seed)` points stored.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(BTreeMap::len)
            .sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits served across every attached executor.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses (live measurements) across every attached executor.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// An [`Executor`] wrapper that serves runs from a shared
/// [`MeasurementCache`] when possible and measures (then records) them
/// otherwise. Each wrapper keeps its own hit/miss counters so a
/// multi-session owner can surface per-session savings.
///
/// `describe()`, `registry()` and `fixed_overhead()` delegate to the
/// inner executor — a memoized session is indistinguishable from a live
/// one in every record it produces.
pub struct MemoExecutor<E> {
    inner: E,
    cache: std::sync::Arc<MeasurementCache>,
    tag: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<E: Executor> MemoExecutor<E> {
    /// Wrap `inner`, sharing `cache` with any other sessions holding it.
    pub fn new(inner: E, cache: std::sync::Arc<MeasurementCache>) -> MemoExecutor<E> {
        let tag = tag_of(&inner.describe());
        MemoExecutor {
            inner,
            cache,
            tag,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Runs this wrapper served from the shared cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Runs this wrapper measured live (and recorded).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The shared cache backing this wrapper.
    pub fn cache(&self) -> &std::sync::Arc<MeasurementCache> {
        &self.cache
    }
}

impl<E: Executor> Executor for MemoExecutor<E> {
    fn measure(&self, config: &JvmConfig, seed: u64) -> Measurement {
        let fingerprint = config.fingerprint();
        if let Some(prior) = self.cache.lookup(self.tag, fingerprint, seed) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return prior;
        }
        let measured = self.inner.measure(config, seed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cache
            .insert(self.tag, fingerprint, seed, measured.clone());
        measured
    }

    fn registry(&self) -> &Registry {
        self.inner.registry()
    }

    fn fixed_overhead(&self) -> SimDuration {
        self.inner.fixed_overhead()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimExecutor;
    use crate::TrialError;
    use jtune_jvmsim::Workload;
    use std::sync::Arc;

    fn executor(name: &str) -> SimExecutor {
        let mut w = Workload::baseline(name);
        w.total_work = 2e8;
        SimExecutor::new(w)
    }

    #[test]
    fn memo_returns_byte_identical_measurements() {
        let cache = Arc::new(MeasurementCache::new());
        let raw = executor("memo-test");
        let memo = MemoExecutor::new(executor("memo-test"), cache.clone());
        let c = JvmConfig::default_for(raw.registry());
        let live = raw.measure(&c, 9);
        let first = memo.measure(&c, 9); // miss: measured + recorded
        let second = memo.measure(&c, 9); // hit: served from the memo
        for m in [&first, &second] {
            assert_eq!(m.time, live.time);
            assert_eq!(m.pause_p99, live.pause_p99);
            assert_eq!(m.counters, live.counters);
            assert!(m.error.is_none());
        }
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sessions_share_but_seeds_and_workloads_do_not_collide() {
        let cache = Arc::new(MeasurementCache::new());
        let a = MemoExecutor::new(executor("memo-a"), cache.clone());
        let b = MemoExecutor::new(executor("memo-a"), cache.clone());
        let other = MemoExecutor::new(executor("memo-b"), cache.clone());
        let c = JvmConfig::default_for(a.registry());
        a.measure(&c, 1);
        // Same workload + same seed: session B hits session A's work.
        b.measure(&c, 1);
        assert_eq!(b.hits(), 1);
        // A different seed is a different measurement point.
        b.measure(&c, 2);
        assert_eq!(b.misses(), 1);
        // A different workload must never share entries.
        other.measure(&c, 1);
        assert_eq!(other.hits(), 0);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn entries_round_trip_every_measurement_shape() {
        let counters = RunCounters {
            gc_pause_total: SimDuration::from_millis(7),
            gc_collections: 3,
            jit_compile_time: SimDuration::from_millis(2),
            jit_compiles: 40,
        };
        let clean = Measurement {
            time: SimDuration::from_secs(5),
            pause_p99: Some(SimDuration::from_millis(4)),
            counters: Some(counters),
            error: None,
        };
        let failed = Measurement {
            error: Some(TrialError::Oom("heap".into())),
            ..clean.clone()
        };
        let bare = Measurement {
            pause_p99: None,
            counters: None,
            ..clean.clone()
        };
        for m in [clean, failed, bare] {
            let back = Entry::of(m.clone()).measurement();
            assert_eq!(back.time, m.time);
            assert_eq!(back.pause_p99, m.pause_p99);
            assert_eq!(back.counters, m.counters);
            assert_eq!(back.error, m.error);
        }
        assert!(std::mem::size_of::<Entry>() < std::mem::size_of::<Measurement>());
    }

    #[test]
    fn delegated_metadata_is_indistinguishable_from_the_inner_executor() {
        let cache = Arc::new(MeasurementCache::new());
        let raw = executor("memo-meta");
        let memo = MemoExecutor::new(executor("memo-meta"), cache);
        assert_eq!(memo.describe(), raw.describe());
        assert_eq!(memo.fixed_overhead(), raw.fixed_overhead());
    }
}
