//! Fair-share scheduling of measurement slots across sessions.
//!
//! Every live measurement in the daemon — regardless of which session's
//! worker thread wants to run it — first acquires a permit from the
//! shared [`FairScheduler`]. Permits are granted round-robin over the
//! sessions that currently have waiters, so a session with a huge batch
//! or many workers cannot starve a small one: with S sessions waiting it
//! gets ~1/S of the measurement slots, whatever its own parallelism.
//!
//! **Fairness invariant:** between two consecutive grants to session A,
//! every other session that had a waiter for the whole interval receives
//! at least one grant.
//!
//! The gate changes only *when* a measurement runs, never its inputs
//! (config and seed) or its result — sessions stay bit-deterministic
//! under any scheduling interleaving. The scheduler also keeps
//! per-session accounting (grants and virtual cost) that `status`
//! surfaces.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use jtune_flags::{JvmConfig, Registry};
use jtune_harness::{Executor, Measurement};
use jtune_util::SimDuration;

#[derive(Debug, Default)]
struct SchedState {
    free: usize,
    /// Waiter count per session with at least one waiter.
    waiting: HashMap<u64, usize>,
    /// Round-robin rotation of sessions with waiters.
    rotation: VecDeque<u64>,
    /// Total permits granted per session.
    grants: HashMap<u64, u64>,
    /// Total measured virtual nanoseconds per session.
    cost_nanos: HashMap<u64, u64>,
}

/// Round-robin measurement-slot scheduler; see the module docs.
#[derive(Debug)]
pub struct FairScheduler {
    state: Mutex<SchedState>,
    turn: Condvar,
}

impl FairScheduler {
    /// A scheduler with `slots` concurrent measurement permits (at
    /// least 1).
    pub fn new(slots: usize) -> FairScheduler {
        FairScheduler {
            state: Mutex::new(SchedState {
                free: slots.max(1),
                ..SchedState::default()
            }),
            turn: Condvar::new(),
        }
    }

    /// Block until it is `sid`'s turn and a slot is free; returns a
    /// permit that releases the slot on drop.
    pub fn acquire(&self, sid: u64) -> SchedPermit<'_> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        *st.waiting.entry(sid).or_insert(0) += 1;
        if !st.rotation.contains(&sid) {
            st.rotation.push_back(sid);
        }
        loop {
            if st.free > 0 && st.rotation.front() == Some(&sid) {
                st.free -= 1;
                // This session takes its turn: rotate it to the back if
                // it still has other waiters, drop it otherwise.
                st.rotation.pop_front();
                let remaining = {
                    // Registered at entry; the entry form keeps this
                    // panic-free even if that invariant ever slips.
                    let w = st.waiting.entry(sid).or_insert(1);
                    *w = w.saturating_sub(1);
                    *w
                };
                if remaining > 0 {
                    st.rotation.push_back(sid);
                } else {
                    st.waiting.remove(&sid);
                }
                *st.grants.entry(sid).or_insert(0) += 1;
                // Wake siblings: the head of the rotation may already
                // have a free slot to claim.
                self.turn.notify_all();
                return SchedPermit { sched: self };
            }
            st = self.turn.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.free += 1;
        drop(st);
        self.turn.notify_all();
    }

    /// Record `cost` of measured virtual time against `sid`.
    pub fn charge(&self, sid: u64, cost: SimDuration) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        *st.cost_nanos.entry(sid).or_insert(0) += cost.as_nanos();
    }

    /// Permits granted to `sid` so far.
    pub fn grants(&self, sid: u64) -> u64 {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.grants.get(&sid).copied().unwrap_or(0)
    }

    /// Virtual time measured under `sid`'s permits so far.
    pub fn charged(&self, sid: u64) -> SimDuration {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        SimDuration::from_nanos(st.cost_nanos.get(&sid).copied().unwrap_or(0))
    }

    /// Waiters currently blocked for `sid` (used by tests to observe
    /// the queue deterministically).
    pub fn waiting(&self, sid: u64) -> usize {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.waiting.get(&sid).copied().unwrap_or(0)
    }
}

/// RAII permit from [`FairScheduler::acquire`].
#[derive(Debug)]
pub struct SchedPermit<'a> {
    sched: &'a FairScheduler,
}

impl Drop for SchedPermit<'_> {
    fn drop(&mut self) {
        self.sched.release();
    }
}

/// An [`Executor`] wrapper that runs every measurement under a
/// fair-share permit for its session, and charges the measured virtual
/// time to the session's scheduler account.
///
/// Everything observable delegates to the inner executor; the gate can
/// only delay a measurement, never change it.
pub struct GatedExecutor<E> {
    inner: E,
    sched: Arc<FairScheduler>,
    sid: u64,
}

impl<E: Executor> GatedExecutor<E> {
    /// Gate `inner` behind `sched` on behalf of session `sid`.
    pub fn new(inner: E, sched: Arc<FairScheduler>, sid: u64) -> GatedExecutor<E> {
        GatedExecutor { inner, sched, sid }
    }
}

impl<E: Executor> Executor for GatedExecutor<E> {
    fn measure(&self, config: &JvmConfig, seed: u64) -> Measurement {
        let permit = self.sched.acquire(self.sid);
        let measured = self.inner.measure(config, seed);
        drop(permit);
        self.sched.charge(self.sid, measured.time);
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
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn spin_until(deadline_ms: u64, mut done: impl FnMut() -> bool) {
        let start = std::time::Instant::now();
        while !done() {
            assert!(
                start.elapsed() < Duration::from_millis(deadline_ms),
                "condition not reached in {deadline_ms} ms"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn grants_rotate_round_robin_over_waiting_sessions() {
        let sched = Arc::new(FairScheduler::new(1));
        // Session 1 holds the only slot while 2, 3 and a second waiter
        // for 1 queue up behind it.
        let held = sched.acquire(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        for sid in [2u64, 3, 1] {
            let sched = Arc::clone(&sched);
            let order = Arc::clone(&order);
            // Register waiters one at a time so the rotation order is
            // deterministic: [2, 3, 1].
            spin_until(5000, || match sid {
                2 => true,
                3 => sched.waiting(2) == 1,
                _ => sched.waiting(3) == 1,
            });
            threads.push(std::thread::spawn(move || {
                let permit = sched.acquire(sid);
                order.lock().expect("order mutex healthy").push(sid);
                drop(permit);
            }));
        }
        spin_until(5000, || sched.waiting(1) == 1);
        drop(held);
        for t in threads {
            t.join().expect("waiter thread exits cleanly");
        }
        assert_eq!(*order.lock().expect("order mutex healthy"), vec![2, 3, 1]);
        assert_eq!(sched.grants(1), 2);
        assert_eq!(sched.grants(2), 1);
        assert_eq!(sched.grants(3), 1);
    }

    #[test]
    fn a_greedy_session_cannot_starve_a_waiting_one() {
        let sched = Arc::new(FairScheduler::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        // Session 1 hammers the scheduler in a tight loop.
        let greedy = {
            let sched = Arc::clone(&sched);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    drop(sched.acquire(1));
                }
            })
        };
        // Session 2 asks exactly five times; each must be served.
        for _ in 0..5 {
            drop(sched.acquire(2));
        }
        stop.store(true, Ordering::Relaxed);
        greedy.join().expect("greedy thread exits cleanly");
        assert_eq!(sched.grants(2), 5);
    }

    /// Seeded sequences of acquire, release and charge over 2–4
    /// sessions and 1–3 slots. Each acquire blocks on its own thread and
    /// holds its permit until a later release step. Once a step settles,
    /// the permits in use never exceed the slots, `grants` and `charged`
    /// equal the model's sums, and the fairness invariant of the module
    /// docs holds: between two grants to one session, every other session
    /// that waited the whole interval was granted.
    #[test]
    fn generated_sequences_keep_slots_fairness_and_accounting() {
        use jtune_util::{Rng, Xoshiro256pp};
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;

        const CASES: u64 = 64;
        const STEPS: usize = 80;
        for case in 0..CASES {
            let seed = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5c4ed;
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let sessions = 2 + rng.next_below(3) as usize;
            let slots = 1 + rng.next_below(3) as usize;
            let sched = FairScheduler::new(slots);
            let (in_use, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            // Waiter numbers in the order their acquire returned.
            let granted = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                let (sched, in_use, peak, granted) = (&sched, &in_use, &peak, &granted);
                // Per waiter: its session and the sender that releases it.
                let mut waiters = Vec::new();
                let mut held: Vec<(usize, std::thread::ScopedJoinHandle<'_, ()>)> = Vec::new();
                let mut pending = Vec::new();
                let (mut acquired, mut released) = (0usize, 0usize);
                let (mut grants, mut charged) = (vec![0u64; sessions], vec![0u64; sessions]);
                // Per session: the step of its last grant, and the first
                // step since which it has had a waiter after every step.
                let mut last_grant: Vec<Option<usize>> = vec![None; sessions];
                let mut waiting_from: Vec<Option<usize>> = vec![None; sessions];
                let mut step = 0;
                while step < STEPS || acquired > released {
                    let op = if step < STEPS { rng.next_below(10) } else { 9 };
                    match op {
                        0..=3 if acquired - released < 8 => {
                            let s = rng.next_below(sessions as u64) as usize;
                            let k = waiters.len();
                            let (release, wait) = mpsc::channel::<()>();
                            waiters.push((s, release));
                            pending.push((
                                k,
                                scope.spawn(move || {
                                    let permit = sched.acquire(s as u64 + 1);
                                    let now = in_use.fetch_add(1, Ordering::SeqCst) + 1;
                                    peak.fetch_max(now, Ordering::SeqCst);
                                    granted.lock().expect("log mutex healthy").push(k);
                                    let _ = wait.recv();
                                    in_use.fetch_sub(1, Ordering::SeqCst);
                                    drop(permit);
                                }),
                            ));
                            acquired += 1;
                        }
                        4..=6 => {
                            let s = rng.next_below(sessions as u64) as usize;
                            let nanos = rng.next_below(1_000_000_000);
                            sched.charge(s as u64 + 1, SimDuration::from_nanos(nanos));
                            charged[s] += nanos;
                        }
                        _ if !held.is_empty() => {
                            let (k, thread) =
                                held.swap_remove(rng.next_below(held.len() as u64) as usize);
                            waiters[k].1.send(()).expect("holder waits for its release");
                            thread.join().expect("holder exits cleanly");
                            released += 1;
                        }
                        _ => {}
                    }
                    // Settled: every permit a free slot allows is granted,
                    // and every other acquire is registered as a waiter.
                    let expect = released + (acquired - released).min(slots);
                    spin_until(5000, || {
                        let waiting: usize =
                            (1..=sessions as u64).map(|sid| sched.waiting(sid)).sum();
                        granted.lock().expect("log mutex healthy").len() == expect
                            && waiting == acquired - expect
                    });
                    let log = granted.lock().expect("log mutex healthy").clone();
                    let new = &log[held.len() + released..];
                    assert!(
                        new.len() <= 1,
                        "case {case} step {step}: one step, {} grants",
                        new.len()
                    );
                    if let Some(&k) = new.first() {
                        let a = waiters[k].0;
                        let i = pending
                            .iter()
                            .position(|(w, _)| *w == k)
                            .expect("granted once");
                        held.push(pending.swap_remove(i));
                        grants[a] += 1;
                        if let Some(t1) = last_grant[a] {
                            for b in (0..sessions).filter(|&b| b != a) {
                                let waited = waiting_from[b].is_some_and(|from| from <= t1);
                                assert!(
                                    !waited || last_grant[b].is_some_and(|g| g > t1),
                                    "case {case} step {step}: session {} granted twice while {} waited",
                                    a + 1,
                                    b + 1
                                );
                            }
                        }
                        last_grant[a] = Some(step);
                    }
                    for (s, from) in waiting_from.iter_mut().enumerate() {
                        *from = (sched.waiting(s as u64 + 1) > 0).then(|| from.unwrap_or(step));
                    }
                    assert!(
                        peak.load(Ordering::SeqCst) <= slots,
                        "case {case}: over {slots} slots"
                    );
                    assert_eq!(in_use.load(Ordering::SeqCst), held.len(), "case {case}");
                    for s in 0..sessions {
                        let sid = s as u64 + 1;
                        assert_eq!(sched.grants(sid), grants[s], "case {case} step {step}");
                        assert_eq!(sched.charged(sid).as_nanos(), charged[s], "case {case}");
                    }
                    step += 1;
                }
            });
        }
    }

    #[test]
    fn accounting_tracks_charges_per_session() {
        let sched = FairScheduler::new(2);
        sched.charge(7, SimDuration::from_secs_f64(1.5));
        sched.charge(7, SimDuration::from_secs_f64(0.5));
        sched.charge(8, SimDuration::from_secs_f64(3.0));
        assert!((sched.charged(7).as_secs_f64() - 2.0).abs() < 1e-9);
        assert!((sched.charged(8).as_secs_f64() - 3.0).abs() < 1e-9);
        assert_eq!(sched.charged(9), SimDuration::ZERO);
    }
}
