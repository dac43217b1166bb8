//! The persistent worker pool — spawn once, launch many, and launch
//! at the cost of the work.
//!
//! [`WorkerPool`] is the persistent-thread-block analogue the paper's
//! kernels rely on: one pool per [`CpuExecutor`](crate::CpuExecutor),
//! built on first use, reused for every subsequent launch. A pool of
//! `W` workers is the launching thread plus `W - 1` *helper* threads:
//! whoever calls [`WorkerPool::run`] **is worker 0** for that launch,
//! so a launch never starts by putting its caller to sleep and a
//! one-worker pool owns no thread at all.
//!
//! Across launches each worker keeps a [`ScratchStore`] of warm
//! per-worker state (the executor stashes its `Workspace` arenas
//! there), so the steady state allocates nothing and touches only
//! resident pages. A helper's store lives on its thread; worker 0's
//! lives in the pool, behind the launch lock, so every launcher thread
//! finds the same warm store. State that outlives launches but belongs
//! to no one worker — the executor's pack arena, its trace rings —
//! lives in one more store on the pool itself
//! ([`WorkerPool::launch_scratch`]) and is freed with it.
//!
//! **Launch protocol.** One launch is one *epoch*:
//!
//! 1. **Open.** `run` publishes the job — a
//!    `Fn(worker_id, &mut ScratchStore)` — under the state mutex,
//!    bumps the epoch counter, and notifies helpers that are parked
//!    (none are, when launches come back to back).
//! 2. **Share.** The launcher runs `job(0, ..)` itself. A helper that
//!    sees the new epoch *enters* — under the mutex, while the job is
//!    still published — and runs `job(id, ..)`.
//! 3. **Close.** When the launcher's share returns it unpublishes the
//!    job under the mutex. A helper that arrives later finds the epoch
//!    closed and **skips it**: nobody waits for a worker that has not
//!    started, so a grid the launcher drained alone costs no wake-up.
//!    Every job is therefore a *claim loop* — work is taken from a
//!    shared scheduler or cursor, never assumed from "my id runs" —
//!    and an id that never ran is covered by the ids that did.
//! 4. **Drain.** `run` waits for the helpers that did enter, then
//!    re-raises the first panic of the epoch (the launcher's own share
//!    runs under `catch_unwind` like a helper's), so a panicking grid
//!    cannot poison the pool for later launches.
//!
//! The epoch stays open for as long as the launcher is inside its
//! share, so a job whose workers wait on each other (the service's
//! sweep, a launch's final blocking drain) still gets every helper:
//! they are skipped only once the launcher, and with it the claim
//! loop, is done.
//!
//! **Waiting.** Both waits — a helper for the next epoch, the launcher
//! for entered helpers — first descend the spin and yield rungs of the
//! crate's one backoff ladder ([`WaitPolicy::poll`]) on an atomic, and
//! only then park on a condvar. Back-to-back launches therefore hand
//! work over through a cache line instead of two futex wake-ups of a
//! halted core; an idle host pays at most the ladder's spin + yield
//! rungs per helper after the last launch, then nothing.

use crate::fixup::WaitPolicy;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Pools constructed process-wide — lets tests pin the "one executor,
/// one pool, N launches" property.
static POOL_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// The job signature workers execute: `(worker_id, scratch)`.
type Job = dyn Fn(usize, &mut ScratchStore) + Sync;

/// Typed per-worker scratch that survives across launches.
///
/// One store belongs to each worker for the pool's whole lifetime (a
/// helper's on its thread, worker 0's in the pool). Launch code
/// fetches (or lazily builds) a typed slot — e.g.
/// `Workspace<f32, f32>` — so arenas stay warm between GEMMs: pack
/// panels, accumulator tiles, and partial pools are allocated for the
/// worker that will use them and never again.
#[derive(Debug, Default)]
pub struct ScratchStore {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl ScratchStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of type `T`, built with `make` on first use.
    pub fn get_or_insert_with<T: Any + Send>(&mut self, make: impl FnOnce() -> T) -> &mut T {
        self.slots
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(make()))
            .downcast_mut::<T>()
            .expect("slot keyed by its own TypeId")
    }

    /// Number of typed slots currently held.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

struct PoolState {
    /// The open epoch's job, lifetime-erased. `Some` from the moment
    /// `run` opens an epoch until its launcher closes it; a helper may
    /// enter only while it is `Some`.
    job: Option<&'static Job>,
    /// Helpers parked on `work_cv` (so `run` can skip the notify when
    /// every helper is still on the ladder's spin rungs).
    parked: usize,
    /// First panic of the epoch, re-raised by [`WorkerPool::run`].
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
    /// Injected entry delays by worker id; empty outside fault
    /// campaigns (see [`WorkerPool::inject_stragglers`]).
    stragglers: Vec<Duration>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Launches opened so far. Written only under `state`; helpers
    /// between launches probe it lock-free from the ladder.
    epoch: AtomicU64,
    /// Helpers inside the current epoch's job. Incremented only under
    /// `state` and only while the epoch is open; the launcher probes
    /// it lock-free after closing.
    active: AtomicUsize,
    /// Helpers park here between launches.
    work_cv: Condvar,
    /// The launcher parks here until `active` drains to zero.
    done_cv: Condvar,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's attempt to join the current epoch, `st` held: marks
    /// the epoch seen and, if the launcher has not closed it yet,
    /// counts the helper in and hands it the job. `None` means the
    /// epoch is closed (or there is none): the helper skips it.
    fn try_enter(&self, st: &mut PoolState, seen: &mut u64) -> Option<&'static Job> {
        *seen = self.epoch.load(Ordering::Relaxed);
        let job = st.job?;
        self.active.fetch_add(1, Ordering::Relaxed);
        Some(job)
    }

    /// Blocks helper `id` until it has entered an epoch it has not
    /// seen (skipping every epoch that closed before it arrived);
    /// `None` on shutdown.
    fn next_job(&self, id: usize, seen: &mut u64) -> Option<&'static Job> {
        loop {
            // Acquire pairs with the Release bump in `run`; the job
            // itself is read under the mutex below.
            let fresh = || (self.epoch.load(Ordering::Acquire) != *seen).then_some(());
            let _ = WaitPolicy::default().poll(fresh);
            let mut st = self.lock();
            while !st.shutdown && self.epoch.load(Ordering::Relaxed) == *seen {
                st.parked += 1;
                st = self.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.parked -= 1;
            }
            if st.shutdown {
                return None;
            }
            if let Some(&delay) = st.stragglers.get(id).filter(|d| !d.is_zero()) {
                drop(st);
                std::thread::sleep(delay);
                st = self.lock();
            }
            if let Some(job) = self.try_enter(&mut st, seen) {
                return Some(job);
            }
        }
    }

    /// A helper's exit from the epoch it entered: records its panic,
    /// counts it out, and wakes the launcher if it may be parked.
    fn leave(&self, outcome: std::thread::Result<()>) {
        let mut st = self.lock();
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        // Release pairs with the launcher's Acquire probe in `run`:
        // everything this helper did inside the job happens-before
        // `run` returning.
        let left = self.active.fetch_sub(1, Ordering::Release) - 1;
        // The launcher waits only after closing, so an open epoch has
        // nobody to wake.
        if left == 0 && st.job.is_none() {
            self.done_cv.notify_one();
        }
    }
}

/// A fixed-size pool of persistent workers: the launching thread plus
/// `workers - 1` helper threads (see module docs).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// The helper threads, ids `1..workers`.
    handles: Vec<JoinHandle<()>>,
    /// Worker 0's scratch store. Its lock is the launch lock: holding
    /// it serializes launches (one epoch in flight per pool) and is
    /// what lets any launcher thread find the same warm store.
    launcher: Mutex<ScratchStore>,
    /// Launch-level scratch; see [`WorkerPool::launch_scratch`].
    launch_scratch: Mutex<ScratchStore>,
    launches: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("launches", &self.launches.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Builds a pool of exactly `workers` workers: the thread that
    /// calls [`run`](Self::run) is worker 0, so this spawns
    /// `workers - 1` persistent helper threads (none for a one-worker
    /// pool).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or the OS refuses to spawn a thread.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        POOL_BUILDS.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                parked: 0,
                panic: None,
                shutdown: false,
                stragglers: Vec::new(),
            }),
            epoch: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("streamk-worker-{id}"))
                    .spawn(move || helper_main(&shared, id))
                    .expect("spawn pool helper")
            })
            .collect();
        Self {
            shared,
            handles,
            launcher: Mutex::default(),
            launch_scratch: Mutex::default(),
            launches: AtomicUsize::new(0),
        }
    }

    /// Number of workers in this pool, the launching thread included.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Launches completed by this pool so far.
    #[must_use]
    pub fn launches(&self) -> usize {
        self.launches.load(Ordering::Relaxed)
    }

    /// The launch-level [`ScratchStore`]: typed state a launcher keeps
    /// from one launch to the next that no single worker owns, beside
    /// the per-worker stores the job closure sees. It lives exactly as
    /// long as the pool. Take what a launch needs out of the store and
    /// put it back afterwards rather than holding this guard across
    /// [`run`](Self::run).
    pub fn launch_scratch(&self) -> MutexGuard<'_, ScratchStore> {
        self.launch_scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pools constructed process-wide since program start.
    #[must_use]
    pub fn total_builds() -> usize {
        POOL_BUILDS.load(Ordering::Relaxed)
    }

    /// Fault injection for the launch handshake: from the next launch
    /// on, worker `id` sleeps `delays[id]` at the top of every epoch —
    /// a helper before it tries to enter (so a long delay makes it
    /// arrive after the close and skip), worker 0 after opening the
    /// epoch and before its share (so the helpers drain the grid). An
    /// empty vector, the default, switches injection off. Results must
    /// not depend on it: that is what the straggler campaigns in
    /// `tests/sched.rs` pin.
    pub fn inject_stragglers(&self, delays: Vec<Duration>) {
        self.shared.lock().stragglers = delays;
    }

    /// Runs `job` as one launch: the calling thread executes
    /// `job(0, ..)` with worker 0's scratch, every helper that arrives
    /// before that share returns executes `job(id, ..)` with its own,
    /// and `run` returns once all of them are done. A helper that
    /// arrives later skips the launch, so `job` must not assume any
    /// id other than 0 runs — claim work, do not index it by worker.
    /// Concurrent callers are serialized (one launch in flight).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of the launch — the launcher's own
    /// share included — after every worker that entered has left, so
    /// the pool stays consistent.
    pub fn run(&self, job: &(dyn Fn(usize, &mut ScratchStore) + Sync)) {
        let mut scratch = self.launcher.lock().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: the erased reference is reachable only through
        // `PoolState::job`, and only while the epoch opened below is
        // open. (1) No helper enters after the close: a helper obtains
        // the reference in `try_enter`, under the state mutex, only
        // while `job` is `Some`, and counts itself into `active` in
        // the same critical section; the close below sets `job` to
        // `None` under that mutex, so every entry either precedes the
        // close (and is already counted) or finds `None`. (2) `run`
        // returns after every entered helper left: after the close
        // `active` can only fall, and `run` does not return before it
        // has read zero with Acquire, pairing with the Release
        // decrement each helper performs in `leave` after its last use
        // of the reference. Nothing between open and close can unwind
        // — the one fallible call, the launcher's share, runs under
        // `catch_unwind` — so the close is always reached. The erased
        // reference therefore never outlives the borrow it came from.
        #[allow(clippy::missing_transmute_annotations)]
        let erased: &'static Job = unsafe { std::mem::transmute(job) };
        let delay = {
            let mut st = self.shared.lock();
            st.job = Some(erased);
            self.shared.epoch.fetch_add(1, Ordering::Release);
            if st.parked > 0 {
                self.shared.work_cv.notify_all();
            }
            st.stragglers.first().copied().filter(|d| !d.is_zero())
        };
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| job(0, &mut scratch)));
        let panic = {
            let mut st = self.shared.lock();
            st.job = None;
            if let Err(payload) = outcome {
                st.panic.get_or_insert(payload);
            }
            let drained =
                || (self.shared.active.load(Ordering::Acquire) == 0).then_some(());
            if drained().is_none() {
                // Helpers are still inside: spin and yield off the
                // lock, and park only if the ladder runs out.
                drop(st);
                let _ = WaitPolicy::default().poll(drained);
                st = self.shared.lock();
                while drained().is_none() {
                    st = self.shared.done_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
            st.panic.take()
        };
        self.launches.fetch_add(1, Ordering::Relaxed);
        drop(scratch);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn helper_main(shared: &PoolShared, id: usize) {
    let mut scratch = ScratchStore::new();
    let mut seen = 0u64;
    while let Some(job) = shared.next_job(id, &mut seen) {
        // Catch panics so one bad launch cannot take the pool down;
        // `run` re-raises the first payload on the launching thread.
        shared.leave(catch_unwind(AssertUnwindSafe(|| job(id, &mut scratch))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// Spins (yielding) until `flag` is set.
    fn await_flag(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    /// Runs one launch in which every worker rendezvouses at a
    /// barrier: the launcher cannot leave its share — so the epoch
    /// cannot close — before every helper has entered. Returns the
    /// thread each id ran on and the address of a buffer in its
    /// scratch store.
    fn rendezvous(pool: &WorkerPool) -> Vec<(ThreadId, usize)> {
        let barrier = Barrier::new(pool.workers());
        let seen = Mutex::new(vec![None; pool.workers()]);
        pool.run(&|id, scratch| {
            barrier.wait();
            let buf = scratch.get_or_insert_with(|| vec![0u8; 4096]);
            seen.lock().unwrap()[id] = Some((std::thread::current().id(), buf.as_ptr() as usize));
        });
        seen.into_inner().unwrap().into_iter().map(|s| s.expect("every id ran")).collect()
    }

    #[test]
    fn the_launcher_runs_as_worker_zero_on_its_own_thread() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4, "workers() counts the launching thread");
        assert_eq!(pool.handles.len(), 3, "a pool of W spawns W - 1 helpers");
        let ran = rendezvous(&pool);
        assert_eq!(ran[0].0, std::thread::current().id(), "id 0 is the calling thread");
        for (id, (thread, _)) in ran.iter().enumerate().skip(1) {
            assert_ne!(*thread, ran[0].0, "helper {id} must not run on the launcher");
        }
        assert_eq!(pool.launches(), 1);
    }

    #[test]
    fn a_one_worker_pool_spawns_no_thread() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        assert!(pool.handles.is_empty());
        let ran = rendezvous(&pool);
        assert_eq!(ran, vec![(std::thread::current().id(), ran[0].1)]);
    }

    #[test]
    fn scratch_is_warm_across_launches_and_launcher_threads() {
        let pool = WorkerPool::new(3);
        // Two different launcher threads, then this one: worker 0's
        // store lives in the pool, so all three find the same buffer;
        // each helper keeps its own.
        let first = std::thread::scope(|s| s.spawn(|| rendezvous(&pool)).join().unwrap());
        let second = std::thread::scope(|s| s.spawn(|| rendezvous(&pool)).join().unwrap());
        let third = rendezvous(&pool);
        assert_ne!(first[0].0, second[0].0, "two distinct launcher threads");
        let buffers = |ran: &[(ThreadId, usize)]| ran.iter().map(|r| r.1).collect::<Vec<_>>();
        assert_eq!(buffers(&first), buffers(&second), "warm scratch must be reused, not reallocated");
        assert_eq!(buffers(&first), buffers(&third));
    }

    /// The close/skip rule, with the test thread playing helper 1 of a
    /// pool that has no real helpers, so every interleaving is forced.
    #[test]
    fn a_helper_held_back_past_the_close_skips_that_epoch_and_runs_the_next() {
        let pool = WorkerPool::new(1);
        let shared = &pool.shared;
        let hits = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let mut seen = 0u64;

        // Epoch 1: the helper arrives only after `run` returned.
        pool.run(&|id, _| {
            hits[id].fetch_add(1, Ordering::Relaxed);
        });
        assert!(shared.try_enter(&mut shared.lock(), &mut seen).is_none(), "a closed epoch is skipped");
        assert_eq!(seen, 1, "the skipped epoch is marked seen");
        assert_eq!(shared.active.load(Ordering::Relaxed), 0, "a skip is not an entry");

        // Epoch 2: the helper enters while the launcher is inside its
        // share, and `run` must not return before the helper leaves.
        let helper_ran = AtomicBool::new(false);
        let returned = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.run(&|id, _| {
                    hits[id].fetch_add(1, Ordering::Relaxed);
                    if id == 0 {
                        await_flag(&helper_ran);
                    }
                });
                returned.store(true, Ordering::Release);
            });
            let job = loop {
                if let Some(job) = shared.try_enter(&mut shared.lock(), &mut seen) {
                    break job;
                }
                std::thread::yield_now();
            };
            assert_eq!(seen, 2);
            let outcome = catch_unwind(AssertUnwindSafe(|| job(1, &mut ScratchStore::new())));
            helper_ran.store(true, Ordering::Release);
            // The launcher now closes and waits for this helper.
            for _ in 0..1_000 {
                std::thread::yield_now();
            }
            assert!(!returned.load(Ordering::Acquire), "run returned with a helper still inside");
            shared.leave(outcome);
        });
        assert!(returned.load(Ordering::Acquire));
        assert_eq!(hits[0].load(Ordering::Relaxed), 2);
        assert_eq!(hits[1].load(Ordering::Relaxed), 1, "skipped epoch 1, ran epoch 2");
        assert_eq!(pool.launches(), 2);
    }

    #[test]
    fn a_launcher_panic_is_reraised_after_the_epoch_drains() {
        let pool = WorkerPool::new(2);
        let helper_inside = AtomicBool::new(false);
        let helper_finished = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|id, _| {
                if id == 0 {
                    await_flag(&helper_inside);
                    panic!("the launcher's share detonates");
                }
                helper_inside.store(true, Ordering::Release);
                for _ in 0..1_000 {
                    std::thread::yield_now();
                }
                helper_finished.store(true, Ordering::Release);
            });
        }));
        assert!(caught.is_err(), "the panic must propagate out of run");
        assert!(helper_finished.load(Ordering::Acquire), "re-raised before the helper left");
        // The pool must still be serviceable afterwards.
        assert_eq!(rendezvous(&pool).len(), 2);
    }

    #[test]
    fn a_helper_panic_is_reraised_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let helper_inside = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|id, _| {
                if id == 0 {
                    // Hold the epoch open until the helper is in.
                    await_flag(&helper_inside);
                } else {
                    helper_inside.store(true, Ordering::Release);
                    panic!("helper {id} detonates");
                }
            });
        }));
        assert!(caught.is_err(), "the panic must propagate to the launcher");
        assert_eq!(rendezvous(&pool).len(), 2);
    }

    /// The lifetime-erasure contract: every launch borrows state from
    /// its launcher's stack frame, and that state is complete — every
    /// item claimed exactly once, by whichever workers showed up —
    /// when `run` returns.
    #[test]
    fn borrowed_state_is_complete_on_return_across_alternating_launchers() {
        const ITEMS: usize = 16;
        let launches = if cfg!(miri) { 100 } else { 10_000 };
        let pool = WorkerPool::new(3);
        let turn = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for me in 0..2 {
                let (pool, turn) = (&pool, &turn);
                s.spawn(move || loop {
                    let now = turn.load(Ordering::Acquire);
                    if now >= launches {
                        return;
                    }
                    if now % 2 != me {
                        std::thread::yield_now();
                        continue;
                    }
                    let cursor = AtomicUsize::new(0);
                    let cells: [AtomicUsize; ITEMS] = std::array::from_fn(|_| AtomicUsize::new(0));
                    pool.run(&|_, _| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= ITEMS {
                            break;
                        }
                        cells[i].fetch_add(now + 1, Ordering::Relaxed);
                    });
                    for (i, cell) in cells.iter().enumerate() {
                        assert_eq!(cell.load(Ordering::Relaxed), now + 1, "launch {now}, item {i}");
                    }
                    turn.store(now + 1, Ordering::Release);
                });
            }
        });
        assert_eq!(pool.launches(), launches);
    }

    #[test]
    fn an_injected_helper_straggler_misses_the_epoch() {
        let pool = WorkerPool::new(2);
        let _ = rendezvous(&pool); // the helper is up and between launches
        pool.inject_stragglers(vec![Duration::ZERO, Duration::from_millis(250)]);
        let ran = Mutex::new(Vec::new());
        pool.run(&|id, _| ran.lock().unwrap().push(id));
        assert_eq!(*ran.lock().unwrap(), vec![0], "the launcher drains alone, the late helper skips");
        pool.inject_stragglers(Vec::new());
        assert_eq!(rendezvous(&pool).len(), 2, "the straggler is back for the next launch");
    }

    #[test]
    fn build_counter_counts_pools_not_launches() {
        let before = WorkerPool::total_builds();
        let pool = WorkerPool::new(2);
        assert!(WorkerPool::total_builds() > before, "building a pool is counted");
        // The counter is process-wide and tests running beside this
        // one build pools too, so one quiet window is the claim: a
        // launch that built a pool would move it in every window.
        let quiet = (0..100).any(|_| {
            let before = WorkerPool::total_builds();
            for _ in 0..5 {
                pool.run(&|_, _| {});
            }
            WorkerPool::total_builds() == before
        });
        assert!(quiet, "launches must not build pools");
    }
}
