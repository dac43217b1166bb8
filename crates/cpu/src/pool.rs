//! The persistent worker pool — spawn once, launch many.
//!
//! The executor used to build its "SM array" from scratch on every
//! GEMM: `thread::scope` spawned `threads` fresh OS threads, each
//! allocated a cold [`Workspace`](crate::Workspace), ran the grid,
//! and was joined and destroyed. At microkernel speeds (PRs 2-3) that
//! per-launch cost — thread creation, first-touch page faults on every
//! arena, scheduler migration — dominates small and medium problems
//! and is paid *per problem* by the batched/grouped paths.
//!
//! [`WorkerPool`] is the persistent-thread-block analogue the paper's
//! kernels rely on: one pool per [`CpuExecutor`](crate::CpuExecutor),
//! spawned on first use, reused for every subsequent launch. Between
//! launches workers park on a condvar; across launches each worker
//! keeps a [`ScratchStore`] of warm per-worker state (the executor
//! stashes its `Workspace` arenas there), so the steady state allocates
//! nothing and touches only resident pages. State that outlives
//! launches but belongs to no one worker — the executor's pack arena —
//! lives in one more store on the pool itself
//! ([`WorkerPool::launch_scratch`]) and is freed with it.
//!
//! **Launch protocol.** [`WorkerPool::run`] publishes one job — a
//! `Fn(worker_id, &mut ScratchStore)` — under the pool mutex, bumps the
//! epoch, and wakes every worker. Each worker runs the job exactly once
//! and decrements the outstanding count; `run` returns only when the
//! count reaches zero. Worker panics are caught, the first one is
//! re-raised on the launching thread after the epoch completes, so a
//! panicking grid cannot poison the pool for later launches.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Pools constructed process-wide — lets tests pin the "one executor,
/// one pool, N launches" property.
static POOL_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// The job signature workers execute: `(worker_id, scratch)`.
type Job = dyn Fn(usize, &mut ScratchStore) + Sync;

/// Typed per-worker scratch that survives across launches.
///
/// One store lives on each worker thread for the worker's whole
/// lifetime. Launch code fetches (or lazily builds) a typed slot —
/// e.g. `Workspace<f32, f32>` — so arenas stay warm between GEMMs:
/// pack panels, accumulator tiles, and partial pools are allocated on
/// the worker that will use them and never again.
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
    /// The current job, lifetime-erased; `None` between launches.
    job: Option<&'static Job>,
    /// Bumped per launch; workers run the job once per epoch.
    epoch: u64,
    /// Workers still executing the current epoch's job.
    active: usize,
    /// First worker panic of the epoch, re-raised by [`WorkerPool::run`].
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between launches.
    work_cv: Condvar,
    /// The launcher parks here until `active` drains to zero.
    done_cv: Condvar,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A fixed-size pool of persistent worker threads (see module docs).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes launches: one job in flight per pool.
    launch_lock: Mutex<()>,
    /// Launch-level scratch; see [`WorkerPool::launch_scratch`].
    launch_scratch: Mutex<ScratchStore>,
    launches: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("launches", &self.launches.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of exactly `workers` persistent threads.
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
                epoch: 0,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("streamk-worker-{id}"))
                    .spawn(move || worker_main(&shared, id))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            launch_lock: Mutex::new(()),
            launch_scratch: Mutex::default(),
            launches: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads in this pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len()
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
        self.launch_scratch.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pools constructed process-wide since program start.
    #[must_use]
    pub fn total_builds() -> usize {
        POOL_BUILDS.load(Ordering::Relaxed)
    }

    /// Runs `job` once on every worker, blocking until all complete.
    /// Concurrent callers are serialized (one launch in flight).
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic of the launch after every
    /// worker has finished the epoch, so the pool stays consistent.
    pub fn run(&self, job: &(dyn Fn(usize, &mut ScratchStore) + Sync)) {
        let guard = self.launch_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // SAFETY: the only thing done with this reference is calling it
        // from the worker threads during the current epoch. `run` does
        // not return before every worker has finished the job and
        // decremented `active` to zero under the state mutex (and the
        // job slot is cleared below, also under the mutex), so the
        // erased reference never outlives the borrow it came from.
        #[allow(clippy::missing_transmute_annotations)]
        let job: &'static Job = unsafe { std::mem::transmute(job) };
        {
            let mut st = self.shared.lock();
            st.job = Some(job);
            st.epoch += 1;
            st.active = self.handles.len();
            self.shared.work_cv.notify_all();
        }
        let panic = {
            let mut st = self.shared.lock();
            while st.active > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.job = None;
            st.panic.take()
        };
        self.launches.fetch_add(1, Ordering::Relaxed);
        drop(guard);
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

fn worker_main(shared: &PoolShared, id: usize) {
    let mut scratch = ScratchStore::new();
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    if let Some(job) = st.job {
                        seen_epoch = st.epoch;
                        break job;
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Catch panics so one bad launch cannot take the pool down;
        // `run` re-raises the first payload on the launching thread.
        let outcome = catch_unwind(AssertUnwindSafe(|| job(id, &mut scratch)));
        let mut st = shared.lock();
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_worker_runs_the_job_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|id, _| {
            hits[id].fetch_add(1, Ordering::Relaxed);
        });
        for (id, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "worker {id}");
        }
        assert_eq!(pool.launches(), 1);
    }

    #[test]
    fn scratch_survives_across_launches() {
        let pool = WorkerPool::new(3);
        let ptrs = Mutex::new(vec![0usize; 3]);
        pool.run(&|id, scratch| {
            let buf = scratch.get_or_insert_with(|| vec![0u8; 4096]);
            ptrs.lock().unwrap()[id] = buf.as_ptr() as usize;
        });
        let first: Vec<usize> = ptrs.lock().unwrap().clone();
        pool.run(&|id, scratch| {
            let buf = scratch.get_or_insert_with(|| vec![0u8; 4096]);
            ptrs.lock().unwrap()[id] = buf.as_ptr() as usize;
        });
        let second: Vec<usize> = ptrs.lock().unwrap().clone();
        assert_eq!(first, second, "warm scratch must be reused, not reallocated");
    }

    #[test]
    fn borrowed_state_is_visible_and_complete_on_return() {
        let pool = WorkerPool::new(4);
        // Borrowed (non-'static) accumulator: proves the lifetime
        // erasure contract — run() returns only after all workers
        // finished touching it.
        let sum = AtomicUsize::new(0);
        for round in 1..=10usize {
            pool.run(&|id, _| {
                sum.fetch_add(id + round, Ordering::Relaxed);
            });
        }
        // Σ rounds Σ ids: 10 rounds of (0+1+2+3) + 4 * Σ 1..=10.
        assert_eq!(sum.load(Ordering::Relaxed), 10 * 6 + 4 * 55);
        assert_eq!(pool.launches(), 10);
    }

    #[test]
    fn worker_panic_is_reraised_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|id, _| {
                assert!(id != 0, "worker 0 detonates");
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the launcher");
        // The pool must still be serviceable afterwards.
        let ok = AtomicUsize::new(0);
        pool.run(&|_, _| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn build_counter_counts_pools_not_launches() {
        let before = WorkerPool::total_builds();
        let pool = WorkerPool::new(2);
        for _ in 0..5 {
            pool.run(&|_, _| {});
        }
        assert_eq!(WorkerPool::total_builds() - before, 1);
    }
}
