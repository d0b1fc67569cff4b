//! A persistent work-stealing worker pool for the reduction hot path.
//!
//! The paper's CPU stages (hashing, compression, index probes) have no
//! inter-chunk dependency, so they scale across workers — but spawning a
//! fresh `thread::scope` per batch pays thread-creation latency on every
//! batch, exactly the per-item setup cost the paper's bin buffer exists to
//! amortize. [`WorkerPool`] creates its threads **once** and feeds them
//! batches for the pool's whole lifetime:
//!
//! * [`WorkerPool::map_batch`] — an order-preserving parallel for-loop over
//!   `0..n`. Work is split into one contiguous range per participant; a
//!   participant that drains its own range **steals half of the largest
//!   remaining range** of another, so skewed per-item costs still balance.
//!   The caller participates too, and the call returns only when every
//!   index has been processed (panics from items are re-raised on the
//!   caller after the batch quiesces).
//! * [`WorkerPool::map_collect`] / [`WorkerPool::for_each_mut`] — the same
//!   loop, collecting results in input order / mutating disjoint slots.
//! * [`WorkerPool::spawn`] — a fire-and-forget job with a joinable
//!   [`JobHandle`], used by the pipeline to hash batch *N+1* while batch
//!   *N* compresses and destages (double buffering). A joiner runs a
//!   job no worker has claimed yet itself instead of waiting for one.
//!
//! A pool with **zero workers** degrades to inline execution on the caller
//! thread — no threads, deterministic, and useful for tests and
//! single-core containers.
//!
//! Instrumentation (all through `dr-obs`, inert unless enabled): a
//! `pool.queue_depth` gauge, `pool.tasks` / `pool.steals` / `pool.batches`
//! / `pool.jobs` / `pool.jobs_inline` (jobs their joiner ran) counters,
//! and a `pool.batch_wall_ns` latency histogram.
//!
//! ```
//! use dr_pool::WorkerPool;
//!
//! let pool = WorkerPool::new(2);
//! let squares = pool.map_collect(5, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

mod batch;
mod job;

pub use job::JobHandle;

use batch::BatchCore;
use dr_obs::trace::{Tracer, Track};
use dr_obs::{CounterHandle, GaugeHandle, HistogramHandle, ObsHandle};
use job::{Job, Runnable};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle as ThreadHandle, ThreadId};
use std::time::Instant;

thread_local! {
    /// The pool-worker id of the current thread, when it is one.
    static WORKER_ID: Cell<Option<u16>> = const { Cell::new(None) };
}

/// The wall-clock trace track of the calling thread: `Worker(w)` on a
/// pool thread, `Driver` everywhere else (including nested calls made
/// from inside pool jobs, which attribute to the executing worker).
pub(crate) fn current_track() -> Track {
    WORKER_ID.with(|c| match c.get() {
        Some(w) => Track::Worker(w),
        None => Track::Driver,
    })
}

/// Hard ceiling on [`default_workers`] — beyond this, batch sizes in the
/// 64–256 chunk range stop amortizing coordination.
pub const MAX_DEFAULT_WORKERS: usize = 16;

/// The default worker count: `DR_POOL_WORKERS` when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] clamped to
/// `1..=`[`MAX_DEFAULT_WORKERS`].
///
/// Every layer that needs a worker count without an explicit configuration
/// (bench binaries, `PipelineConfig`) derives it from here instead of
/// hard-coding a constant.
pub fn default_workers() -> usize {
    if let Some(n) = std::env::var("DR_POOL_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_DEFAULT_WORKERS)
}

/// Interned pool metrics; all handles are no-ops until
/// [`WorkerPool::set_obs`] installs live ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct PoolObs {
    queue_depth: GaugeHandle,
    tasks: CounterHandle,
    steals: CounterHandle,
    batches: CounterHandle,
    jobs: CounterHandle,
    jobs_inline: CounterHandle,
    batch_wall_ns: HistogramHandle,
    tracer: Tracer,
}

/// One unit of work a pool thread can pick up.
enum Work {
    Job(Arc<dyn Runnable>),
    Batch(Arc<BatchCore>),
}

/// Shared pool state behind the mutex.
struct State {
    /// Submitted jobs in order. An entry a joiner already ran stays here
    /// until a worker pops it and finds it empty.
    jobs: VecDeque<Arc<dyn Runnable>>,
    batches: Vec<Arc<BatchCore>>,
    shutdown: bool,
}

impl State {
    fn queue_depth(&self) -> i64 {
        (self.jobs.len() + self.batches.len()) as i64
    }
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    workers: usize,
    obs: Mutex<PoolObs>,
}

impl Inner {
    fn obs(&self) -> PoolObs {
        self.obs.lock().expect("pool obs lock").clone()
    }
}

/// Joins the pool threads when the last [`WorkerPool`] clone drops.
struct Owner {
    inner: Arc<Inner>,
    handles: Mutex<Vec<ThreadHandle<()>>>,
    thread_ids: Vec<ThreadId>,
}

impl Drop for Owner {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("pool state lock");
            st.shutdown = true;
        }
        self.inner.cv.notify_all();
        // A pool clone captured by one of its own jobs can be the last one
        // dropped — *on a pool thread*. Joining ourselves would deadlock;
        // the threads see `shutdown` and exit on their own, so detaching
        // is safe.
        let me = std::thread::current().id();
        if self.thread_ids.contains(&me) {
            return;
        }
        for h in self.handles.lock().expect("pool handles lock").drain(..) {
            let _ = h.join();
        }
    }
}

/// A persistent pool of worker threads. Cheap to clone (all clones share
/// the same threads); the threads exit when the last clone drops.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<Inner>,
    _owner: Arc<Owner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.inner.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` persistent threads. `workers == 0`
    /// builds an inline pool: every operation runs on the caller thread.
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                batches: Vec::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            workers,
            obs: Mutex::new(PoolObs::default()),
        });
        let mut handles = Vec::with_capacity(workers);
        let mut thread_ids = Vec::with_capacity(workers);
        for id in 0..workers {
            let inner = Arc::clone(&inner);
            let h = std::thread::Builder::new()
                .name(format!("dr-pool-{id}"))
                .spawn(move || worker_main(inner, id))
                .expect("spawning pool worker");
            thread_ids.push(h.thread().id());
            handles.push(h);
        }
        WorkerPool {
            _owner: Arc::new(Owner {
                inner: Arc::clone(&inner),
                handles: Mutex::new(handles),
                thread_ids,
            }),
            inner,
        }
    }

    /// Creates a pool sized by [`default_workers`].
    pub fn with_default_workers() -> Self {
        WorkerPool::new(default_workers())
    }

    /// The number of pool threads (0 for an inline pool).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Installs an observability sink; pass a disabled handle to turn
    /// instrumentation back off.
    pub fn set_obs(&self, obs: &ObsHandle) {
        *self.inner.obs.lock().expect("pool obs lock") = PoolObs {
            queue_depth: obs.gauge("pool.queue_depth"),
            tasks: obs.counter("pool.tasks"),
            steals: obs.counter("pool.steals"),
            batches: obs.counter("pool.batches"),
            jobs: obs.counter("pool.jobs"),
            jobs_inline: obs.counter("pool.jobs_inline"),
            batch_wall_ns: obs.histogram("pool.batch_wall_ns"),
            tracer: obs.tracer().clone(),
        };
    }

    /// Runs `f(i)` for every `i in 0..n` across the pool, returning once
    /// all calls completed. Each index runs exactly once; the caller
    /// thread participates, so the pool can never deadlock on its own
    /// batches (including batches published from inside pool jobs).
    ///
    /// # Panics
    ///
    /// If any `f(i)` panics, remaining work is abandoned, the batch
    /// quiesces, and the first panic is re-raised on the caller.
    pub fn map_batch<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let obs = self.inner.obs();
        obs.batches.incr();
        obs.tasks.add(n as u64);
        let _trace = obs
            .tracer
            .wall_span(current_track(), "batch")
            .arg("items", n as u64);
        if self.inner.workers == 0 || n == 1 {
            let start = Instant::now();
            for i in 0..n {
                f(i);
            }
            obs.batch_wall_ns.record(start.elapsed().as_nanos() as u64);
            return;
        }

        let participants = self.inner.workers + 1;
        // SAFETY: the closure reference is erased to 'static so pool
        // threads can see it, but `map_batch` only returns after the batch
        // quiesced (every claimed index finished, no participant active)
        // and late arrivals can no longer claim an index — so no thread
        // dereferences the pointer after `f` goes out of scope.
        let core = unsafe { BatchCore::new(&f, participants, n) };
        {
            let mut st = self.inner.state.lock().expect("pool state lock");
            st.batches.push(Arc::clone(&core));
            obs.queue_depth.set(st.queue_depth());
        }
        self.inner.cv.notify_all();

        let start = Instant::now();
        core.participate(0, &obs.tracer);
        core.wait_done();
        obs.batch_wall_ns.record(start.elapsed().as_nanos() as u64);
        obs.steals.add(core.steals());
        {
            let mut st = self.inner.state.lock().expect("pool state lock");
            st.batches.retain(|b| !Arc::ptr_eq(b, &core));
            obs.queue_depth.set(st.queue_depth());
        }
        if let Some(payload) = core.take_panic() {
            resume_unwind(payload);
        }
    }

    /// Order-preserving parallel map: returns `[f(0), f(1), .., f(n-1)]`.
    pub fn map_collect<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        self.for_each_mut(&mut out, |i, slot| *slot = Some(f(i)));
        out.into_iter()
            .map(|r| r.expect("every batch index runs exactly once"))
            .collect()
    }

    /// Runs `f(i, &mut items[i])` for every slot in parallel. Slots are
    /// disjoint, so no synchronization is needed beyond the batch itself.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        struct SlotPtr<T>(*mut T);
        // SAFETY: each index is claimed exactly once, so every slot is
        // mutated by exactly one participant at a time.
        unsafe impl<T: Send> Sync for SlotPtr<T> {}
        impl<T> SlotPtr<T> {
            /// # Safety
            /// `i` must be in bounds and claimed by exactly one caller.
            unsafe fn slot(&self, i: usize) -> *mut T {
                self.0.add(i)
            }
        }
        let ptr = SlotPtr(items.as_mut_ptr());
        let n = items.len();
        self.map_batch(n, move |i| {
            debug_assert!(i < n);
            // SAFETY: `i < n` and indices are claimed exactly once.
            f(i, unsafe { &mut *ptr.slot(i) });
        });
    }

    /// Submits an asynchronous job and returns a handle to claim its
    /// result. On an inline pool the job runs immediately on the caller.
    /// Otherwise the job runs exactly once: on the first worker to reach
    /// it, or on the thread that joins it first ([`JobHandle::join`]).
    ///
    /// Jobs may capture a clone of their own pool and publish nested
    /// batches; the executing thread participates in those itself.
    pub fn spawn<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let obs = self.inner.obs();
        obs.jobs.incr();
        if self.inner.workers == 0 {
            return JobHandle::ready(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        }
        let job = Job::new(f);
        {
            let mut st = self.inner.state.lock().expect("pool state lock");
            st.jobs.push_back(Arc::clone(&job) as Arc<dyn Runnable>);
            obs.queue_depth.set(st.queue_depth());
        }
        self.inner.cv.notify_one();
        JobHandle::queued(job, obs)
    }
}

fn worker_main(inner: Arc<Inner>, id: usize) {
    WORKER_ID.with(|c| c.set(Some(id.min(u16::MAX as usize) as u16)));
    loop {
        let work = {
            let mut st = inner.state.lock().expect("pool state lock");
            loop {
                // Queued jobs drain before shutdown: a job whose handle
                // was dropped still runs exactly once.
                if let Some(job) = st.jobs.pop_front() {
                    inner.obs().queue_depth.set(st.queue_depth());
                    break Work::Job(job);
                }
                if st.shutdown {
                    return;
                }
                if let Some(b) = st.batches.iter().find(|b| b.has_work()) {
                    break Work::Batch(Arc::clone(b));
                }
                st = inner.cv.wait(st).expect("pool state lock");
            }
        };
        let tracer = inner.obs().tracer;
        match work {
            // A joiner may have run it already; then there is nothing to do.
            Work::Job(job) => {
                job.run_once(&tracer);
            }
            // Slot `id + 1`: slot 0 belongs to the publishing caller.
            Work::Batch(core) => {
                let _trace = tracer.wall_span(current_track(), "batch-help");
                core.participate(id + 1, &tracer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workers_positive_and_clamped() {
        let n = default_workers();
        assert!(n >= 1);
        // An explicit env override may exceed the clamp; without one the
        // clamp applies. Either way the value must be usable.
        assert!(n <= 4096);
    }

    #[test]
    fn map_collect_preserves_order() {
        let pool = WorkerPool::new(3);
        let got = pool.map_collect(100, |i| i * 2);
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.map_batch(0, |_| panic!("must not run"));
        assert!(pool.map_collect(0, |i| i).is_empty());
    }

    #[test]
    fn inline_pool_runs_on_caller() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let got = pool.map_collect(10, |i| i + 1);
        assert_eq!(got, (1..=10).collect::<Vec<_>>());
        assert_eq!(pool.spawn(|| 7usize).join(), 7);
    }

    #[test]
    fn spawned_jobs_return_results() {
        let pool = WorkerPool::new(2);
        let handles: Vec<_> = (0..8).map(|i| pool.spawn(move || i * i)).collect();
        let got: Vec<usize> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(got, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn batch_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_batch(64, |i| {
                if i == 17 {
                    panic!("boom at 17");
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the caller");
        // The pool must still work after a poisoned batch.
        assert_eq!(pool.map_collect(8, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_map_batch_from_a_job_completes() {
        let pool = WorkerPool::new(2);
        let inner_pool = pool.clone();
        let handle = pool.spawn(move || inner_pool.map_collect(32, |i| i + 1));
        assert_eq!(handle.join(), (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn obs_counts_tasks_batches_and_jobs() {
        let obs = ObsHandle::enabled("pool-test");
        let pool = WorkerPool::new(2);
        pool.set_obs(&obs);
        pool.map_batch(10, |_| {});
        pool.spawn(|| ()).join();
        let snap = obs.snapshot().unwrap();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("pool.tasks"), 10);
        assert_eq!(counter("pool.batches"), 1);
        assert_eq!(counter("pool.jobs"), 1);
    }
}
