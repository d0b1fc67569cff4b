//! Joinable results for jobs submitted with `WorkerPool::spawn`.
//!
//! A job is one shared cell holding first the closure, then its result.
//! The pool queue and the [`JobHandle`] both point at the cell, and the
//! closure is *taken once*: by the worker that dequeues it, or by a joiner
//! that gets there first. A worker that finds the cell already claimed
//! skips it.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::Result as ThreadResult;

use dr_obs::trace::Tracer;

use crate::{current_track, PoolObs};

enum State<T> {
    /// Submitted, not yet claimed by anyone.
    Queued(Box<dyn FnOnce() -> T + Send>),
    /// Claimed; the closure is running on some thread.
    Running,
    /// Finished; the result (or panic payload) waits for `join`.
    Done(ThreadResult<T>),
    /// The result was handed to `join`.
    Taken,
}

/// The shared cell of one spawned job.
pub(crate) struct Job<T> {
    state: Mutex<State<T>>,
    /// Signalled once the state turns `Done`.
    done: Condvar,
}

/// The type-erased view the pool queue holds of a [`Job`].
pub(crate) trait Runnable: Send + Sync {
    /// Runs the job on the calling thread unless another thread already
    /// claimed it, recording a `job` wall span on the caller's track.
    /// Returns false when there was nothing left to run.
    fn run_once(&self, tracer: &Tracer) -> bool;
}

impl<T: Send> Job<T> {
    pub(crate) fn new<F>(f: F) -> Arc<Self>
    where
        F: FnOnce() -> T + Send + 'static,
    {
        Job::with_state(State::Queued(Box::new(f)))
    }

    fn with_state(state: State<T>) -> Arc<Self> {
        Arc::new(Job {
            state: Mutex::new(state),
            done: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().expect("job state lock")
    }

    fn is_done(&self) -> bool {
        matches!(*self.lock(), State::Done(_))
    }
}

impl<T: Send> Runnable for Job<T> {
    fn run_once(&self, tracer: &Tracer) -> bool {
        let f = {
            let mut st = self.lock();
            if !matches!(*st, State::Queued(_)) {
                return false;
            }
            match std::mem::replace(&mut *st, State::Running) {
                State::Queued(f) => f,
                _ => unreachable!("checked above"),
            }
        };
        let result = {
            let _trace = tracer.wall_span(current_track(), "job");
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        };
        *self.lock() = State::Done(result);
        self.done.notify_all();
        true
    }
}

/// A handle to a job submitted with `WorkerPool::spawn`.
///
/// [`JobHandle::join`] does not wait for a worker to pick the job up: if
/// no worker has claimed it yet, the joiner runs it itself. Only a job
/// already running elsewhere is waited for.
///
/// Dropping the handle without joining is allowed; the job still runs
/// exactly once, to completion, and its result is discarded.
#[must_use = "join the handle to observe the job's result (and any panic)"]
pub struct JobHandle<T> {
    job: Arc<Job<T>>,
    /// The metrics of the pool the job was queued on; `None` for an
    /// eagerly run job.
    obs: Option<PoolObs>,
}

impl<T: Send> JobHandle<T> {
    /// A handle to a job already queued on `pool`.
    pub(crate) fn queued(job: Arc<Job<T>>, obs: PoolObs) -> Self {
        JobHandle {
            job,
            obs: Some(obs),
        }
    }

    /// A handle that is already resolved (inline pools run jobs eagerly).
    pub(crate) fn ready(result: ThreadResult<T>) -> Self {
        JobHandle {
            job: Job::with_state(State::Done(result)),
            obs: None,
        }
    }

    /// Returns the job's result, running the job on the calling thread
    /// when no worker has claimed it yet and otherwise waiting for it.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic, if it panicked.
    pub fn join(self) -> T {
        if let Some(obs) = &self.obs {
            if self.job.run_once(&obs.tracer) {
                obs.jobs_inline.incr();
            }
        }
        let result = {
            let mut st = self.job.lock();
            while !matches!(*st, State::Done(_)) {
                st = self.job.done.wait(st).expect("job state lock");
            }
            std::mem::replace(&mut *st, State::Taken)
        };
        // The guard is gone before a panic is re-raised: unwinding with it
        // held would poison the cell, and the worker that later pops this
        // entry would die on the poisoned lock.
        match result {
            State::Done(Ok(v)) => v,
            State::Done(Err(payload)) => std::panic::resume_unwind(payload),
            _ => unreachable!("the loop above waited for the result"),
        }
    }

    /// True once the job finished (join will not block).
    pub fn is_finished(&self) -> bool {
        self.job.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_handles_resolve_immediately() {
        let h = JobHandle::ready(Ok(42));
        assert!(h.is_finished());
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn a_job_runs_once_whoever_claims_it() {
        let job = Job::new(|| "done");
        assert!(!job.is_done());
        assert!(job.run_once(&Tracer::disabled()));
        assert!(
            !job.run_once(&Tracer::disabled()),
            "second claim finds it empty"
        );
        assert!(job.is_done());
    }
}
