//! Randomized properties of the worker pool, via the dr-des testkit:
//! ordering, exactly-once execution, panic safety, the zero-worker
//! (inline) degradation, and a joiner running a job no worker claimed.

use dr_des::testkit::{usize_in, Cases};
use dr_obs::ObsHandle;
use dr_pool::{JobHandle, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Parks the only worker of `pool` inside a job until the returned sender
/// fires; returns once the worker is parked.
fn park_only_worker(pool: &WorkerPool) -> (JobHandle<()>, mpsc::Sender<()>) {
    assert_eq!(pool.workers(), 1);
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let parked = pool.spawn(move || {
        started_tx.send(()).expect("test thread waits");
        release_rx.recv().expect("test thread releases");
    });
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the worker claims the parking job");
    (parked, release_tx)
}

fn counter(obs: &ObsHandle, name: &str) -> u64 {
    obs.snapshot()
        .expect("enabled obs")
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn map_collect_matches_serial_for_random_shapes() {
    Cases::new("pool-ordering", 0xB00C).run(48, |rng| {
        let workers = usize_in(rng, 0, 6);
        let n = usize_in(rng, 0, 300);
        let pool = WorkerPool::new(workers);
        let got = pool.map_collect(n, |i| i.wrapping_mul(2654435761));
        let want: Vec<usize> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
        assert_eq!(got, want, "workers={workers} n={n}");
    });
}

#[test]
fn every_index_runs_exactly_once() {
    Cases::new("pool-exactly-once", 0x1CE).run(32, |rng| {
        let workers = usize_in(rng, 0, 5);
        let n = usize_in(rng, 1, 500);
        let pool = WorkerPool::new(workers);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.map_batch(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} (n={n})");
        }
    });
}

#[test]
fn skewed_item_costs_still_cover_every_index() {
    // A few very expensive items at random positions: stealing must keep
    // the cheap items flowing and nothing may be dropped.
    Cases::new("pool-skew", 0x5EA1).run(12, |rng| {
        let n = usize_in(rng, 64, 256);
        let heavy = usize_in(rng, 0, n - 1);
        let pool = WorkerPool::new(4);
        let done: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.map_batch(n, |i| {
            if i == heavy {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed) == 1));
    });
}

#[test]
fn panics_at_random_indices_propagate_and_pool_recovers() {
    Cases::new("pool-panic", 0xDEAD).run(24, |rng| {
        let workers = usize_in(rng, 0, 4);
        let n = usize_in(rng, 1, 128);
        let bad = usize_in(rng, 0, n - 1);
        let pool = WorkerPool::new(workers);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_batch(n, |i| {
                assert!(i != bad, "injected failure");
            });
        }));
        assert!(result.is_err(), "workers={workers} n={n} bad={bad}");
        // The same pool must process a clean batch afterwards.
        let got = pool.map_collect(n, |i| i);
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn spawned_job_panic_reaches_join_only() {
    let pool = WorkerPool::new(2);
    let bad: JobHandle<()> = pool.spawn(|| panic!("job failure"));
    let ok = pool.spawn(|| 5usize);
    assert_eq!(ok.join(), 5);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join()));
    assert!(result.is_err());
    // Workers survive the panicked job.
    assert_eq!(pool.map_collect(16, |i| i).len(), 16);
}

#[test]
fn zero_worker_pool_is_deterministic_and_complete() {
    Cases::new("pool-inline", 0x0).run(16, |rng| {
        let n = usize_in(rng, 0, 200);
        let pool = WorkerPool::new(0);
        let a = pool.map_collect(n, |i| i * 3);
        let b = pool.map_collect(n, |i| i * 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), n);
        let h = pool.spawn(move || n);
        assert!(h.is_finished(), "inline jobs run eagerly");
        assert_eq!(h.join(), n);
    });
}

#[test]
fn for_each_mut_writes_every_slot() {
    Cases::new("pool-slots", 0xF00D).run(24, |rng| {
        let workers = usize_in(rng, 0, 4);
        let n = usize_in(rng, 0, 300);
        let pool = WorkerPool::new(workers);
        let mut slots = vec![0u64; n];
        pool.for_each_mut(&mut slots, |i, s| *s = i as u64 + 1);
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(*s, i as u64 + 1);
        }
    });
}

#[test]
fn many_small_batches_on_one_pool() {
    // The pipeline's shape: one persistent pool, thousands of small
    // batches. Thread count must stay O(workers), results ordered.
    let pool = WorkerPool::new(3);
    for round in 0..500 {
        let n = (round % 7) + 1;
        let got = pool.map_collect(n, |i| round * 100 + i);
        let want: Vec<usize> = (0..n).map(|i| round * 100 + i).collect();
        assert_eq!(got, want, "round {round}");
    }
}

#[test]
fn joiner_runs_an_unclaimed_job_on_its_own_thread() {
    let obs = ObsHandle::enabled("pool-join-inline");
    let pool = WorkerPool::new(1);
    pool.set_obs(&obs);
    let (parked, release) = park_only_worker(&pool);
    // No worker is free, so only the joiner can run the job.
    let ran_on = pool.spawn(|| thread::current().id()).join();
    assert_eq!(ran_on, thread::current().id());
    assert_eq!(counter(&obs, "pool.jobs_inline"), 1);
    release.send(()).expect("worker is parked");
    parked.join();
    // The worker skips the entry the joiner emptied and keeps serving.
    assert_eq!(pool.map_collect(8, |i| i), (0..8).collect::<Vec<_>>());
    assert_eq!(pool.spawn(|| 3usize).join(), 3);
}

#[test]
fn panic_in_a_job_the_joiner_ran_reaches_join() {
    let pool = WorkerPool::new(1);
    let (parked, release) = park_only_worker(&pool);
    let bad: JobHandle<()> = pool.spawn(|| panic!("job failure on the joiner"));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join()));
    assert!(result.is_err());
    release.send(()).expect("worker is parked");
    parked.join();
    // The worker pops the entry the joiner emptied and survives it: it
    // can still claim a job of its own.
    let (parked, release) = park_only_worker(&pool);
    release.send(()).expect("worker is parked");
    parked.join();
    assert_eq!(pool.spawn(|| 9usize).join(), 9);
}

#[test]
fn dropped_handle_job_runs_exactly_once() {
    for workers in 0..3 {
        let runs = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(workers);
        let r = Arc::clone(&runs);
        drop(pool.spawn(move || r.fetch_add(1, Ordering::SeqCst)));
        // Dropping the pool drains its queue before the workers exit.
        drop(pool);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "workers={workers}");
    }
    // A dropped job queued behind a parked worker runs once it is free,
    // even when a later job was run by its joiner in the meantime.
    let runs = Arc::new(AtomicUsize::new(0));
    let pool = WorkerPool::new(1);
    let (parked, release) = park_only_worker(&pool);
    let r = Arc::clone(&runs);
    drop(pool.spawn(move || r.fetch_add(1, Ordering::SeqCst)));
    assert_eq!(pool.spawn(|| 1usize).join(), 1);
    release.send(()).expect("worker is parked");
    parked.join();
    drop(pool);
    assert_eq!(runs.load(Ordering::SeqCst), 1);
}

#[test]
fn random_spawns_joins_and_batches_run_every_job_exactly_once() {
    // Never deadlocks (a hang fails the test run by timeout) and never
    // runs a job twice or not at all, whoever claims it.
    Cases::new("pool-join-stress", 0x10B5).run(32, |rng| {
        let workers = usize_in(rng, 0, 3);
        let ops = usize_in(rng, 1, 48);
        let pool = WorkerPool::new(workers);
        let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..ops).map(|_| AtomicUsize::new(0)).collect());
        let children = Arc::new(AtomicUsize::new(0));
        // Every job reports here as its last step, joined or not.
        let (done_tx, done_rx) = mpsc::channel::<usize>();
        let mut want = vec![0usize; ops];
        let mut want_children = 0;
        let mut pending: Vec<(usize, JobHandle<usize>)> = Vec::new();
        for op in 0..ops {
            let n = usize_in(rng, 0, 64);
            let runs_c = Arc::clone(&runs);
            let done = done_tx.clone();
            match usize_in(rng, 0, 4) {
                // A plain job.
                0 => {
                    want[op] = 1;
                    pending.push((
                        op,
                        pool.spawn(move || {
                            runs_c[op].fetch_add(1, Ordering::SeqCst);
                            done.send(op).expect("test thread listens");
                            op
                        }),
                    ));
                }
                // A job publishing a nested batch.
                1 => {
                    want[op] = 1;
                    let inner = pool.clone();
                    pending.push((
                        op,
                        pool.spawn(move || {
                            runs_c[op].fetch_add(1, Ordering::SeqCst);
                            let got = inner.map_collect(n, |i| i * 7);
                            assert_eq!(got, (0..n).map(|i| i * 7).collect::<Vec<_>>());
                            done.send(op).expect("test thread listens");
                            op
                        }),
                    ));
                }
                // A job that spawns and joins a child job.
                2 => {
                    want[op] = 1;
                    want_children += 1;
                    let inner = pool.clone();
                    let children = Arc::clone(&children);
                    pending.push((
                        op,
                        pool.spawn(move || {
                            runs_c[op].fetch_add(1, Ordering::SeqCst);
                            let child = inner.spawn(move || {
                                children.fetch_add(1, Ordering::SeqCst);
                                n
                            });
                            assert_eq!(child.join(), n);
                            done.send(op).expect("test thread listens");
                            op
                        }),
                    ));
                }
                // Join or drop an outstanding handle.
                3 => {
                    if !pending.is_empty() {
                        let k = usize_in(rng, 0, pending.len() - 1);
                        let (id, handle) = pending.swap_remove(k);
                        if usize_in(rng, 0, 1) == 0 {
                            assert_eq!(handle.join(), id);
                        }
                    }
                }
                // A batch from the driver.
                _ => {
                    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    pool.map_batch(n, |i| {
                        hits[i].fetch_add(1, Ordering::SeqCst);
                    });
                    assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
                }
            }
        }
        for (id, handle) in pending {
            assert_eq!(handle.join(), id);
        }
        // Jobs whose handles were dropped finish on the workers in their
        // own time (queued ones may hold pool clones, so dropping `pool`
        // need not wait for them).
        drop(pool);
        let jobs = want.iter().sum::<usize>();
        for _ in 0..jobs {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("every job runs");
        }
        let got: Vec<usize> = runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
        assert_eq!(got, want, "workers={workers}");
        assert_eq!(children.load(Ordering::SeqCst), want_children);
    });
}
