//! A lane-routed worker pool for the multi-threaded runtime.
//!
//! The pool owns N OS threads, each draining its own queue. Work is
//! submitted with a *lane* — in the gateway, the index of a wire channel
//! whose pipeline may block — and `lane % workers` picks the thread, so
//! all work for one channel runs on one worker in submission order
//! (per-channel FIFO), while channels on different workers proceed in
//! parallel with no shared queue to contend on. This is the "parallel
//! per-interface workers over a shared registry" shape the
//! multi-interface discovery literature scales by.
//!
//! The pool is deliberately small and dependency-free: `std::thread` +
//! `std::sync::mpsc` channels, an *atomic* pending-job counter (the
//! per-job hot path is two uncontended atomic ops; the condvar and its
//! mutex are touched only when a [`WorkerPool::join`] is actually
//! parked), and channel closure on drop to stop the workers. No work
//! stealing — stealing would break the per-lane ordering guarantee.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::obs::{Phase, Tracer};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pending {
    /// Submitted-but-unfinished jobs. Incremented before enqueue,
    /// decremented after the job runs; `join` parks on the condvar only
    /// while this is nonzero.
    count: AtomicU64,
    /// Mutex the condvar parks on. Held empty-handed: the counter is
    /// the state, the lock only orders "waiter checks count" against
    /// "worker notifies" so the last decrement's wakeup cannot be lost.
    gate: Mutex<()>,
    done: Condvar,
    /// Jobs that panicked (the unwind is caught so the worker — and
    /// [`WorkerPool::join`] — survive; `join` re-raises the failure).
    panicked: AtomicU64,
}

/// A fixed pool of worker threads with lane-routed FIFO queues.
///
/// `Send + Sync`: handles can be shared across threads; any thread may
/// submit. See the module docs for the routing model.
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    pending: Arc<Pending>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (minimum 1).
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool::with_tracer(workers, Tracer::disabled())
    }

    /// Spawns `workers` threads whose job executions are recorded as
    /// `job` spans in `tracer` (worker index = span lane, so each ring
    /// keeps its single-writer discipline). A disabled tracer costs one
    /// branch per job.
    pub fn with_tracer(workers: usize, tracer: Tracer) -> WorkerPool {
        let workers = workers.max(1);
        let pending = Arc::new(Pending {
            count: AtomicU64::new(0),
            gate: Mutex::new(()),
            done: Condvar::new(),
            panicked: AtomicU64::new(0),
        });
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            let pending = Arc::clone(&pending);
            let tracer = tracer.clone();
            let handle = std::thread::Builder::new()
                .name(format!("indiss-worker-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let span_start = tracer.stamp();
                        // Catch unwinds so one bad job can neither kill
                        // the worker (stranding its lane) nor skip the
                        // pending-counter decrement (deadlocking
                        // `join`); the failure is re-raised there.
                        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        tracer.record(i, Phase::Job, span_start);
                        if outcome.is_err() {
                            pending.panicked.fetch_add(1, Ordering::Relaxed);
                        }
                        // Last decrement wakes any parked `join`. Taking
                        // the gate (briefly, empty-handed) before the
                        // notify is what makes the wakeup race-free: a
                        // joiner holds it from its count check until it
                        // parks, so the notify cannot slip in between.
                        if pending.count.fetch_sub(1, Ordering::AcqRel) == 1 {
                            drop(pending.gate.lock().expect("pool gate poisoned"));
                            pending.done.notify_all();
                        }
                    }
                })
                .expect("spawn worker thread");
            handles.push(handle);
        }
        WorkerPool { senders, pending, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Enqueues `job` on lane `lane` (`lane % workers` picks the
    /// thread). Jobs on one lane run in submission order; jobs on lanes
    /// owned by different workers run concurrently.
    pub fn submit(&self, lane: usize, job: impl FnOnce() + Send + 'static) {
        self.pending.count.fetch_add(1, Ordering::AcqRel);
        let worker = lane % self.senders.len();
        // The receiver lives for the pool's lifetime, so the only send
        // failure is a worker that panicked; surface that loudly.
        self.senders[worker].send(Box::new(job)).expect("worker thread gone");
    }

    /// Blocks until every submitted job has finished.
    ///
    /// # Panics
    ///
    /// Panics if any job panicked since the pool was created — a
    /// caught-and-counted failure must not read as success.
    pub fn join(&self) {
        if self.pending.count.load(Ordering::Acquire) > 0 {
            let mut gate = self.pending.gate.lock().expect("pool gate poisoned");
            while self.pending.count.load(Ordering::Acquire) > 0 {
                gate = self.pending.done.wait(gate).expect("pool gate poisoned");
            }
        }
        let panicked = self.pending.panicked.load(Ordering::Relaxed);
        assert!(panicked == 0, "{panicked} worker job(s) panicked (see stderr for payloads)");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop; join so no
        // worker outlives the pool handle.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.senders.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_submitted_jobs_to_completion() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for lane in 0..100 {
            let counter = Arc::clone(&counter);
            pool.submit(lane, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn one_lane_preserves_submission_order() {
        let pool = WorkerPool::new(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        for i in 0..50u32 {
            let seen = Arc::clone(&seen);
            pool.submit(7, move || seen.lock().unwrap().push(i));
        }
        pool.join();
        let seen = seen.lock().unwrap();
        assert_eq!(*seen, (0..50).collect::<Vec<_>>(), "per-lane FIFO");
    }

    #[test]
    fn join_with_no_work_returns_immediately() {
        let pool = WorkerPool::new(2);
        pool.join();
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let ran = Arc::new(AtomicU64::new(0));
        let ran2 = Arc::clone(&ran);
        pool.submit(0, move || {
            ran2.fetch_add(1, Ordering::Relaxed);
        });
        pool.join();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_job_neither_deadlocks_join_nor_kills_the_lane() {
        let pool = WorkerPool::new(2);
        pool.submit(0, || panic!("job blew up"));
        // The lane's worker survives and keeps draining its queue.
        let ran = Arc::new(AtomicU64::new(0));
        let ran2 = Arc::clone(&ran);
        pool.submit(0, move || {
            ran2.fetch_add(1, Ordering::Relaxed);
        });
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.join()));
        assert!(joined.is_err(), "join re-raises the job failure");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "later jobs on the lane still ran");
    }

    #[test]
    fn traced_pool_records_one_job_span_per_job() {
        let tracer = Tracer::new(64, 2, &[], Arc::new(crate::obs::WallClock::new()));
        let pool = WorkerPool::with_tracer(2, tracer.clone());
        for lane in 0..10 {
            pool.submit(lane, || {});
        }
        pool.join();
        assert_eq!(tracer.spans_recorded(), 10);
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 10);
        assert!(spans.iter().all(|s| s.phase == Phase::Job));
        assert!(spans.iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn pool_handle_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorkerPool>();
    }
}
