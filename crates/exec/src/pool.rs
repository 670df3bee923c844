//! Worker threads that live as long as their engine.
//!
//! A [`Pool`] runs one *handoff* at a time: a list of jobs, one per
//! shard, that may borrow from the caller's stack. Shard `k` always runs
//! on worker `k` and the last shard on the calling thread, so a
//! two-shard engine owns one thread besides its caller's and a shard's
//! data stays on the thread (and the allocator cache) that touched it
//! last round. Workers are created the first time a handoff needs them,
//! park in a blocking receive between jobs, and are joined when the pool
//! is dropped.
//!
//! The contract, each clause pinned by a test below:
//!
//! * results come back in shard order, whatever the completion order;
//! * a job that panics — on a worker or on the caller — is caught where
//!   it ran, every other job of the handoff still runs to completion,
//!   and the first payload in shard order is then re-raised on the
//!   caller; the pool takes the next handoff as if nothing had happened;
//! * a handoff of fewer than two jobs creates no thread;
//! * `Drop` closes the job channels, joins every worker and never
//!   panics.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// A job as a worker sees it: the borrows inside are the submitting
/// call's business ([`Pool::run`]).
type Job = Box<dyn FnOnce() + Send>;

/// What a job left behind: its value, or the payload it panicked with.
type Outcome<T> = Option<thread::Result<T>>;

struct Worker {
    jobs: Sender<Job>,
    handle: JoinHandle<()>,
}

/// Long-lived workers for one engine; see the [module docs](self).
pub(crate) struct Pool {
    workers: Vec<Worker>,
    /// One `()` per job a worker has run *and dropped*.
    done: Receiver<()>,
    /// Cloned into every worker.
    done_tx: Sender<()>,
}

impl Pool {
    /// A pool without threads; they are created by the first handoff
    /// that needs them.
    pub(crate) fn new() -> Self {
        let (done_tx, done) = channel();
        Pool {
            workers: Vec::new(),
            done,
            done_tx,
        }
    }

    /// Runs `jobs[k]` on worker `k` and the last job on the calling
    /// thread, and returns their results in that order once all of them
    /// have finished.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first job (in shard order) that
    /// panicked, after every job has finished; panics if a worker thread
    /// cannot be created (before any job is handed over).
    #[allow(unsafe_code)]
    pub(crate) fn run<T, J>(&mut self, mut jobs: Vec<J>) -> Vec<T>
    where
        T: Send,
        J: FnOnce() -> T + Send,
    {
        let Some(own) = jobs.pop() else {
            return Vec::new();
        };
        while self.workers.len() < jobs.len() {
            self.spawn_worker();
        }
        let mut outcomes: Vec<Outcome<T>> = Vec::new();
        outcomes.resize_with(jobs.len() + 1, || None);
        let (own_slot, slots) = outcomes.split_last_mut().expect("one slot per job");

        // From the first send to the last receive nothing below can
        // unwind: no `expect`, no index, and the caller's own job runs
        // under `catch_unwind`.
        let mut sent = 0;
        for ((worker, job), slot) in self.workers.iter().zip(jobs).zip(slots) {
            let job: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || *slot = Some(catch_unwind(AssertUnwindSafe(job))));
            // SAFETY: the transmute only erases the lifetime of the
            // borrows inside the box (`job`'s captures and `slot`), so
            // that it can cross a channel to a thread that outlives this
            // call. Those borrows are live until this function returns,
            // and it does not return — or unwind, see above — before the
            // wait below has received one `done` message per job sent. A
            // worker sends that message only after the boxed closure has
            // returned, i.e. after it has run, been consumed and dropped
            // everything it captured; a panic inside `job` is caught
            // inside the closure and stored in `slot`, so it neither
            // skips the message nor kills the worker. A job whose send
            // is refused comes back in the error and is dropped here, on
            // this thread, unrun.
            let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            sent += usize::from(worker.jobs.send(job).is_ok());
        }
        *own_slot = Some(catch_unwind(AssertUnwindSafe(own)));
        // The wait: this loop has no exit but the last `done` message
        // (the channel cannot disconnect, the pool holds a sender of its
        // own). The caller polls rather than sleeps — its shard is done,
        // the others are about to be, and a futex sleep and wake costs
        // more than what is left (CHANGELOG.md has the pairs) — and
        // yields between polls, so a worker that has no core of its own
        // gets this one.
        while sent > 0 {
            match self.done.try_recv() {
                Ok(()) => sent -= 1,
                Err(_) => {
                    std::hint::spin_loop();
                    thread::yield_now();
                }
            }
        }

        outcomes
            .into_iter()
            .map(|outcome| match outcome {
                Some(Ok(value)) => value,
                Some(Err(payload)) => resume_unwind(payload),
                None => panic!("a pool worker exited with a job pending"),
            })
            .collect()
    }

    /// Creates the next worker: a named thread that runs the jobs it
    /// receives until its channel closes, reporting each one done after
    /// the job — and with it every borrow it held — is gone.
    fn spawn_worker(&mut self) {
        let (jobs, inbox) = channel::<Job>();
        let done = self.done_tx.clone();
        let handle = thread::Builder::new()
            .name(format!("rd-exec-{}", self.workers.len()))
            .spawn(move || {
                for job in inbox {
                    job();
                    // Nobody is waiting if the pool is gone.
                    let _ = done.send(());
                }
            })
            .expect("the OS refused a worker thread");
        self.workers.push(Worker { jobs, handle });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for Worker { jobs, handle } in self.workers.drain(..) {
            // Closing its channel is how a worker is asked to exit.
            drop(jobs);
            // A worker cannot panic (every job is caught), and a `Drop`
            // must not: the result is ignored either way.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::mpsc::TryRecvError;
    use std::thread::ThreadId;

    /// Jobs of one handoff have one type; tests box theirs.
    type BoxedJob<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

    /// Sends when dropped — from a panicking job, once the unwind is
    /// under way.
    struct SendOnDrop(Sender<()>);
    impl Drop for SendOnDrop {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    fn message(payload: Box<dyn std::any::Any + Send>) -> &'static str {
        payload.downcast_ref::<&'static str>().copied().unwrap()
    }

    fn thread_ids(pool: &mut Pool, shards: usize) -> Vec<ThreadId> {
        pool.run((0..shards).map(|_| || thread::current().id()).collect())
    }

    #[test]
    fn jobs_write_through_borrows_the_caller_reads_after_the_handoff() {
        // The caller's job finishes first and only then lets the workers
        // go; they still have a round trip between them to make before
        // either writes. A handoff that returned without waiting for
        // both would read zeros.
        let mut pool = Pool::new();
        let mut cells = [0u64; 3];
        let (release, gate) = channel::<()>();
        let (ping, pinged) = channel::<()>();
        let (pong, ponged) = channel::<()>();
        {
            let [a, b, c] = &mut cells;
            let jobs: Vec<BoxedJob<'_, ()>> = vec![
                Box::new(move || {
                    gate.recv().unwrap();
                    ping.send(()).unwrap();
                    ponged.recv().unwrap();
                    *a = 1;
                }),
                Box::new(move || {
                    pinged.recv().unwrap();
                    *b = 2;
                    pong.send(()).unwrap();
                }),
                Box::new(move || {
                    *c = 3;
                    release.send(()).unwrap();
                }),
            ];
            pool.run(jobs);
        }
        assert_eq!(cells, [1, 2, 3]);
    }

    #[test]
    fn results_come_back_in_shard_order_whatever_the_completion_order() {
        // Forced completion order: caller's job, then worker 1's, then
        // worker 0's.
        let mut pool = Pool::new();
        let (first, after_first) = channel::<()>();
        let (second, after_second) = channel::<()>();
        let jobs: Vec<BoxedJob<'_, usize>> = vec![
            Box::new(move || {
                after_second.recv().unwrap();
                0
            }),
            Box::new(move || {
                after_first.recv().unwrap();
                second.send(()).unwrap();
                1
            }),
            Box::new(move || {
                first.send(()).unwrap();
                2
            }),
        ];
        assert_eq!(pool.run(jobs), [0, 1, 2]);
    }

    #[test]
    fn a_shard_keeps_its_thread_and_the_last_shard_is_the_callers() {
        let mut pool = Pool::new();
        let first = thread_ids(&mut pool, 3);
        assert_eq!(first[2], thread::current().id());
        assert!(first[0] != first[1] && !first[..2].contains(&first[2]));
        for _ in 0..100 {
            assert_eq!(thread_ids(&mut pool, 3), first);
        }
        assert_eq!(pool.workers.len(), 2);
    }

    #[test]
    fn fewer_than_two_jobs_create_no_thread() {
        let mut pool = Pool::new();
        assert_eq!(pool.run(Vec::<fn() -> u8>::new()), []);
        assert_eq!(thread_ids(&mut pool, 1), [thread::current().id()]);
        assert!(pool.workers.is_empty());
    }

    #[test]
    fn a_worker_panic_waits_for_its_siblings_and_reaches_the_caller() {
        // Worker 1 is held until worker 0's unwind is under way; what it
        // writes afterwards must be there when the panic arrives.
        let mut pool = Pool::new();
        let before = thread_ids(&mut pool, 3);
        let mut late = 0;
        let written = &mut late;
        let (unwinding, unwound) = channel::<()>();
        let jobs: Vec<BoxedJob<'_, ()>> = vec![
            Box::new(move || {
                let _signal = SendOnDrop(unwinding);
                panic!("shard 0 failed");
            }),
            Box::new(move || {
                unwound.recv().unwrap();
                *written = 7;
            }),
            Box::new(|| {}),
        ];
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run(jobs))).unwrap_err();
        assert_eq!(message(payload), "shard 0 failed");
        assert_eq!(late, 7);
        // Same workers, next handoff, clean drop.
        assert_eq!(thread_ids(&mut pool, 3), before);
    }

    #[test]
    fn the_first_panic_in_shard_order_is_the_one_re_raised() {
        // Shard 1 panics first, shard 2 (the caller's) second, shard 0
        // last.
        let mut pool = Pool::new();
        let (one, after_one) = channel::<()>();
        let (two, after_two) = channel::<()>();
        let jobs: Vec<BoxedJob<'_, ()>> = vec![
            Box::new(move || {
                after_two.recv().unwrap();
                panic!("shard 0 failed");
            }),
            Box::new(move || {
                let _signal = SendOnDrop(one);
                panic!("shard 1 failed");
            }),
            Box::new(move || {
                after_one.recv().unwrap();
                let _signal = SendOnDrop(two);
                panic!("shard 2 failed");
            }),
        ];
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run(jobs))).unwrap_err();
        assert_eq!(message(payload), "shard 0 failed");
    }

    #[test]
    fn the_callers_own_panic_waits_for_the_workers_too() {
        let mut pool = Pool::new();
        let mut late = 0;
        let written = &mut late;
        let (unwinding, unwound) = channel::<()>();
        let jobs: Vec<BoxedJob<'_, ()>> = vec![
            Box::new(move || {
                unwound.recv().unwrap();
                *written = 7;
            }),
            Box::new(move || {
                let _signal = SendOnDrop(unwinding);
                panic!("the caller's shard failed");
            }),
        ];
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run(jobs))).unwrap_err();
        assert_eq!(message(payload), "the caller's shard failed");
        assert_eq!(late, 7);
        assert_eq!(pool.run(vec![|| 1, || 2]), [1, 2]);
    }

    #[test]
    fn dropping_the_pool_joins_its_workers() {
        // Each worker parks a sender in a thread-local, which only the
        // thread's exit drops: the channel is disconnected the moment
        // `drop` returns if, and only if, the workers were joined.
        thread_local! {
            static HELD: RefCell<Option<Sender<()>>> = const { RefCell::new(None) };
        }
        let mut pool = Pool::new();
        let (held, watch) = channel::<()>();
        let caller = thread::current().id();
        let hold = |held: Sender<()>| {
            move || {
                if thread::current().id() != caller {
                    HELD.with(|slot| *slot.borrow_mut() = Some(held));
                }
            }
        };
        pool.run(vec![hold(held.clone()), hold(held.clone()), hold(held)]);
        assert_eq!(watch.try_recv(), Err(TryRecvError::Empty));
        drop(pool);
        assert_eq!(watch.try_recv(), Err(TryRecvError::Disconnected));
    }
}
