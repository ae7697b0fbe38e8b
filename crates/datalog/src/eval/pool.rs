//! A persistent worker pool on plain std channels.
//!
//! PR 4 sharded rule executions across `std::thread::scope`, which spawns
//! and joins OS threads on *every* sharded execution — thousands of times
//! per fixpoint on delta-heavy workloads.  This pool spawns its threads
//! once per workspace (lazily, on the first parallel fixpoint) and feeds
//! them closures over an injector channel, so a sharded execution costs two
//! channel sends per shard instead of a thread spawn.
//!
//! ## Lifetime erasure
//!
//! Tasks borrow the evaluator's state (relation views, plans, deltas).  A
//! long-lived thread cannot hold a short-lived borrow in the type system,
//! so [`WorkerPool::execute_streaming`] erases the task lifetime with an
//! `unsafe` transmute to `'static` — sound because the call *blocks until
//! every submitted task has signalled completion* before returning: no
//! borrow escapes the stack frame that owns the data.  Nothing else may
//! submit lifetime-erased jobs.
//!
//! ## Nesting
//!
//! A task running on a pool thread may itself call `execute_streaming`
//! (rule-level fan-out nests shard-level fan-out).  Blocking on the queue
//! from inside a pool thread could deadlock — every thread waiting on
//! subtasks nobody is free to run — so nested calls detect the pool thread
//! via a thread-local flag and run their tasks inline instead.
//!
//! ## Determinism
//!
//! The pool affects *where* a task runs, never *what* it computes: tasks
//! are pure functions of their captured inputs, results are delivered with
//! their submission index, and callers fold them either by index or with an
//! order-independent merge.  `tests/props_parallel.rs` and
//! `tests/props_columnar.rs` hold the end-to-end proof obligation.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// A fixed-size pool of long-lived worker threads.
#[derive(Debug)]
pub struct WorkerPool {
    /// Dropped first (in `Drop`) to close the queue and stop the workers.
    injector: Option<Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
    size: usize,
}

impl WorkerPool {
    /// Spawn `size` worker threads (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (injector, queue) = channel::<Job>();
        let queue = Arc::new(Mutex::new(queue));
        let threads = (0..size)
            .map(|index| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("sbx-worker-{index}"))
                    .spawn(move || {
                        IN_POOL.with(|flag| flag.set(true));
                        loop {
                            // Jobs catch their own panics, so a poisoned
                            // queue lock only ever means "keep draining".
                            let job = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
                            match job {
                                Ok(job) => job(),
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            injector: Some(injector),
            threads,
            size,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// True when called from one of this process's pool worker threads.
    pub fn on_pool_thread() -> bool {
        IN_POOL.with(Cell::get)
    }

    /// Run every task and deliver `(submission_index, result)` to `on_done`
    /// on the calling thread in **arrival order** — the pipelining hook: the
    /// caller merges batch *k* while workers are still joining batch *k+1*.
    /// Blocks until all tasks have completed.  A task panic is delivered as
    /// `Err`; `on_done` must not panic (a panic there would return with
    /// erased borrows still live in the queue).
    pub fn execute_streaming<'env, T, F>(
        &self,
        tasks: Vec<F>,
        mut on_done: impl FnMut(usize, std::thread::Result<T>),
    ) where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        if tasks.len() <= 1 || Self::on_pool_thread() {
            for (index, task) in tasks.into_iter().enumerate() {
                let result = catch_unwind(AssertUnwindSafe(task));
                on_done(index, result);
            }
            return;
        }
        let injector = self.injector.as_ref().expect("pool is alive");
        let (done, arrivals) = channel::<(usize, std::thread::Result<T>)>();
        let count = tasks.len();
        let queue_depth = secureblox_telemetry::gauge!("datalog_pool_queue_depth");
        let busy = secureblox_telemetry::histogram!("datalog_pool_task_busy_ns");
        queue_depth.add(count as i64);
        for (index, task) in tasks.into_iter().enumerate() {
            let done = done.clone();
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                queue_depth.add(-1);
                let timer = busy.start_timer();
                let result = catch_unwind(AssertUnwindSafe(task));
                drop(timer);
                // The receiver outlives the loop below; a send can only
                // fail if the caller's stack unwound, which `on_done` is
                // contractually barred from causing.
                let _ = done.send((index, result));
            });
            // SAFETY: the arrival loop below blocks until `count` results
            // have been received, and every job sends exactly one result
            // after running — so every borrow captured by `job` is still
            // live whenever the job executes, and none outlives this call.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            injector.send(job).expect("pool workers are alive");
        }
        drop(done);
        for _ in 0..count {
            let (index, result) = arrivals.recv().expect("worker delivers result");
            on_done(index, result);
        }
    }

    /// Run every task and collect results in submission order.
    pub fn execute<'env, T, F>(&self, tasks: Vec<F>) -> Vec<std::thread::Result<T>>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let mut slots: Vec<Option<std::thread::Result<T>>> =
            (0..tasks.len()).map(|_| None).collect();
        self.execute_streaming(tasks, |index, result| slots[index] = Some(result));
        slots
            .into_iter()
            .map(|slot| slot.expect("every task completed"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the injector ends every worker's recv loop.
        drop(self.injector.take());
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_borrowed_tasks_in_submission_order() {
        let pool = WorkerPool::new(3);
        let data: Vec<usize> = (0..32).collect();
        let tasks: Vec<_> = data
            .chunks(5)
            .map(|chunk| move || chunk.iter().sum::<usize>())
            .collect();
        let results: Vec<usize> = pool
            .execute(tasks)
            .into_iter()
            .map(|r| r.expect("no panic"))
            .collect();
        assert_eq!(results.iter().sum::<usize>(), data.iter().sum::<usize>());
        assert_eq!(results[0], 1 + 2 + 3 + 4);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let results = pool.execute(vec![
                Box::new(move || round * 2) as Box<dyn FnOnce() -> i32 + Send>,
                Box::new(move || round * 2 + 1),
            ]);
            let values: Vec<i32> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, vec![round * 2, round * 2 + 1]);
        }
    }

    #[test]
    fn panics_are_contained_and_workers_survive() {
        let pool = WorkerPool::new(2);
        let results = pool.execute(vec![
            Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>,
            Box::new(|| panic!("worker task panic")),
            Box::new(|| 3usize),
        ]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        // The pool still works after a task panicked.
        let again = pool.execute(vec![|| 7usize]);
        assert_eq!(*again[0].as_ref().unwrap(), 7);
    }

    #[test]
    fn nested_execution_runs_inline_without_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let inner_runs = AtomicUsize::new(0);
        let outer: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let inner_runs = &inner_runs;
                move || {
                    assert!(WorkerPool::on_pool_thread());
                    pool.execute_streaming(vec![|| (), || ()], |_, result| {
                        result.expect("inline task");
                        inner_runs.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
            .collect();
        for result in pool.execute(outer) {
            result.expect("outer task");
        }
        assert_eq!(inner_runs.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn streaming_delivers_all_results_on_caller_thread() {
        let pool = WorkerPool::new(4);
        let mut seen = [false; 16];
        let caller = std::thread::current().id();
        pool.execute_streaming(
            (0..16).map(|i| move || i).collect::<Vec<_>>(),
            |index, result| {
                assert_eq!(std::thread::current().id(), caller);
                assert_eq!(result.unwrap(), index);
                seen[index] = true;
            },
        );
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(3);
        pool.execute(vec![|| (), || (), || ()]);
        drop(pool); // must not hang
    }
}
