//! Parallel parameter sweeps over seeds, with scoped threads only (no
//! extra dependencies).
//!
//! The experiment harnesses sweep independent seeds/parameters; this
//! helper fans the work across available cores and returns results in
//! input order, keeping every run's seed explicit so determinism is
//! preserved per-task.

/// Runs `job(i)` for `i ∈ 0..tasks` across at most `threads` worker
/// threads, returning results in index order.
///
/// `job` must be `Sync` because multiple workers call it concurrently
/// (each with distinct indices).
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates the first panicking job.
pub fn parallel_map<T: Send>(
    tasks: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    parallel_map_halting(tasks, threads, job, |_, _| {}, || false)
        .into_iter()
        .map(|s| s.expect("no halt requested, so every slot is filled"))
        .collect()
}

/// [`parallel_map`] with a completion hook and an early stop.
/// `on_done(i, &value)` runs on the worker thread as soon as task `i`
/// finishes (tasks complete in an arbitrary order). `halt()` is consulted
/// before each task is claimed, and once it returns `true` no further
/// tasks start — tasks already running finish normally (and still reach
/// `on_done`), so nothing is ever half-done. The result has `Some` for
/// every completed task and `None` for the tasks that never ran. The
/// sweep engine uses the hook for progress and throughput reporting and
/// the stop for graceful shutdown: a drained sweep stops claiming
/// replicas, journals what finished, and resumes later.
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates the first panicking job.
pub fn parallel_map_halting<T: Send>(
    tasks: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
    on_done: impl Fn(usize, &T) + Sync,
    halt: impl Fn() -> bool + Sync,
) -> Vec<Option<T>> {
    assert!(threads > 0, "need at least one thread");
    if tasks == 0 {
        return Vec::new();
    }
    let threads = threads.min(tasks);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let slot_ptrs: Vec<std::sync::Mutex<&mut Option<T>>> =
        slots.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if halt() {
                    break;
                }
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let value = job(i);
                on_done(i, &value);
                **slot_ptrs[i].lock().expect("slot poisoned") = Some(value);
            });
        }
    });
    drop(slot_ptrs);
    slots
}

/// The number of worker threads to use by default: the parallelism
/// reported by the OS, capped at 8 (the sweeps are memory-light but the
/// benches should not be starved).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let out = parallel_map(32, 4, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        let out = parallel_map(5, 1, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn more_threads_than_tasks() {
        let out = parallel_map(2, 16, |i| i);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn zero_tasks_empty() {
        let out: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn actually_concurrent_when_possible() {
        // all tasks wait on a barrier sized to the thread count: this only
        // completes if the workers run concurrently
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        let out = parallel_map(threads, threads, |i| {
            barrier.wait();
            i
        });
        assert_eq!(out.len(), threads);
    }

    #[test]
    fn deterministic_with_seeded_jobs() {
        let run = || {
            parallel_map(16, 4, |i| {
                let mut rng = seg_grid::rng::Xoshiro256pp::seed_from_u64(i as u64);
                rng.next_u64()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = parallel_map(1, 0, |i| i);
    }

    #[test]
    fn halting_map_stops_claiming_but_finishes_in_flight_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let started = AtomicUsize::new(0);
        // halt as soon as 3 tasks have started: the rest never run
        let out = parallel_map_halting(
            100,
            1,
            |i| {
                started.fetch_add(1, Ordering::Relaxed);
                i * 10
            },
            |_, _| {},
            || started.load(Ordering::Relaxed) >= 3,
        );
        let done: Vec<usize> = out.iter().flatten().copied().collect();
        assert_eq!(done, vec![0, 10, 20]);
        assert!(out[3..].iter().all(Option::is_none));
    }

    #[test]
    fn halting_map_without_halt_fills_every_slot() {
        let out = parallel_map_halting(10, 4, |i| i, |_, _| {}, || false);
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn completion_hook_sees_every_task() {
        let done = std::sync::atomic::AtomicUsize::new(0);
        let sum = std::sync::atomic::AtomicUsize::new(0);
        let out = parallel_map_halting(
            10,
            3,
            |i| i * 2,
            |i, v| {
                assert_eq!(*v, i * 2);
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                sum.fetch_add(*v, std::sync::atomic::Ordering::Relaxed);
            },
            || false,
        );
        assert_eq!(out, (0..10).map(|i| Some(i * 2)).collect::<Vec<_>>());
        assert_eq!(done.load(std::sync::atomic::Ordering::Relaxed), 10);
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 90);
    }
}
