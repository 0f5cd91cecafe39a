//! The fleet runner: deterministic parallel execution of indexed tasks.
//!
//! Two properties define it:
//!
//! 1. **Determinism at any worker count.** Tasks are identified by a dense
//!    index; every task's inputs (notably its RNG seed, derived by
//!    [`derive_seed`]) depend only on that index, never on scheduling.
//!    Results are returned ordered by index, so `workers = 1` and
//!    `workers = 64` produce byte-identical output.
//! 2. **No shared-lock hot path.** Workers pull indices from one atomic
//!    counter and accumulate results in *per-worker batches*, which are
//!    merged once at the end, rather than collected under one
//!    `Mutex<Vec<Option<T>>>` slot per result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// The workspace's one SplitMix64 step, the seed expander
/// [`derive_seed`] is built from.
pub use ale_congest::splitmix64;

/// Derives the trial seed for `(stream, index)` under `master`.
///
/// Each grid point gets its own stream; each trial its own index. The
/// derivation is a pure function, so a fleet re-run with the same master
/// seed reproduces every trial bit-for-bit regardless of worker count,
/// and adding seeds to a run never perturbs existing trials.
pub fn derive_seed(master: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(master ^ splitmix64(stream.wrapping_add(0x5851_F42D_4C95_7F2D))) ^ index)
}

/// Clamps a requested worker count to something sane.
pub fn effective_workers(requested: usize) -> usize {
    requested.clamp(1, 256)
}

/// Default worker count: available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

/// Runs `f(0..tasks)` across `workers` threads, returning results ordered
/// by task index. See the module docs for the determinism contract.
///
/// # Panics
///
/// Propagates panics from `f` (the whole fleet aborts).
pub fn run_indexed<T, F>(tasks: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with_progress(tasks, workers, f, None)
}

/// [`run_indexed`] with an optional progress observer, called roughly
/// every 500ms with `(completed, total)` from a monitor thread.
pub fn run_indexed_with_progress<T, F>(
    tasks: usize,
    workers: usize,
    f: F,
    progress: Option<&(dyn Fn(usize, usize) + Sync)>,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    let workers = effective_workers(workers).min(tasks);
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);

    let mut batches: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        // Dropping `finished` once the workers are joined wakes the monitor
        // at once instead of at its next tick.
        let (finished, wake) = mpsc::channel::<()>();
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                let completed = &completed;
                let f = &f;
                scope.spawn(move || {
                    // Inert unless a telemetry sink is installed.
                    let mut span =
                        ale_telemetry::Span::begin("worker-batch").attr("worker", w as u64);
                    let mut batch: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        batch.push((i, f(i)));
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    span.set_attr("tasks", batch.len());
                    drop(span);
                    batch
                })
            })
            .collect();

        if let Some(report) = progress {
            let completed = &completed;
            scope.spawn(move || {
                // Time-based throttling: one line per 500ms tick, and only
                // when the count moved since the last line — a stalled
                // fleet stays quiet instead of repeating itself.
                let mut last = 0usize;
                while let Err(RecvTimeoutError::Timeout) =
                    wake.recv_timeout(Duration::from_millis(500))
                {
                    let c = completed.load(Ordering::Relaxed);
                    if c < tasks && c != last {
                        report(c, tasks);
                        last = c;
                    }
                }
            });
        }

        let batches: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect();
        drop(finished);
        batches
    });

    // Merge per-worker batches into index order.
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    for batch in batches.iter_mut() {
        for (i, value) in batch.drain(..) {
            debug_assert!(slots[i].is_none(), "task {i} produced twice");
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every task index processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        let out = run_indexed(100, 8, |i| i * 3);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn zero_tasks_and_one_worker() {
        let empty: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(empty.is_empty());
        assert_eq!(run_indexed(5, 1, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let single: Vec<u64> = run_indexed(200, 1, |i| splitmix64(i as u64));
        for workers in [2, 3, 8, 32] {
            let multi: Vec<u64> = run_indexed(200, workers, |i| splitmix64(i as u64));
            assert_eq!(single, multi, "workers = {workers}");
        }
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        // Pure function: same inputs, same seed.
        assert_eq!(derive_seed(7, 3, 11), derive_seed(7, 3, 11));
        // Distinct across any single-coordinate change.
        let base = derive_seed(7, 3, 11);
        assert_ne!(base, derive_seed(8, 3, 11));
        assert_ne!(base, derive_seed(7, 4, 11));
        assert_ne!(base, derive_seed(7, 3, 12));
        // No collisions over a realistic grid.
        let mut seen = std::collections::HashSet::new();
        for stream in 0..64u64 {
            for index in 0..64u64 {
                assert!(seen.insert(derive_seed(1, stream, index)));
            }
        }
    }

    #[test]
    fn progress_observer_fires_for_slow_fleets() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let out = run_indexed_with_progress(
            8,
            4,
            |i| {
                std::thread::sleep(Duration::from_millis(200));
                i
            },
            Some(&|done, total| {
                assert!(done <= total);
                calls.fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(out.len(), 8);
        // 8 tasks × 200ms / 4 workers ≈ 400ms ⇒ at least one 500ms-ish tick
        // is *likely* but not guaranteed; only assert it did not crash.
    }

    #[test]
    fn progress_monitor_does_not_hold_a_finished_fleet() {
        // The monitor ticks every 500ms; a fleet that finishes first must
        // return without waiting out the tick.
        let start = std::time::Instant::now();
        let out = run_indexed_with_progress(1, 1, |i| i, Some(&|_, _| {}));
        assert_eq!(out, vec![0]);
        let took = start.elapsed();
        assert!(took < Duration::from_millis(250), "took {took:?}");
    }
}
