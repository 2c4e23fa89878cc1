//! The worker pool every experiment matrix runs on.
//!
//! Every paper figure walks a benchmark × cache-configuration matrix whose
//! cells are mutually independent: each cell constructs its own workload
//! and caches, and draws its randomness from a seed derived with
//! [`SimRng::derive`](ldis_mem::SimRng::derive) rather than from any
//! shared stream. That independence is what makes the sweep
//! embarrassingly parallel *and* reproducible — cells may execute in any
//! order on any number of threads, and the merged result is bit-identical
//! because results are always written back into canonical matrix order.
//!
//! The worker count resolves, in priority order:
//!
//! 1. an explicit [`set_thread_override`] (the binary's `--threads` flag);
//! 2. the `LDIS_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! One scoped pool runs every matrix: [`sweep`], [`sweep_with_threads`],
//! [`try_sweep_with_threads`] and the crash-safe executor
//! ([`crate::exec::run_cells`]). Its workers take cell indices from an
//! atomic counter (work stealing without a queue), so long cells — mcf's
//! pointer chases take several times longer than eon's resident hot set —
//! never stall short ones behind a static partition. Each result goes
//! back to the calling thread, which hands it to an `on_done` hook in
//! completion order (the executor's journal appends there) and returns
//! all results in index order. With one worker the pool runs inline on
//! the caller.
//!
//! **Panic isolation.** Every sweep cell runs under `catch_unwind`, so one
//! panicking cell can never poison the merge or take sibling cells down
//! with it. [`try_sweep_with_threads`] surfaces each cell's outcome as a
//! typed `Result<T, CellPanic>`; the infallible [`sweep`] /
//! [`sweep_with_threads`] wrappers keep the historical contract of
//! re-raising the first (lowest-index) failure — deterministically, after
//! every other cell has completed. The executor adds retry, watchdog and
//! checkpoint semantics per cell on the same pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// `--threads` override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or clears, with `None`) a process-wide worker-count override
/// that takes precedence over `LDIS_THREADS` and the detected parallelism.
/// Used by the `ldis-experiments` binary's `--threads` flag.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The machine's available parallelism (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker count sweeps will use: the [`set_thread_override`] value if
/// set, else `LDIS_THREADS` if set and parseable, else
/// [`available_threads`]. Always at least 1.
#[expect(
    clippy::disallowed_methods,
    reason = "LDIS_THREADS only picks the worker count, and every sweep is bit-identical at any thread count"
)]
pub fn configured_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("LDIS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_threads()
}

/// A sweep cell's panic, caught at the cell boundary and converted into a
/// value instead of unwinding through the worker pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellPanic {
    /// The panic payload, when it carried a `&str` or `String` message
    /// (the overwhelmingly common case); a placeholder otherwise.
    pub message: String,
}

impl CellPanic {
    /// The failure recorded when a cell's slot was never filled — a
    /// harness defect (a pool worker died outside the catch), never a
    /// simulation one.
    fn lost() -> Self {
        CellPanic {
            message: "cell result missing: worker terminated outside panic isolation".to_owned(),
        }
    }
}

impl std::fmt::Display for CellPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep cell panicked: {}", self.message)
    }
}

impl std::error::Error for CellPanic {}

/// Renders a caught panic payload as a message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Runs one cell under `catch_unwind`, converting a panic into a typed
/// [`CellPanic`].
///
/// `AssertUnwindSafe` is sound here because each job is required to be a
/// pure function of its item: on panic the partially-built result is
/// dropped wholesale and nothing the closure touched outlives the catch.
pub(crate) fn run_isolated<T>(cell: impl FnOnce() -> T) -> Result<T, CellPanic> {
    catch_unwind(AssertUnwindSafe(cell)).map_err(|payload| CellPanic {
        message: panic_message(payload.as_ref()),
    })
}

/// Runs `job(i, &items[i])` for every index on up to `threads` scoped
/// workers and returns the results in index order. Workers take indices
/// from an atomic counter and send each result to the calling thread,
/// which calls `on_done(i, &result)` in completion order. With one worker
/// (or at most one item) the pool runs inline on the caller. Completion
/// order varies with the thread count, so `on_done` must not fold floats;
/// reduce the returned results, which are in index order.
///
/// `job` must not unwind — callers isolate panics per cell — so every
/// slot is filled; `None` marks a result that never arrived.
pub(crate) fn run_pool<I, T, F>(
    threads: usize,
    items: &[I],
    job: F,
    mut on_done: impl FnMut(usize, &T),
) -> Vec<Option<T>>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
    let mut finish = |i: usize, result: T| {
        on_done(i, &result);
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(result);
        }
    };
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        for (i, item) in items.iter().enumerate() {
            finish(i, job(i, item));
        }
    } else {
        let (next, job) = (&AtomicUsize::new(0), &job);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    if tx.send((i, job(i, item))).is_err() {
                        break;
                    }
                });
            }
            // The receive loop ends once every worker has dropped its
            // sender, i.e. when the counter has run past the last item.
            drop(tx);
            for (i, result) in rx {
                finish(i, result);
            }
        });
    }
    slots
}

/// Runs `job` over every item on the configured worker pool and returns
/// the results in item order. Equivalent to
/// `items.iter().map(job).collect()` up to wall-clock time: the output is
/// bit-identical for every thread count as long as each job is a pure
/// function of its item.
///
/// The `Fn + Sync` bound is what keeps jobs pure: a job cannot mutate
/// what it captures. Summing the results after the sweep compiles, and
/// adds them in item order:
///
/// ```
/// use ldis_experiments::parallel::sweep;
///
/// let items = [1u32, 2, 3];
/// let mut total = 0.0;
/// for x in sweep(&items, |&x| x as f64) {
///     total += x;
/// }
/// assert_eq!(total, 6.0);
/// ```
///
/// while folding into a captured float inside the job, which would add
/// in completion order, does not:
///
/// ```compile_fail,E0594
/// use ldis_experiments::parallel::sweep;
///
/// let items = [1u32, 2, 3];
/// let mut total = 0.0;
/// for _ in sweep(&items, |&x| total += x as f64) {}
/// assert_eq!(total, 6.0);
/// ```
///
/// Likewise each cell derives its own random stream:
///
/// ```
/// use ldis_experiments::parallel::sweep;
/// use ldis_mem::SimRng;
///
/// let items = [1u64, 2, 3];
/// let draws = sweep(&items, |&x| SimRng::derive(42, x, 0).next_u64());
/// assert_eq!(draws.len(), 3);
/// ```
///
/// and cannot draw from a captured one, whose draws would depend on the
/// order the cells ran in:
///
/// ```compile_fail,E0596
/// use ldis_experiments::parallel::sweep;
/// use ldis_mem::SimRng;
///
/// let items = [1u64, 2, 3];
/// let mut rng = SimRng::new(42);
/// let draws = sweep(&items, |&x| rng.next_u64());
/// assert_eq!(draws.len(), 3);
/// ```
pub fn sweep<I, T, F>(items: &[I], job: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    sweep_with_threads(configured_threads(), items, job)
}

/// [`sweep`] with an explicit worker count (used by the serial-vs-parallel
/// equivalence tests and benchmarks).
///
/// # Panics
///
/// Re-raises the first failing cell's panic payload (first in canonical
/// item order, so the choice is deterministic at every thread count) after
/// all workers have drained. Use [`try_sweep_with_threads`] to receive
/// per-cell failures as values instead.
pub fn sweep_with_threads<I, T, F>(threads: usize, items: &[I], job: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for result in try_sweep_with_threads(threads, items, job) {
        match result {
            Ok(v) => out.push(v),
            Err(failure) => std::panic::resume_unwind(Box::new(failure.message)),
        }
    }
    out
}

/// [`sweep_with_threads`] with per-cell panic isolation: each cell's
/// outcome is returned as `Ok(result)` or `Err(CellPanic)` in canonical
/// item order. A panicking cell affects nothing but its own slot: sibling
/// cells run to completion.
pub fn try_sweep_with_threads<I, T, F>(
    threads: usize,
    items: &[I],
    job: F,
) -> Vec<Result<T, CellPanic>>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    run_pool(
        threads,
        items,
        |_, item| run_isolated(|| job(item)),
        |_, _| {},
    )
    .into_iter()
    .map(|slot| slot.unwrap_or_else(|| Err(CellPanic::lost())))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_item_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 4, 16, 200] {
            let out = sweep_with_threads(threads, &items, |&i| i * 3);
            let expect: Vec<usize> = items.iter().map(|&i| i * 3).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn sweep_handles_empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(sweep_with_threads(4, &empty, |&i| i).is_empty());
        assert_eq!(sweep_with_threads(4, &[9u32], |&i| i + 1), vec![10]);
    }

    #[test]
    fn uneven_cell_costs_do_not_reorder_results() {
        // Early cells sleep, late cells finish first; the merge must still
        // return canonical order.
        let items: Vec<u64> = (0..16).collect();
        let out = sweep_with_threads(8, &items, |&i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn pool_reports_every_index_once_before_returning() {
        for threads in [1, 4, 16] {
            for n in [0, 40] {
                let items: Vec<usize> = (0..n).collect();
                let mut seen = vec![0u32; n];
                let out = run_pool(
                    threads,
                    &items,
                    |i, &item| {
                        assert_eq!(i, item);
                        item * 2
                    },
                    |i, &result| {
                        assert_eq!(result, i * 2);
                        seen[i] += 1;
                    },
                );
                assert!(seen.iter().all(|&c| c == 1), "threads={threads}: {seen:?}");
                let expect: Vec<Option<usize>> = items.iter().map(|&i| Some(i * 2)).collect();
                assert_eq!(out, expect, "threads={threads}");
            }
        }
    }

    #[test]
    fn configured_threads_is_positive_and_override_wins() {
        assert!(configured_threads() >= 1);
        set_thread_override(Some(3));
        assert_eq!(configured_threads(), 3);
        set_thread_override(None);
        assert!(configured_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panics_propagate_with_their_payload() {
        let items: Vec<u32> = (0..8).collect();
        sweep_with_threads(4, &items, |&i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn isolated_sweep_quarantines_only_the_panicking_cells() {
        let items: Vec<u32> = (0..32).collect();
        for threads in [1, 4] {
            let out = try_sweep_with_threads(threads, &items, |&i| {
                assert!(i % 7 != 3, "cell {i} told to fail");
                i * 2
            });
            for (i, result) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let failure = result.as_ref().expect_err("cell must have failed");
                    assert!(failure.message.contains("told to fail"), "{failure}");
                } else {
                    assert_eq!(*result, Ok(i as u32 * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn first_failure_wins_deterministically() {
        // Multiple failing cells: the propagated payload is always the
        // lowest-index one, at any thread count.
        let items: Vec<u32> = (0..16).collect();
        for threads in [1, 2, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                sweep_with_threads(threads, &items, |&i| {
                    if i == 11 || i == 4 {
                        panic!("cell {i} failed");
                    }
                    i
                });
            }))
            .expect_err("sweep must re-raise");
            assert_eq!(panic_message(caught.as_ref()), "cell 4 failed");
        }
    }

    #[test]
    fn cell_panic_formats_and_reports_lost_results() {
        let lost = CellPanic::lost();
        assert!(lost.to_string().contains("missing"));
        let e: Box<dyn std::error::Error> = Box::new(CellPanic {
            message: "boom".into(),
        });
        assert!(e.to_string().contains("boom"));
    }
}
