//! Crash-safe sweep executor: panic isolation, bounded deterministic
//! retry, watchdog timeouts and quarantine — the execution layer under
//! the full benchmark × configuration sweep (`ldis-experiments sweep`).
//!
//! The executor is a per-cell recovery policy on the
//! [`parallel`](crate::parallel) pool: each pending cell is one pool item,
//! and the worker that takes it resolves it completely — every attempt,
//! retry and replay — before taking the next. Isolated failures become a
//! *recovery protocol* instead of a propagated panic:
//!
//! * **Retry.** A panicked cell replays from its derived seed up to
//!   [`ExecPolicy::max_retries`] more times. Cells are pure functions of
//!   their seed, so a genuine simulator bug fails every attempt while a
//!   resource blip (stack exhaustion from a runaway recursion guard, an
//!   allocator failure) may clear.
//! * **Divergence check.** A cell that panicked and then succeeded is
//!   replayed once more; the two successful results must be bit-identical
//!   (`PartialEq` over every counter) or the cell is quarantined as
//!   [`CellFailure::Nondeterministic`] — a result that changes between
//!   replays cannot be trusted into a golden snapshot.
//! * **Watchdog.** With a [`ExecPolicy::cell_timeout_ms`] budget, each
//!   attempt runs on its own detached thread while the pool worker waits
//!   for its result with `recv_timeout`. An attempt still running when
//!   the budget expires is abandoned — its thread is left to finish or to
//!   sleep until the process exits — the cell is quarantined as
//!   [`CellFailure::Hung`], and the worker moves on to the next cell.
//!   Hung cells are *never* retried: each retry would strand another
//!   thread. Without a budget, attempts run on the pool worker itself and
//!   the executor spawns no thread of its own.
//! * **Quarantine.** The run always completes: every cell resolves to
//!   `Ok(result)` or a typed [`CellFailure`], and downstream reporting
//!   (golden comparison, the quarantine report) works over the survivors.
//!
//! Results are deterministic at every thread count for the same reason
//! the plain sweep is: each cell's fate depends only on its own item, its
//! injected faults and its attempt number, never on scheduling order.
//!
//! Checkpointing lives in [`journal`]: the caller passes the set of
//! already-completed cells (from a resumed journal) plus an
//! `on_complete` hook, which the pool calls on the calling thread as
//! each newly executed cell succeeds — the journal appends there.

pub mod journal;

use crate::parallel::{run_isolated, run_pool, CellPanic};
use ldis_distill::CellFailure;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How the crash-safe executor runs a matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker thread count (at least 1).
    pub threads: usize,
    /// Additional replays a panicked cell gets before it is quarantined
    /// as [`CellFailure::Panicked`] (so a cell runs at most
    /// `1 + max_retries` fallible attempts, plus one confirmation replay
    /// after a recovery).
    pub max_retries: u32,
    /// Per-cell wall-clock budget in milliseconds; `None` disables the
    /// watchdog (a genuinely hung cell then hangs the run, exactly as it
    /// would without this module).
    pub cell_timeout_ms: Option<u64>,
    /// Deterministic fault injection for tests and repro runs.
    pub faults: FaultPlan,
}

impl ExecPolicy {
    /// A policy with `threads` workers, 2 retries, no watchdog and no
    /// injected faults.
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy {
            threads: threads.max(1),
            max_retries: 2,
            cell_timeout_ms: None,
            faults: FaultPlan::none(),
        }
    }
}

/// What an injected fault does to its cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before the simulation starts.
    Panic,
    /// Sleep forever; only a watchdog budget gets the cell quarantined.
    Hang,
}

/// One injected fault: `kind` fires on the first `attempts` attempts of
/// `cell`, after which the cell runs clean. `attempts >= 1 + max_retries`
/// makes the failure permanent; smaller values exercise retry recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// Matrix cell index the fault targets.
    pub cell: usize,
    /// What happens.
    pub kind: FaultKind,
    /// Number of leading attempts that fail.
    pub attempts: u32,
}

/// A deterministic fault campaign: the same plan against the same matrix
/// produces the same outcomes at any thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<InjectedFault>,
}

impl FaultPlan {
    /// No injected faults (the production configuration).
    pub fn none() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// A plan with the given faults.
    pub fn new(faults: Vec<InjectedFault>) -> Self {
        FaultPlan { faults }
    }

    /// Parses the `--fault` CLI grammar: a comma-separated list of
    /// `CELL:KIND[:ATTEMPTS]` entries where KIND is `panic` or `hang` and
    /// ATTEMPTS defaults to 1 (fail once, then recover).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let mut parts = entry.trim().split(':');
            let cell = parts
                .next()
                .and_then(|c| c.parse::<usize>().ok())
                .ok_or_else(|| format!("fault '{entry}': expected CELL:KIND[:ATTEMPTS]"))?;
            let kind = match parts.next() {
                Some("panic") => FaultKind::Panic,
                Some("hang") => FaultKind::Hang,
                other => {
                    return Err(format!(
                        "fault '{entry}': kind must be 'panic' or 'hang', got {other:?}"
                    ))
                }
            };
            let attempts = match parts.next() {
                None => 1,
                Some(n) => n.parse::<u32>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("fault '{entry}': ATTEMPTS must be a positive integer")
                })?,
            };
            if parts.next().is_some() {
                return Err(format!("fault '{entry}': too many ':' fields"));
            }
            faults.push(InjectedFault {
                cell,
                kind,
                attempts,
            });
        }
        Ok(FaultPlan { faults })
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault (if any) that fires on `cell`'s `attempt` (1-based).
    fn action(&self, cell: usize, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.cell == cell && attempt <= f.attempts)
            .map(|f| f.kind)
    }
}

/// The outcome of one crash-safe matrix run.
#[derive(Debug)]
pub struct ExecReport<T> {
    /// Per-cell outcomes in canonical matrix order: the result, or the
    /// typed failure that quarantined the cell.
    pub outcomes: Vec<Result<T, CellFailure>>,
    /// Cells restored from the checkpoint journal (not re-executed).
    pub resumed: usize,
    /// Cells executed this run (successes and failures).
    pub executed: usize,
    /// Cells that needed at least one retry.
    pub retried: usize,
}

impl<T> ExecReport<T> {
    /// Quarantined cells as `(cell index, failure)` in matrix order.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &CellFailure)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().err().map(|f| (i, f)))
    }

    /// Number of quarantined cells.
    pub fn failed(&self) -> usize {
        self.failures().count()
    }

    /// Whether every cell produced a result.
    pub fn all_ok(&self) -> bool {
        self.failed() == 0
    }
}

/// One attempt of `cell`: the injected `fault` for this attempt (if
/// any), then the job, under panic isolation.
fn isolated_attempt<I, T, F>(
    items: &[I],
    job: &F,
    cell: usize,
    attempt: u32,
    fault: Option<FaultKind>,
) -> Result<T, CellPanic>
where
    F: Fn(usize, &I) -> T,
{
    run_isolated(|| {
        match fault {
            #[expect(
                clippy::panic,
                reason = "deliberate injected fault, caught by the cell's catch_unwind"
            )]
            Some(FaultKind::Panic) => {
                panic!("injected fault: cell {cell} attempt {attempt}")
            }
            Some(FaultKind::Hang) => loop {
                // A real hang never returns; the watchdog abandons us.
                std::thread::sleep(Duration::from_secs(3600));
            },
            None => {}
        }
        match items.get(cell) {
            Some(item) => job(cell, item),
            // Unreachable: only in-range cells are pending.
            #[expect(
                clippy::panic,
                reason = "harness invariant, not simulator state; caught by catch_unwind"
            )]
            None => {
                panic!("cell {cell} out of range")
            }
        }
    })
}

/// Runs attempt `n` (1-based) of `cell`. Without a watchdog budget it
/// runs on the calling pool worker. With one it runs on its own detached
/// thread, and the worker abandons it once the budget expires. The outer
/// `Err` is a terminal failure (`Hung`, or `ResultLost` if the attempt's
/// thread died without reporting); the inner result is the attempt's own.
fn run_attempt<I, T, F>(
    items: &Arc<Vec<I>>,
    job: &Arc<F>,
    policy: &ExecPolicy,
    cell: usize,
    n: u32,
) -> Result<Result<T, CellPanic>, CellFailure>
where
    I: Send + Sync + 'static,
    T: Send + 'static,
    F: Fn(usize, &I) -> T + Send + Sync + 'static,
{
    let fault = policy.faults.action(cell, n);
    let Some(budget_ms) = policy.cell_timeout_ms else {
        return Ok(isolated_attempt(items, job.as_ref(), cell, n, fault));
    };
    let (tx, rx) = mpsc::channel();
    let (items, job) = (Arc::clone(items), Arc::clone(job));
    std::thread::spawn(move || {
        // The send fails only if the attempt was already abandoned.
        let _ = tx.send(isolated_attempt(&items, job.as_ref(), cell, n, fault));
    });
    match rx.recv_timeout(Duration::from_millis(budget_ms)) {
        Ok(outcome) => Ok(outcome),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(CellFailure::Hung { budget_ms }),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(CellFailure::ResultLost),
    }
}

/// Resolves one cell: the first attempt, same-seed retries after panics
/// (up to `max_retries`), and a confirmation replay after a recovery.
/// `run(n)` executes attempt `n`. Returns the cell's outcome and whether
/// a retry ran.
fn resolve<T: PartialEq>(
    max_retries: u32,
    mut run: impl FnMut(u32) -> Result<Result<T, CellPanic>, CellFailure>,
) -> (Result<T, CellFailure>, bool) {
    let mut panics = 0;
    let outcome = loop {
        match run(panics + 1) {
            Err(terminal) => break Err(terminal),
            // Clean first run: trusted without replay, exactly like the
            // plain sweep.
            Ok(Ok(value)) if panics == 0 => break Ok(value),
            // Recovered after panics: confirm by replay.
            Ok(Ok(value)) => {
                let attempts = panics + 2;
                break match run(attempts) {
                    Ok(Ok(replay)) if replay == value => Ok(value),
                    Ok(Ok(_)) => Err(CellFailure::Nondeterministic {
                        attempts,
                        detail: "two successful replays produced different results".to_owned(),
                    }),
                    Ok(Err(failure)) => Err(CellFailure::Nondeterministic {
                        attempts,
                        detail: format!("confirmation replay panicked: {}", failure.message),
                    }),
                    Err(terminal) => Err(terminal),
                };
            }
            Ok(Err(failure)) => {
                panics += 1;
                if panics > max_retries {
                    break Err(CellFailure::Panicked {
                        attempts: panics,
                        message: failure.message,
                    });
                }
            }
        }
    };
    (outcome, panics > 0 && max_retries > 0)
}

/// Runs `job` over every cell of `items` not already in `completed`,
/// with panic isolation, bounded retry, divergence checking and (when a
/// budget is set) watchdog timeouts. Returns every cell's outcome in
/// canonical matrix order; `completed` cells are passed through as
/// `Ok` without re-execution.
///
/// `on_complete(cell, result)` fires on the calling thread for each
/// *newly executed* successful cell, in completion order — the journal
/// appends there. Completion order varies with thread count; the final
/// outcome vector does not. So the hook must not fold floats (a sum
/// there would round differently at each thread count); reduce the
/// returned outcomes instead.
pub fn run_cells<I, T, F>(
    items: Vec<I>,
    job: F,
    policy: &ExecPolicy,
    mut completed: BTreeMap<usize, T>,
    mut on_complete: impl FnMut(usize, &T),
) -> ExecReport<T>
where
    I: Send + Sync + 'static,
    T: Clone + PartialEq + Send + 'static,
    F: Fn(usize, &I) -> T + Send + Sync + 'static,
{
    let n = items.len();
    completed.retain(|&cell, _| cell < n);
    let resumed = completed.len();
    let pending: Vec<usize> = (0..n).filter(|i| !completed.contains_key(i)).collect();
    let (items, job) = (Arc::new(items), Arc::new(job));
    let resolved = run_pool(
        policy.threads,
        &pending,
        |_, &cell| {
            resolve(policy.max_retries, |attempt| {
                run_attempt(&items, &job, policy, cell, attempt)
            })
        },
        |i, (outcome, _)| {
            if let (Some(&cell), Ok(value)) = (pending.get(i), outcome) {
                on_complete(cell, value);
            }
        },
    );

    let mut outcomes: Vec<Result<T, CellFailure>> =
        (0..n).map(|_| Err(CellFailure::ResultLost)).collect();
    for (cell, value) in completed {
        if let Some(slot) = outcomes.get_mut(cell) {
            *slot = Ok(value);
        }
    }
    let mut retried = 0;
    for (&cell, resolution) in pending.iter().zip(resolved) {
        if let (Some(slot), Some((outcome, retry))) = (outcomes.get_mut(cell), resolution) {
            *slot = outcome;
            retried += usize::from(retry);
        }
    }
    ExecReport {
        outcomes,
        resumed,
        executed: pending.len(),
        retried,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    fn plain_job(cell: usize, item: &u64) -> u64 {
        cell as u64 * 1000 + item
    }

    #[test]
    fn clean_matrix_runs_once_per_cell_at_any_thread_count() {
        for threads in [1, 4] {
            let policy = ExecPolicy::with_threads(threads);
            let mut completions = Vec::new();
            let report = run_cells(items(12), plain_job, &policy, BTreeMap::new(), |c, v| {
                completions.push((c, *v));
            });
            assert_eq!(report.resumed, 0);
            assert_eq!(report.executed, 12);
            assert_eq!(report.retried, 0);
            assert!(report.all_ok());
            for (i, o) in report.outcomes.iter().enumerate() {
                assert_eq!(o.as_ref().ok(), Some(&plain_job(i, &(i as u64))));
            }
            completions.sort_unstable();
            assert_eq!(completions.len(), 12);
        }
    }

    #[test]
    fn resumed_cells_are_not_reexecuted() {
        let mut done = BTreeMap::new();
        done.insert(3usize, 999u64); // deliberately wrong value: must pass through untouched
        done.insert(7usize, 777u64);
        let policy = ExecPolicy::with_threads(2);
        let mut executed_cells = Vec::new();
        let report = run_cells(items(10), plain_job, &policy, done, |c, _| {
            executed_cells.push(c);
        });
        assert_eq!(report.resumed, 2);
        assert_eq!(report.executed, 8);
        assert_eq!(
            report.outcomes.get(3).and_then(|o| o.as_ref().ok()),
            Some(&999)
        );
        assert_eq!(
            report.outcomes.get(7).and_then(|o| o.as_ref().ok()),
            Some(&777)
        );
        executed_cells.sort_unstable();
        assert_eq!(executed_cells, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn permanent_panic_is_quarantined_with_attempt_count() {
        for threads in [1, 4] {
            let mut policy = ExecPolicy::with_threads(threads);
            policy.max_retries = 2;
            policy.faults = FaultPlan::new(vec![InjectedFault {
                cell: 5,
                kind: FaultKind::Panic,
                attempts: u32::MAX,
            }]);
            let report = run_cells(items(8), plain_job, &policy, BTreeMap::new(), |_, _| {});
            assert_eq!(report.failed(), 1);
            assert_eq!(report.retried, 1);
            match report.outcomes.get(5) {
                Some(Err(CellFailure::Panicked { attempts, message })) => {
                    assert_eq!(*attempts, 3, "1 initial + 2 retries");
                    assert!(message.contains("injected fault"), "{message}");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
            // Every other cell still completed.
            for (i, o) in report.outcomes.iter().enumerate() {
                if i != 5 {
                    assert_eq!(o.as_ref().ok(), Some(&plain_job(i, &(i as u64))));
                }
            }
        }
    }

    #[test]
    fn transient_panic_recovers_via_retry_and_confirmation() {
        for threads in [1, 4] {
            let mut policy = ExecPolicy::with_threads(threads);
            policy.faults = FaultPlan::new(vec![InjectedFault {
                cell: 2,
                kind: FaultKind::Panic,
                attempts: 1, // fail the first attempt only
            }]);
            let report = run_cells(items(6), plain_job, &policy, BTreeMap::new(), |_, _| {});
            assert!(report.all_ok(), "{:?}", report.outcomes.get(2));
            assert_eq!(report.retried, 1);
            assert_eq!(
                report.outcomes.get(2).and_then(|o| o.as_ref().ok()),
                Some(&plain_job(2, &2))
            );
        }
    }

    #[test]
    fn nondeterministic_recovery_is_quarantined() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // A job whose result changes on every run: after the injected
        // panic clears, the retry and its confirmation replay disagree.
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let mut policy = ExecPolicy::with_threads(1);
        policy.faults = FaultPlan::new(vec![InjectedFault {
            cell: 0,
            kind: FaultKind::Panic,
            attempts: 1,
        }]);
        let report = run_cells(
            vec![0u64],
            |_, _| COUNTER.fetch_add(1, Ordering::Relaxed),
            &policy,
            BTreeMap::new(),
            |_, _| {},
        );
        match report.outcomes.first() {
            Some(Err(CellFailure::Nondeterministic { attempts, detail })) => {
                assert_eq!(*attempts, 3, "panic + retry + confirmation");
                assert!(detail.contains("different results"), "{detail}");
            }
            other => panic!("expected Nondeterministic, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_quarantines_hung_cells_and_the_run_completes() {
        for threads in [1, 2] {
            let mut policy = ExecPolicy::with_threads(threads);
            policy.cell_timeout_ms = Some(100);
            policy.faults = FaultPlan::new(vec![InjectedFault {
                cell: 1,
                kind: FaultKind::Hang,
                attempts: u32::MAX,
            }]);
            let report = run_cells(items(5), plain_job, &policy, BTreeMap::new(), |_, _| {});
            match report.outcomes.get(1) {
                Some(Err(CellFailure::Hung { budget_ms })) => assert_eq!(*budget_ms, 100),
                other => panic!("expected Hung, got {other:?}"),
            }
            // The pool worker abandoned the hung attempt and finished the
            // rest of the matrix, even at threads=1.
            for (i, o) in report.outcomes.iter().enumerate() {
                if i != 1 {
                    assert_eq!(
                        o.as_ref().ok(),
                        Some(&plain_job(i, &(i as u64))),
                        "cell {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn watchdog_quarantines_a_retry_that_hangs() {
        for threads in [1, 4] {
            let mut policy = ExecPolicy::with_threads(threads);
            policy.cell_timeout_ms = Some(100);
            // Attempt 1 panics; the retry (attempt 2) hangs.
            policy.faults = FaultPlan::parse("2:panic:1,2:hang:3").expect("valid spec");
            let report = run_cells(items(6), plain_job, &policy, BTreeMap::new(), |_, _| {});
            match report.outcomes.get(2) {
                Some(Err(CellFailure::Hung { budget_ms })) => assert_eq!(*budget_ms, 100),
                other => panic!("expected Hung, got {other:?}"),
            }
            assert_eq!(report.retried, 1, "threads={threads}");
            for (i, o) in report.outcomes.iter().enumerate() {
                if i != 2 {
                    assert_eq!(
                        o.as_ref().ok(),
                        Some(&plain_job(i, &(i as u64))),
                        "cell {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_plan_parses_the_cli_grammar() {
        let plan = FaultPlan::parse("3:panic, 7:hang:2, 9:panic:5").expect("valid spec");
        assert_eq!(plan.action(3, 1), Some(FaultKind::Panic));
        assert_eq!(plan.action(3, 2), None);
        assert_eq!(plan.action(7, 2), Some(FaultKind::Hang));
        assert_eq!(plan.action(7, 3), None);
        assert_eq!(plan.action(9, 5), Some(FaultKind::Panic));
        assert_eq!(plan.action(4, 1), None);
        assert!(FaultPlan::parse("").expect("empty spec").is_empty());
        for bad in ["x:panic", "3:boom", "3:panic:0", "3:panic:1:9", "3"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn outcomes_are_identical_across_thread_counts_under_faults() {
        let faults = FaultPlan::new(vec![
            InjectedFault {
                cell: 2,
                kind: FaultKind::Panic,
                attempts: 1,
            },
            InjectedFault {
                cell: 6,
                kind: FaultKind::Panic,
                attempts: u32::MAX,
            },
        ]);
        let run = |threads: usize| {
            let mut policy = ExecPolicy::with_threads(threads);
            policy.faults = faults.clone();
            run_cells(items(9), plain_job, &policy, BTreeMap::new(), |_, _| {}).outcomes
        };
        assert_eq!(run(1), run(4));
    }
}
