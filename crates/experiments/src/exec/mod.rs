//! Crash-safe sweep executor: panic isolation, bounded deterministic
//! retry, watchdog timeouts and quarantine — the execution layer under
//! the full benchmark × configuration sweep (`ldis-experiments sweep`).
//!
//! The plain [`parallel`](crate::parallel) engine already isolates each
//! cell behind `catch_unwind`; this module turns isolated failures into a
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
//! * **Watchdog.** With a [`ExecPolicy::cell_timeout_ms`] budget, a
//!   monitor loop on the collector thread marks over-budget cells
//!   [`CellFailure::Hung`] and abandons them. Hung cells are *never*
//!   retried — the stuck worker thread cannot be reclaimed, so a retry
//!   would only leak another one; instead a replacement worker is spawned
//!   so pool capacity survives the hang.
//! * **Quarantine.** The run always completes: every cell resolves to
//!   `Ok(result)` or a typed [`CellFailure`], and downstream reporting
//!   (golden comparison, the quarantine report) works over the survivors.
//!
//! Results are deterministic at every thread count for the same reason
//! the plain sweep is: each cell's fate depends only on its own item (and
//! its injected faults), never on scheduling order.
//!
//! Checkpointing lives in [`journal`]: the caller passes the set of
//! already-completed cells (from a resumed journal) plus an
//! `on_complete` hook that appends each newly finished cell.

pub mod journal;

use crate::parallel::{panic_message, CellPanic};
use ldis_distill::CellFailure;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use std::time::Instant;

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

/// A unit of work handed to a worker: one attempt of one cell.
#[derive(Clone, Copy, Debug)]
struct Task {
    cell: usize,
    attempt: u32,
}

/// Worker → collector messages.
enum Msg<T> {
    Started {
        cell: usize,
    },
    Finished {
        cell: usize,
        outcome: Result<T, CellPanic>,
    },
}

/// Per-cell recovery state on the collector.
struct Recovery<T> {
    /// Fallible attempts that panicked so far.
    panics: u32,
    /// Total runs executed (attempts + confirmation replays).
    runs: u32,
    /// A successful post-panic result awaiting its confirmation replay.
    candidate: Option<T>,
    /// Last panic message seen.
    last_panic: String,
}

impl<T> Recovery<T> {
    fn new() -> Self {
        Recovery {
            panics: 0,
            runs: 0,
            candidate: None,
            last_panic: String::new(),
        }
    }
}

/// Runs one attempt of one cell under panic isolation, applying the
/// fault plan first.
fn run_cell<I, T, F>(
    items: &[I],
    job: &F,
    faults: &FaultPlan,
    cell: usize,
    attempt: u32,
) -> Result<T, CellPanic>
where
    F: Fn(usize, &I) -> T,
{
    catch_unwind(AssertUnwindSafe(|| {
        match faults.action(cell, attempt) {
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
            // Unreachable: tasks are only created for in-range cells.
            #[expect(
                clippy::panic,
                reason = "harness invariant, not simulator state; caught by catch_unwind"
            )]
            None => {
                panic!("cell {cell} out of range")
            }
        }
    }))
    .map_err(|payload| CellPanic {
        message: panic_message(payload.as_ref()),
    })
}

/// Spawns one detached worker pulling tasks from the shared queue.
///
/// Workers are deliberately *not* scoped: a hung worker must be leakable
/// (abandoned mid-cell) while the run completes, which a scoped join
/// would forbid. All captured state is `Arc`-owned, so leaking a worker
/// leaks only its own stack and clones.
fn spawn_worker<I, T, F>(
    items: Arc<Vec<I>>,
    job: Arc<F>,
    faults: Arc<FaultPlan>,
    tasks: Arc<Mutex<mpsc::Receiver<Task>>>,
    results: mpsc::Sender<Msg<T>>,
) where
    I: Send + Sync + 'static,
    T: Send + 'static,
    F: Fn(usize, &I) -> T + Send + Sync + 'static,
{
    std::thread::spawn(move || loop {
        let task = {
            let rx = tasks
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            match rx.recv() {
                Ok(t) => t,
                Err(_) => break, // queue closed: run is over
            }
        };
        if results.send(Msg::Started { cell: task.cell }).is_err() {
            break;
        }
        let outcome = run_cell(
            items.as_slice(),
            job.as_ref(),
            &faults,
            task.cell,
            task.attempt,
        );
        if results
            .send(Msg::Finished {
                cell: task.cell,
                outcome,
            })
            .is_err()
        {
            break;
        }
    });
}

/// The watchdog's wall-clock read, confined to one helper so the
/// `disallowed_methods` expectation shows exactly where time enters.
#[expect(
    clippy::disallowed_methods,
    reason = "watchdog wall-clock read; never influences simulated state"
)]
fn wall_now() -> Instant {
    Instant::now()
}

/// Runs `job` over every cell of `items` not already in `completed`,
/// with panic isolation, bounded retry, divergence checking and (when a
/// budget is set) watchdog timeouts. Returns every cell's outcome in
/// canonical matrix order; `completed` cells are passed through as
/// `Ok` without re-execution.
///
/// `on_complete(cell, result)` fires on the collector thread for each
/// *newly executed* successful cell, in completion order — the journal
/// appends there. Completion order varies with thread count; the final
/// outcome vector does not.
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
    let executed = pending.len();
    let mut outcomes: Vec<Option<Result<T, CellFailure>>> = (0..n).map(|_| None).collect();
    for (cell, value) in completed {
        if let Some(slot) = outcomes.get_mut(cell) {
            *slot = Some(Ok(value));
        }
    }

    let mut retried = 0;
    if !pending.is_empty() {
        let items = Arc::new(items);
        let job = Arc::new(job);
        let faults = Arc::new(policy.faults.clone());
        let (task_tx, task_rx) = mpsc::channel::<Task>();
        let (result_tx, result_rx) = mpsc::channel::<Msg<T>>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        for &cell in &pending {
            let _ = task_tx.send(Task { cell, attempt: 1 });
        }
        let workers = policy.threads.clamp(1, pending.len());
        for _ in 0..workers {
            spawn_worker(
                Arc::clone(&items),
                Arc::clone(&job),
                Arc::clone(&faults),
                Arc::clone(&task_rx),
                result_tx.clone(),
            );
        }
        // With a watchdog we must keep a result sender to equip
        // replacement workers, so disconnection never fires and hangs are
        // caught by deadline instead. Without one, dropping our sender
        // lets a dead pool surface as `ResultLost`.
        let budget = policy.cell_timeout_ms.map(Duration::from_millis);
        let spare_result_tx = budget.map(|_| result_tx.clone());
        drop(result_tx);

        let mut states: BTreeMap<usize, Recovery<T>> = BTreeMap::new();
        let mut inflight: BTreeMap<usize, _> = BTreeMap::new();
        let mut outstanding = pending.len();
        let tick = budget
            .map(|b| (b / 4).clamp(Duration::from_millis(5), Duration::from_millis(100)))
            .unwrap_or(Duration::from_secs(3600));

        while outstanding > 0 {
            let msg = if budget.is_some() {
                match result_rx.recv_timeout(tick) {
                    Ok(m) => Some(m),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            } else {
                match result_rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                }
            };
            match msg {
                Some(Msg::Started { cell }) => {
                    if let Some(b) = budget {
                        inflight.insert(cell, wall_now() + b);
                    }
                }
                Some(Msg::Finished { cell, outcome }) => {
                    inflight.remove(&cell);
                    let resolved = outcomes.get(cell).is_some_and(Option::is_some);
                    if resolved {
                        continue; // late result of an already-quarantined cell
                    }
                    let state = states.entry(cell).or_insert_with(Recovery::new);
                    state.runs += 1;
                    let resolution: Option<Result<T, CellFailure>> = match outcome {
                        Ok(value) => {
                            if let Some(expected) = state.candidate.take() {
                                // Confirmation replay of a recovered cell.
                                if value == expected {
                                    Some(Ok(value))
                                } else {
                                    Some(Err(CellFailure::Nondeterministic {
                                        attempts: state.runs,
                                        detail: "two successful replays produced different results"
                                            .to_owned(),
                                    }))
                                }
                            } else if state.panics == 0 {
                                // Clean first run: trusted without replay,
                                // exactly like the plain sweep.
                                Some(Ok(value))
                            } else {
                                // Recovered after panics: confirm by replay.
                                state.candidate = Some(value);
                                let _ = task_tx.send(Task {
                                    cell,
                                    attempt: state.panics + 2,
                                });
                                None
                            }
                        }
                        Err(failure) => {
                            if state.candidate.take().is_some() {
                                // The confirmation replay itself panicked.
                                Some(Err(CellFailure::Nondeterministic {
                                    attempts: state.runs,
                                    detail: format!(
                                        "confirmation replay panicked: {}",
                                        failure.message
                                    ),
                                }))
                            } else {
                                state.panics += 1;
                                state.last_panic = failure.message;
                                if state.panics <= policy.max_retries {
                                    if state.panics == 1 {
                                        retried += 1;
                                    }
                                    let _ = task_tx.send(Task {
                                        cell,
                                        attempt: state.panics + 1,
                                    });
                                    None
                                } else {
                                    Some(Err(CellFailure::Panicked {
                                        attempts: state.panics,
                                        message: state.last_panic.clone(),
                                    }))
                                }
                            }
                        }
                    };
                    if let Some(resolution) = resolution {
                        if let Ok(value) = &resolution {
                            on_complete(cell, value);
                        }
                        if let Some(slot) = outcomes.get_mut(cell) {
                            *slot = Some(resolution);
                        }
                        states.remove(&cell);
                        outstanding -= 1;
                    }
                }
                None => {} // watchdog tick
            }
            // Watchdog scan: quarantine over-budget cells and replace
            // their (permanently stuck) workers.
            if let (Some(b), Some(spare)) = (budget, &spare_result_tx) {
                let now = wall_now();
                let hung: Vec<usize> = inflight
                    .iter()
                    .filter(|(_, deadline)| **deadline <= now)
                    .map(|(&cell, _)| cell)
                    .collect();
                for cell in hung {
                    inflight.remove(&cell);
                    let resolved = outcomes.get(cell).is_some_and(Option::is_some);
                    if resolved {
                        continue;
                    }
                    if let Some(slot) = outcomes.get_mut(cell) {
                        *slot = Some(Err(CellFailure::Hung {
                            budget_ms: u64::try_from(b.as_millis()).unwrap_or(u64::MAX),
                        }));
                    }
                    states.remove(&cell);
                    outstanding -= 1;
                    spawn_worker(
                        Arc::clone(&items),
                        Arc::clone(&job),
                        Arc::clone(&faults),
                        Arc::clone(&task_rx),
                        spare.clone(),
                    );
                }
            }
        }
        // Task queue closes here (task_tx drops); idle workers drain out.
    }

    let outcomes: Vec<Result<T, CellFailure>> = outcomes
        .into_iter()
        .map(|slot| slot.unwrap_or(Err(CellFailure::ResultLost)))
        .collect();
    ExecReport {
        outcomes,
        resumed,
        executed,
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
            // The replacement worker finished the rest of the matrix,
            // even at threads=1 where the original worker is stuck.
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
