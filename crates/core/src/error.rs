//! Typed invariant-violation taxonomy for the distill cache.
//!
//! The WOC's structural rules (Section 5.1–5.3), the reverter's PSEL
//! bounds (Section 5.5) and the median tracker's threshold range
//! (Section 5.4) are all *checkable* properties of modeled state. The
//! online self-checker evaluates them at a configurable cadence and
//! reports violations as [`LdisError`] values, which the graceful-
//! degradation policy turns into scrub-and-revert actions instead of
//! panics.

use ldis_mem::SetIndex;
use std::fmt;

/// A violated invariant of the distill cache's modeled state.
///
/// Every variant pinpoints the structure and location so degradation
/// events are actionable and fault-campaign reports can aggregate by
/// cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LdisError {
    /// A valid WOC entry that is not the head of any line (every stored
    /// line must start with a head-bit entry).
    WocOrphanEntry {
        /// Set containing the offending entry.
        set: SetIndex,
        /// Way containing the offending entry.
        way: usize,
        /// Slot of the offending entry within the way.
        slot: usize,
    },
    /// Words of one stored WOC line disagree on their tag.
    WocTagMismatch {
        /// Set containing the offending line.
        set: SetIndex,
        /// Way containing the offending line.
        way: usize,
        /// Slot where the mismatching word sits.
        slot: usize,
    },
    /// A stored WOC line violates the aligned power-of-two placement rule.
    WocMisaligned {
        /// Set containing the offending line.
        set: SetIndex,
        /// Way containing the offending line.
        way: usize,
        /// Slot where the line starts.
        start: usize,
        /// Number of words the line occupies.
        len: usize,
    },
    /// A stored WOC line's word ids are not strictly increasing.
    WocWordOrder {
        /// Set containing the offending line.
        set: SetIndex,
        /// Way containing the offending line.
        way: usize,
        /// Slot where the line starts.
        start: usize,
    },
    /// The reverter's PSEL counter escaped its `0..=psel_max` range.
    PselOutOfBounds {
        /// The observed PSEL value.
        psel: u16,
        /// The configured saturating maximum.
        max: u16,
    },
    /// The median tracker's threshold escaped `1..=words_per_line`.
    MedianOutOfRange {
        /// The observed threshold.
        threshold: u8,
        /// The line's word count (the legal maximum).
        words_per_line: u8,
    },
    /// Distill-cache bookkeeping broke: the four outcome counters no
    /// longer partition the access count.
    StatsMismatch {
        /// Sum of the four outcome counters.
        outcomes: u64,
        /// Total accesses recorded.
        accesses: u64,
    },
}

impl fmt::Display for LdisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LdisError::WocOrphanEntry { set, way, slot } => {
                write!(
                    f,
                    "woc set {set} way {way} slot {slot}: valid entry without a head"
                )
            }
            LdisError::WocTagMismatch { set, way, slot } => {
                write!(
                    f,
                    "woc set {set} way {way} slot {slot}: tag mismatch within line"
                )
            }
            LdisError::WocMisaligned {
                set,
                way,
                start,
                len,
            } => write!(
                f,
                "woc set {set} way {way}: line of {len} words at slot {start} is misaligned"
            ),
            LdisError::WocWordOrder { set, way, start } => write!(
                f,
                "woc set {set} way {way}: word ids not increasing in line at slot {start}"
            ),
            LdisError::PselOutOfBounds { psel, max } => {
                write!(f, "reverter psel {psel} exceeds maximum {max}")
            }
            LdisError::MedianOutOfRange {
                threshold,
                words_per_line,
            } => write!(
                f,
                "median threshold {threshold} outside 1..={words_per_line}"
            ),
            LdisError::StatsMismatch { outcomes, accesses } => write!(
                f,
                "outcome counters sum to {outcomes} but {accesses} accesses were recorded"
            ),
        }
    }
}

impl std::error::Error for LdisError {}

/// Why one sweep cell of an experiment matrix failed to produce a result.
///
/// The crash-safe sweep executor (`ldis-experiments::exec`) isolates every
/// cell behind `catch_unwind` and a watchdog; instead of poisoning the
/// merge or aborting the matrix, a failing cell is *quarantined* with one
/// of these typed causes. The variants mirror the [`LdisError`] idiom —
/// each pinpoints enough context (attempt counts, budgets, the panic
/// message) for the quarantine report to print an actionable repro.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellFailure {
    /// Every attempt (the initial run plus all retries) panicked.
    Panicked {
        /// Number of attempts made, including the first.
        attempts: u32,
        /// The last panic's payload, if it carried a string.
        message: String,
    },
    /// An attempt of the cell exceeded its wall-clock budget. The attempt
    /// ran on its own thread, which the watchdog abandons (it cannot be
    /// reclaimed) while the pool worker moves on. Hung cells are never
    /// retried: a retry would only strand another thread.
    Hung {
        /// The configured per-cell budget, in milliseconds.
        budget_ms: u64,
    },
    /// Two successful replays of the cell disagreed bit-for-bit. The cell
    /// draws from state outside its derived seed, so no single result can
    /// be trusted.
    Nondeterministic {
        /// Number of attempts made when the divergence was established.
        attempts: u32,
        /// What diverged (or the panic message of a failed confirmation).
        detail: String,
    },
    /// The cell never reported a result: a watchdog attempt's thread
    /// ended without sending one, or the cell's pool slot was never
    /// filled. Indicates a harness defect, never a simulation one.
    ResultLost,
}

impl CellFailure {
    /// A stable machine-readable tag for quarantine reports
    /// (`"panicked"`, `"hung"`, `"nondeterministic"`, `"result-lost"`).
    pub fn kind(&self) -> &'static str {
        match self {
            CellFailure::Panicked { .. } => "panicked",
            CellFailure::Hung { .. } => "hung",
            CellFailure::Nondeterministic { .. } => "nondeterministic",
            CellFailure::ResultLost => "result-lost",
        }
    }

    /// Number of attempts recorded in the failure (0 where attempts are
    /// not meaningful, e.g. a hang or a lost result).
    pub fn attempts(&self) -> u32 {
        match *self {
            CellFailure::Panicked { attempts, .. }
            | CellFailure::Nondeterministic { attempts, .. } => attempts,
            CellFailure::Hung { .. } | CellFailure::ResultLost => 0,
        }
    }
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Panicked { attempts, message } => {
                write!(f, "panicked on all {attempts} attempts: {message}")
            }
            CellFailure::Hung { budget_ms } => {
                write!(f, "exceeded the {budget_ms} ms watchdog budget")
            }
            CellFailure::Nondeterministic { attempts, detail } => {
                write!(f, "nondeterministic after {attempts} attempts: {detail}")
            }
            CellFailure::ResultLost => write!(f, "worker vanished without a result"),
        }
    }
}

impl std::error::Error for CellFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_pinpoints_location() {
        let e = LdisError::WocTagMismatch {
            set: SetIndex::new(3),
            way: 1,
            slot: 6,
        };
        let text = e.to_string();
        assert!(text.contains("set 3"));
        assert!(text.contains("way 1"));
        assert!(text.contains("slot 6"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(LdisError::PselOutOfBounds {
            psel: 300,
            max: 255,
        });
        assert!(e.to_string().contains("300"));
    }

    #[test]
    fn cell_failure_kinds_are_stable_and_displayed() {
        let cases: Vec<(CellFailure, &str, u32)> = vec![
            (
                CellFailure::Panicked {
                    attempts: 3,
                    message: "index out of bounds".into(),
                },
                "panicked",
                3,
            ),
            (CellFailure::Hung { budget_ms: 5000 }, "hung", 0),
            (
                CellFailure::Nondeterministic {
                    attempts: 2,
                    detail: "replays differ".into(),
                },
                "nondeterministic",
                2,
            ),
            (CellFailure::ResultLost, "result-lost", 0),
        ];
        for (failure, kind, attempts) in cases {
            assert_eq!(failure.kind(), kind);
            assert_eq!(failure.attempts(), attempts);
            assert!(!failure.to_string().is_empty());
        }
        let hung = CellFailure::Hung { budget_ms: 5000 };
        assert!(hung.to_string().contains("5000 ms"));
        let e: Box<dyn std::error::Error> = Box::new(hung);
        assert!(e.to_string().contains("watchdog"));
    }
}
