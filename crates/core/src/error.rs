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
}
