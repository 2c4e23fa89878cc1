//! Trace abstractions: anything that produces a stream of memory accesses.

use crate::Access;

/// A source of memory accesses, consumed by the simulators.
///
/// Workload generators in `ldis-workloads` implement this, and
/// [`Trace::record`] captures one as a [`Trace`].
pub trait TraceSource {
    /// Produces the next access, or `None` when the trace is exhausted.
    fn next_access(&mut self) -> Option<Access>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "trace"
    }
}

/// An in-memory recorded trace.
///
/// Replaying a recorded trace guarantees that every cache configuration in
/// a comparison sees exactly the same access stream, as in the paper's
/// trace-driven methodology (Section 6.1).
///
/// # Example
///
/// ```
/// use ldis_mem::{Access, Addr, Trace};
///
/// let trace = Trace::from_accesses("demo", vec![Access::load(Addr::new(0), 8)]);
/// assert_eq!(trace.accesses(), [Access::load(Addr::new(0), 8)]);
/// assert_eq!(trace.instructions(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    name: String,
    accesses: Vec<Access>,
}

impl Trace {
    /// Creates an empty trace with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            accesses: Vec::new(),
        }
    }

    /// Creates a trace from pre-built accesses.
    pub fn from_accesses(name: impl Into<String>, accesses: Vec<Access>) -> Self {
        Trace {
            name: name.into(),
            accesses,
        }
    }

    /// Records every access produced by `source`, up to `limit` accesses.
    pub fn record(source: &mut dyn TraceSource, limit: usize) -> Self {
        let mut accesses = Vec::with_capacity(limit.min(1 << 20));
        while accesses.len() < limit {
            match source.next_access() {
                Some(a) => accesses.push(a),
                None => break,
            }
        }
        Trace {
            name: source.name().to_owned(),
            accesses,
        }
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of accesses recorded.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Total instructions represented by the trace (sum of per-access
    /// instruction gaps); the denominator of MPKI.
    pub fn instructions(&self) -> u64 {
        self.accesses.iter().map(|a| a.insts as u64).sum()
    }

    /// The recorded accesses.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Appends an access.
    pub fn push(&mut self, access: Access) {
        self.accesses.push(access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    struct Counting(u64);

    impl TraceSource for Counting {
        fn next_access(&mut self) -> Option<Access> {
            if self.0 == 0 {
                None
            } else {
                self.0 -= 1;
                Some(Access::load(Addr::new(self.0 * 8), 8).with_insts(2))
            }
        }
        fn name(&self) -> &str {
            "counting"
        }
    }

    #[test]
    fn record_respects_limit_and_exhaustion() {
        let t = Trace::record(&mut Counting(10), 4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.name(), "counting");
        let t2 = Trace::record(&mut Counting(3), 100);
        assert_eq!(t2.len(), 3);
    }

    #[test]
    fn instructions_sum_gaps() {
        let t = Trace::record(&mut Counting(5), 100);
        assert_eq!(t.instructions(), 10);
    }

    #[test]
    fn default_trace_is_empty() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.instructions(), 0);
    }
}
