//! The memory system: DRAM banks with conflicts, a split-transaction bus
//! and an MSHR-limited request window (Table 1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ldis_mem::LineAddr;

/// The DRAM + bus + MSHR model. Requests are issued with a start cycle and
/// return a completion cycle, accounting for bank conflicts (a bank serves
/// one request at a time), bus occupancy (one line transfer at a time) and
/// the MSHR bound (at most `mshr_entries` requests in flight).
#[derive(Clone, Debug)]
pub struct MemorySystem {
    banks: Vec<u64>,
    bus_free: u64,
    mem_latency: u64,
    transfer_cycles: u64,
    mshr_entries: usize,
    in_flight: BinaryHeap<Reverse<u64>>,
    /// Total requests issued.
    pub requests: u64,
    /// Cycles lost waiting for a free MSHR.
    pub mshr_stall_cycles: u64,
    /// Cycles lost to bank conflicts.
    pub bank_conflict_cycles: u64,
}

impl MemorySystem {
    /// Creates a memory system.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `mshr_entries` is zero.
    pub fn new(banks: u32, mem_latency: u64, transfer_cycles: u64, mshr_entries: u32) -> Self {
        assert!(
            banks > 0 && mshr_entries > 0,
            "banks and MSHRs must be positive"
        );
        MemorySystem {
            banks: vec![0; banks as usize],
            bus_free: 0,
            mem_latency,
            transfer_cycles,
            mshr_entries: mshr_entries as usize,
            in_flight: BinaryHeap::new(),
            requests: 0,
            mshr_stall_cycles: 0,
            bank_conflict_cycles: 0,
        }
    }

    /// Issues a line fetch at `cycle`; returns `(issue_cycle, completion)`.
    /// `issue_cycle ≥ cycle` accounts for a full MSHR; the completion is
    /// when the critical word is back at the L2.
    pub fn fetch(&mut self, cycle: u64, line: LineAddr) -> (u64, u64) {
        self.requests += 1;
        // Retire whatever has completed by now.
        while let Some(&Reverse(done)) = self.in_flight.peek() {
            if done <= cycle {
                self.in_flight.pop();
            } else {
                break;
            }
        }
        // MSHR bound: wait for the earliest completion if full.
        let mut issue = cycle;
        if self.in_flight.len() >= self.mshr_entries {
            if let Some(Reverse(earliest)) = self.in_flight.pop() {
                if earliest > issue {
                    self.mshr_stall_cycles += earliest - issue;
                    issue = earliest;
                }
            }
        }
        // Bank conflict: the bank serves one request at a time.
        // `bank < banks.len()` by the modulo, so the `get` fallbacks are
        // dead; an idle (0) busy-time leaves `issue` unchanged.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "reduced modulo banks.len(), a usize"
        )]
        let bank = (line.raw() % self.banks.len() as u64) as usize;
        let bank_start = issue.max(self.banks.get(bank).copied().unwrap_or(0));
        self.bank_conflict_cycles += bank_start - issue;
        let data_ready = bank_start + self.mem_latency;
        if let Some(slot) = self.banks.get_mut(bank) {
            *slot = data_ready;
        }
        // Bus: one line transfer at a time (split-transaction).
        let bus_start = data_ready.max(self.bus_free);
        let completion = bus_start + self.transfer_cycles;
        self.bus_free = completion;
        self.in_flight.push(Reverse(completion));
        (issue, completion)
    }

    /// Requests currently in flight (for tests).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(32, 400, 16, 32)
    }

    #[test]
    fn single_fetch_latency() {
        let mut m = mem();
        let (issue, done) = m.fetch(100, LineAddr::new(5));
        assert_eq!(issue, 100);
        assert_eq!(done, 100 + 400 + 16);
    }

    #[test]
    fn different_banks_overlap() {
        let mut m = mem();
        let (_, d1) = m.fetch(0, LineAddr::new(0));
        let (_, d2) = m.fetch(0, LineAddr::new(1));
        // Bank latency overlaps; only the bus serializes the transfers.
        assert_eq!(d1, 416);
        assert_eq!(d2, 432);
        assert_eq!(m.bank_conflict_cycles, 0);
    }

    #[test]
    fn same_bank_conflicts() {
        let mut m = mem();
        let (_, d1) = m.fetch(0, LineAddr::new(0));
        let (_, d2) = m.fetch(0, LineAddr::new(32)); // same bank (32 banks)
        assert_eq!(d1, 416);
        assert!(d2 >= 800, "second request waits for the bank: {d2}");
        assert!(m.bank_conflict_cycles > 0);
    }

    #[test]
    fn mshr_bound_limits_outstanding() {
        let mut m = MemorySystem::new(64, 400, 0, 4);
        for i in 0..4 {
            m.fetch(0, LineAddr::new(i));
        }
        assert_eq!(m.in_flight(), 4);
        let (issue, _) = m.fetch(0, LineAddr::new(100));
        assert!(
            issue >= 400,
            "5th request must wait for an MSHR, got {issue}"
        );
        assert!(m.mshr_stall_cycles > 0);
    }

    #[test]
    fn completed_requests_free_mshrs() {
        let mut m = MemorySystem::new(64, 400, 0, 2);
        m.fetch(0, LineAddr::new(0));
        m.fetch(0, LineAddr::new(1));
        // Far in the future both are done: no stall.
        let (issue, _) = m.fetch(10_000, LineAddr::new(2));
        assert_eq!(issue, 10_000);
        assert_eq!(m.mshr_stall_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_banks() {
        let _ = MemorySystem::new(0, 400, 16, 32);
    }
}
