//! The workload driver: interleaves streams into a memory-access trace.

use crate::{Stream, ValueProfile, VisitKind};
use ldis_cache::{Hierarchy, SecondLevel};
use ldis_mem::{
    Access, AccessKind, Addr, GeometricTable, LineGeometry, SimRng, Trace, TraceSource,
};
use std::collections::VecDeque;

/// How long to run a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceLength {
    /// A fixed number of memory accesses.
    Accesses(u64),
    /// Until at least this many instructions have been represented.
    Instructions(u64),
}

impl TraceLength {
    /// A length of `n` memory accesses.
    pub const fn accesses(n: u64) -> Self {
        TraceLength::Accesses(n)
    }

    /// A length of at least `n` instructions.
    pub const fn instructions(n: u64) -> Self {
        TraceLength::Instructions(n)
    }
}

/// A synthetic benchmark: a weighted interleaving of [`Stream`]s plus the
/// scalar knobs that set its miss rate, store mix and instruction density.
///
/// Implements [`TraceSource`], so it can drive a
/// [`Hierarchy`](ldis_cache::Hierarchy) directly or be recorded into a
/// [`Trace`] for identical replay across cache configurations.
///
/// # Example
///
/// ```
/// use ldis_workloads::{Workload, PointerChase, WordsProfile};
/// use ldis_mem::TraceSource;
///
/// let mut w = Workload::builder("demo", 42)
///     .stream(1.0, PointerChase::new(0, 512, WordsProfile::sparse(), 1, 42))
///     .inst_gap(5.0)
///     .build();
/// let a = w.next_access().expect("workloads are endless");
/// assert!(a.insts >= 1);
/// ```
pub struct Workload {
    name: String,
    streams: Vec<Box<dyn Stream>>,
    weights: Vec<f64>,
    rng: SimRng,
    geometry: LineGeometry,
    inst_gap: f64,
    store_frac: f64,
    values: ValueProfile,
    queue: VecDeque<Access>,
    /// Precomputed `weights.iter().sum()` — the same f64 the per-call sum
    /// would produce, hoisted out of the per-visit hot path.
    weight_total: f64,
    /// The instruction-gap sampler for `inst_gap`.
    gaps: GeometricTable,
}

/// Distinct PCs each stream issues its data accesses from; a power of
/// two, so picking a line's PC slot is a mask.
const PCS_PER_STREAM: u64 = 8;

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("streams", &self.streams.len())
            .field("inst_gap", &self.inst_gap)
            .field("store_frac", &self.store_frac)
            .finish_non_exhaustive()
    }
}

/// Builder for [`Workload`]; created by [`Workload::builder`].
pub struct WorkloadBuilder {
    name: String,
    seed: u64,
    streams: Vec<Box<dyn Stream>>,
    weights: Vec<f64>,
    geometry: LineGeometry,
    inst_gap: f64,
    store_frac: f64,
    values: ValueProfile,
}

impl Workload {
    /// Starts building a workload with a name and a seed. All randomness —
    /// stream interleaving, instruction gaps, store selection — derives
    /// from the seed, so equal seeds give identical traces.
    pub fn builder(name: impl Into<String>, seed: u64) -> WorkloadBuilder {
        WorkloadBuilder {
            name: name.into(),
            seed,
            streams: Vec::new(),
            weights: Vec::new(),
            geometry: LineGeometry::default(),
            inst_gap: 10.0,
            store_frac: 0.25,
            values: ValueProfile::mixed_int(),
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The value model for compression experiments.
    pub fn values(&self) -> ValueProfile {
        self.values
    }

    /// The line/word geometry accesses are generated against.
    pub fn geometry(&self) -> LineGeometry {
        self.geometry
    }

    /// How many accesses [`drive_with`](Workload::drive_with) generates
    /// per block before handing the block on.
    pub const DRIVE_BLOCK: usize = 512;

    /// Runs `length` of this workload through a cache hierarchy; an
    /// `Accesses` length goes through [`drive_with`](Workload::drive_with).
    pub fn drive<L2: SecondLevel>(&mut self, hier: &mut Hierarchy<L2>, length: TraceLength) {
        match length {
            TraceLength::Accesses(n) => self.drive_with(n, |a| hier.access(a)),
            TraceLength::Instructions(n) => {
                let start = hier.stats().instructions;
                while hier.stats().instructions - start < n {
                    let a = self.generate();
                    hier.access(a);
                }
            }
        }
    }

    /// Hands the next `n` accesses to `f`, in trace order.
    ///
    /// The trace is generated in blocks of
    /// [`DRIVE_BLOCK`](Workload::DRIVE_BLOCK) accesses into a reusable
    /// buffer and then consumed, so generation and simulation each run
    /// over warm state instead of ping-ponging per access. The accesses
    /// are those per-access generation would give (the block boundary
    /// only changes *when* accesses are produced, not which), also when
    /// `n` ends mid-visit and a later call continues the trace.
    pub fn drive_with(&mut self, n: u64, mut f: impl FnMut(Access)) {
        let mut buf = Vec::with_capacity(Self::DRIVE_BLOCK);
        let mut remaining = n;
        while remaining > 0 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "take is at most DRIVE_BLOCK, a usize"
            )]
            let take = remaining.min(Self::DRIVE_BLOCK as u64) as usize;
            self.fill_block(&mut buf, take);
            for &a in buf.iter() {
                f(a);
            }
            remaining -= take as u64;
        }
    }

    /// Records `n` accesses into a replayable [`Trace`].
    pub fn record(&mut self, n: usize) -> Trace {
        Trace::record(self, n)
    }

    fn generate(&mut self) -> Access {
        loop {
            if let Some(a) = self.queue.pop_front() {
                return a;
            }
            self.refill();
        }
    }

    /// Clears `buf` and fills it with exactly `n` freshly generated
    /// accesses, in the same order [`next_access`](TraceSource::next_access)
    /// would return them one by one. Fresh visits are generated straight into
    /// `buf` — the queue only carries a visit tail across block boundaries.
    pub fn fill_block(&mut self, buf: &mut Vec<Access>, n: usize) {
        buf.clear();
        // Drain any visit tail left over from an earlier block boundary.
        while buf.len() < n {
            match self.queue.pop_front() {
                Some(a) => buf.push(a),
                None => break,
            }
        }
        // Generate the rest directly into the buffer — no queue round-trip.
        while buf.len() < n {
            self.refill_into(buf);
        }
        // The last visit may overshoot the block; its tail waits (in order)
        // for the next block. The queue is empty here, so `extend` keeps
        // the generated order.
        if buf.len() > n {
            self.queue.extend(buf.drain(n..));
        }
    }

    /// One instruction-gap draw; bit-identical to
    /// `rng.geometric(self.inst_gap)`, by table lookup instead of `ln`.
    #[inline]
    fn next_gap(&mut self) -> u32 {
        self.gaps.sample(&mut self.rng)
    }

    fn refill(&mut self) {
        // Detach the queue so `refill_into` can borrow the rest of `self`.
        let mut q = std::mem::take(&mut self.queue);
        self.refill_into(&mut q);
        self.queue = q;
    }

    /// Generates one stream visit's accesses, appending them to `out`. The
    /// RNG draw sequence is independent of the sink, so filling a block
    /// buffer directly and filling the queue produce identical traces.
    fn refill_into(&mut self, out: &mut impl AccessSink) {
        let idx = if self.streams.len() == 1 {
            0
        } else {
            self.rng
                .weighted_index_with_total(&self.weights, self.weight_total)
        };
        let visit = {
            let rng = &mut self.rng;
            // `weighted_index` returns an index < streams.len().
            match self.streams.get_mut(idx) {
                Some(stream) => stream.next_visit(rng),
                None => return,
            }
        };
        let geom = self.geometry;
        match visit.kind {
            VisitKind::Instr => {
                let addr = geom.line_base(visit.line);
                let insts = self.next_gap();
                out.push_access(Access::ifetch(addr).with_insts(insts));
            }
            VisitKind::Data => {
                // One access per touched word; the PC is stable per
                // (stream, line) so the spatial footprint predictor has
                // something to learn.
                let pc_base = 0x0040_0000 + (idx as u64) * 0x1_0000;
                let pc_slot = (visit.line.raw() ^ visit.line.raw() >> 7) % PCS_PER_STREAM;
                let pc = Addr::new(pc_base + pc_slot * 4);
                for word in visit.words.iter_used() {
                    let kind = if self.rng.chance(self.store_frac) {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "every workload geometry uses 4- or 8-byte words"
                    )]
                    let a = Access {
                        addr: geom.word_base(visit.line, word),
                        size: geom.word_bytes() as u8,
                        kind,
                        insts: self.next_gap(),
                        pc,
                    };
                    out.push_access(a);
                }
            }
        }
    }
}

/// An append-only destination for generated accesses — lets
/// [`Workload::refill_into`] target either the cross-block queue or a
/// caller's block buffer with the same code path.
trait AccessSink {
    fn push_access(&mut self, a: Access);
}

impl AccessSink for Vec<Access> {
    #[inline]
    fn push_access(&mut self, a: Access) {
        self.push(a);
    }
}

impl AccessSink for VecDeque<Access> {
    #[inline]
    fn push_access(&mut self, a: Access) {
        self.push_back(a);
    }
}

impl TraceSource for Workload {
    fn next_access(&mut self) -> Option<Access> {
        Some(self.generate())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl WorkloadBuilder {
    /// Adds a stream with a relative interleaving weight.
    pub fn stream(mut self, weight: f64, stream: impl Stream + 'static) -> Self {
        assert!(weight > 0.0, "stream weight must be positive");
        self.weights.push(weight);
        self.streams.push(Box::new(stream));
        self
    }

    /// Sets the mean instructions per memory access (controls MPKI scale).
    pub fn inst_gap(mut self, gap: f64) -> Self {
        assert!(gap >= 1.0, "gap must be at least one instruction");
        self.inst_gap = gap;
        self
    }

    /// Sets the fraction of data accesses that are stores.
    pub fn store_fraction(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "fraction must be in [0, 1]");
        self.store_frac = frac;
        self
    }

    /// Sets the value model used by the compression experiments.
    pub fn values(mut self, values: ValueProfile) -> Self {
        self.values = values;
        self
    }

    /// Overrides the line/word geometry (default 64 B / 8 B).
    pub fn geometry(mut self, geometry: LineGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if no stream was added.
    pub fn build(self) -> Workload {
        assert!(
            !self.streams.is_empty(),
            "a workload needs at least one stream"
        );
        let weight_total: f64 = self.weights.iter().sum();
        Workload {
            name: self.name,
            streams: self.streams,
            weights: self.weights,
            rng: SimRng::new(self.seed),
            geometry: self.geometry,
            inst_gap: self.inst_gap,
            store_frac: self.store_frac,
            values: self.values,
            queue: VecDeque::new(),
            weight_total,
            gaps: GeometricTable::new(self.inst_gap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HotSet, PointerChase, SequentialScan, WordsProfile};
    use ldis_cache::{BaselineL2, CacheConfig};

    fn simple(seed: u64) -> Workload {
        Workload::builder("test", seed)
            .stream(1.0, HotSet::new(0, 64, WordsProfile::mixed(), 1))
            .stream(
                2.0,
                SequentialScan::new(10_000, 256, WordsProfile::exactly(8), 2, true),
            )
            .inst_gap(4.0)
            .store_fraction(0.3)
            .build()
    }

    #[test]
    fn same_seed_same_trace() {
        let t1 = simple(9).record(2000);
        let t2 = simple(9).record(2000);
        assert_eq!(t1.accesses(), t2.accesses());
    }

    #[test]
    fn different_seeds_differ() {
        let t1 = simple(1).record(500);
        let t2 = simple(2).record(500);
        assert_ne!(t1.accesses(), t2.accesses());
    }

    #[test]
    fn accesses_are_word_aligned_and_sized() {
        let t = simple(3).record(1000);
        for a in t.accesses() {
            assert_eq!(a.addr.raw() % 8, 0);
            assert_eq!(a.size, 8);
            assert!(a.insts >= 1);
        }
    }

    #[test]
    fn store_fraction_is_respected() {
        let t = simple(5).record(10_000);
        let stores = t
            .accesses()
            .iter()
            .filter(|a| a.kind == AccessKind::Store)
            .count();
        let frac = stores as f64 / t.len() as f64;
        assert!((0.25..0.35).contains(&frac), "store fraction {frac}");
    }

    #[test]
    fn inst_gap_sets_instruction_density() {
        let t = simple(7).record(10_000);
        let per_access = t.instructions() as f64 / t.len() as f64;
        assert!((3.5..4.5).contains(&per_access), "gap {per_access}");
    }

    #[test]
    fn drive_runs_through_hierarchy() {
        let mut w = simple(11);
        let l2 = BaselineL2::new(CacheConfig::new(1 << 20, 8, Default::default()));
        let mut hier = Hierarchy::hpca2007(l2);
        w.drive(&mut hier, TraceLength::accesses(5_000));
        assert_eq!(hier.stats().l1d_accesses + hier.stats().l1i_accesses, 5_000);
        let mut w2 = simple(12);
        let before = hier.stats().instructions;
        w2.drive(&mut hier, TraceLength::instructions(10_000));
        assert!(hier.stats().instructions - before >= 10_000);
    }

    #[test]
    fn pc_is_stable_per_line() {
        let mut w = Workload::builder("pc", 1)
            .stream(
                1.0,
                PointerChase::new(0, 32, WordsProfile::exactly(1), 0, 1),
            )
            .build();
        let t = w.record(64);
        let mut pcs = std::collections::BTreeMap::new();
        for a in t.accesses() {
            let line = a.addr.raw() / 64;
            let pc = pcs.entry(line).or_insert(a.pc);
            assert_eq!(*pc, a.pc, "line {line} must keep its PC");
        }
    }

    #[test]
    fn fill_block_matches_per_access_generation() {
        let mut blocked_src = simple(21);
        let mut serial_src = simple(21);
        let mut buf = Vec::new();
        let mut blocked = Vec::new();
        // Odd block sizes exercise visits split across block boundaries.
        for n in [1usize, 3, 512, 100, 7] {
            blocked_src.fill_block(&mut buf, n);
            assert_eq!(buf.len(), n);
            blocked.extend(buf.iter().copied());
        }
        let serial: Vec<_> = (0..blocked.len()).map(|_| serial_src.generate()).collect();
        assert_eq!(blocked, serial, "blocking must not change the trace");
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_workload_rejected() {
        let _ = Workload::builder("empty", 0).build();
    }
}
