//! SHARDS: constant-memory sampled miss-ratio curves.
//!
//! The exact [`MattsonProfiler`](crate::MattsonProfiler) holds every
//! resident line of every profiled configuration — fine for the quick
//! matrix, unusable against a fleet-scale stream. SHARDS (*Spatially
//! Hashed Approximate Reuse Distance Sampling*, surveyed in the MRC
//! literature this crate follows) profiles only the lines whose spatial
//! hash falls under a threshold `T` of a modulus `P`, giving an effective
//! sampling rate `R = T / P`:
//!
//! * **Spatial hashing** — the hash depends only on the line address, so
//!   *every* reference to a sampled line is profiled and reuse distances
//!   within the sample are exact (in sampled-line units). Scaling a
//!   sampled distance by `1 / R` estimates the unsampled distance.
//! * **Fixed-size operation (`S_max`)** — when the sample set outgrows
//!   its budget, the entry with the *largest* hash is evicted and `T`
//!   drops to that hash. `T` only ever decreases, so an evicted line is
//!   never readmitted: the sample always equals exactly the lines with
//!   `hash < T`, and memory stays `O(S_max)` regardless of trace length.
//! * **`SHARDS_adj`** — with rate adaptation the realized sample count
//!   `N` drifts from the expectation `E = total_refs × R_final`. The
//!   survey's correction adds `E − N` to the distance-0 bucket, which
//!   [`SampledMrc::miss_ratio`] applies when it converts the scaled
//!   histogram into a miss ratio.
//!
//! Reuse distances over the sample are counted with a Fenwick tree over
//! access timestamps (`O(log S_max)` per reference, with periodic
//! timestamp compaction), and accumulated into a bucketed histogram of
//! *scaled* distances so a finished profile answers any bucket-aligned
//! capacity query in `O(capacity / bucket_lines)`.
//!
//! The sampled engine deliberately models a **fully-associative** LRU
//! cache: per-set distances cannot be resolved at rates of 1% when a set
//! holds at most 12 lines. The bounded-error oracle
//! (`tests/mrc_sampled_oracle.rs`) therefore checks the estimate against
//! the exact set-associative Mattson reconstruction within a per-rate
//! tolerance [`epsilon_miss_ratio`] that absorbs both the sampling noise
//! and the (small, for 8–12 ways) associativity modeling bias.

use ldis_cache::{L2Outcome, L2Request, L2Response, L2Stats, SecondLevel};
use ldis_mem::stats::Counter;
use ldis_mem::{Footprint, LineAddr, LineGeometry, WordIndex};
use std::collections::{BTreeMap, BTreeSet};

/// log2 of the spatial-hash modulus `P`.
pub const SHARDS_MODULUS_BITS: u32 = 24;

/// The spatial-hash modulus `P`: [`spatial_hash`] is uniform in `[0, P)`
/// and the sampling rate of a threshold `T` is `T / P`.
pub const SHARDS_MODULUS: u64 = 1 << SHARDS_MODULUS_BITS;

/// The spatial hash of a line: a SplitMix64-style finalizer over the raw
/// line number, reduced to `[0, P)`. Deliberately *seed-independent* —
/// spatial hashing requires that every reference to a given line make the
/// same sampling decision, and it lets two profilers over interleaved
/// streams sample consistent line populations.
pub fn spatial_hash(line: LineAddr) -> u64 {
    let mut z = line.raw().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z & (SHARDS_MODULUS - 1)
}

/// Knobs of a [`ShardsProfiler`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardsConfig {
    /// Target sampling rate `R ∈ (0, 1]`; the initial threshold is
    /// `round(R × P)`.
    pub rate: f64,
    /// Sample-set budget `S_max`: the profiler never tracks more lines
    /// than this, lowering the threshold (and thus the realized rate)
    /// to stay inside it.
    pub s_max: usize,
    /// Width of one histogram bucket in (scaled) lines. Capacity queries
    /// must be multiples of this.
    pub bucket_lines: u64,
    /// Largest scaled distance resolved by the histogram; greater
    /// distances land in the overflow bucket (a miss at every profiled
    /// capacity). Must be a multiple of `bucket_lines`.
    pub max_lines: u64,
}

impl ShardsConfig {
    /// A configuration at sampling rate `rate` with the default budget
    /// (8192 samples), 64-line buckets and 2 Mi-line reach — enough to
    /// resolve capacities up to 128 MB of 64 B lines at 4 KB granularity.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not in `(0, 1]`.
    pub fn at_rate(rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "sampling rate must be in (0, 1]");
        ShardsConfig {
            rate,
            s_max: 8192,
            bucket_lines: 64,
            max_lines: 1 << 21,
        }
    }

    /// Returns a copy with a different sample-set budget.
    ///
    /// # Panics
    ///
    /// Panics when `s_max` is zero.
    #[must_use]
    pub fn with_sample_budget(mut self, s_max: usize) -> Self {
        assert!(s_max > 0, "sample budget must be positive");
        self.s_max = s_max;
        self
    }

    /// Returns a copy with a different histogram resolution.
    ///
    /// # Panics
    ///
    /// Panics when `bucket_lines` is zero or `max_lines` is not a
    /// positive multiple of `bucket_lines`.
    #[must_use]
    pub fn with_resolution(mut self, bucket_lines: u64, max_lines: u64) -> Self {
        assert!(bucket_lines > 0, "bucket width must be positive");
        assert!(
            max_lines > 0 && max_lines.is_multiple_of(bucket_lines),
            "max_lines must be a positive multiple of bucket_lines"
        );
        self.bucket_lines = bucket_lines;
        self.max_lines = max_lines;
        self
    }

    /// The initial sampling threshold `T = round(R × P)`, clamped to at
    /// least 1 so a positive rate always samples something.
    pub fn initial_threshold(&self) -> u64 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "float-to-int casts saturate, and the next line clamps to 1..=SHARDS_MODULUS"
        )]
        let t = (self.rate * SHARDS_MODULUS as f64).round() as u64;
        t.clamp(1, SHARDS_MODULUS)
    }

    /// Number of histogram buckets below the overflow bucket.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the bucket count sizes the in-memory histogram, so it fits usize"
    )]
    pub fn bucket_count(&self) -> usize {
        (self.max_lines / self.bucket_lines) as usize
    }
}

/// Per-sampled-line state.
#[derive(Clone, Copy, Debug)]
struct SampleSlot {
    /// Timestamp of the last sampled reference (Fenwick index).
    ts: usize,
    /// Words touched while tracked, L1D evictions merged in.
    footprint: Footprint,
    /// Whether the line was brought in by an instruction fetch.
    is_instr: bool,
}

/// A Fenwick (binary indexed) tree counting live sample timestamps, so a
/// reuse distance is `live_entries − prefix(ts)` in `O(log n)`.
#[derive(Clone, Debug)]
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(capacity: usize) -> Self {
        Fenwick {
            tree: vec![0; capacity + 1],
        }
    }

    /// Timestamp capacity.
    fn capacity(&self) -> usize {
        self.tree.len() - 1
    }

    fn add(&mut self, ts: usize, delta: i64) {
        let mut i = ts + 1;
        while i < self.tree.len() {
            if let Some(v) = self.tree.get_mut(i) {
                *v += delta;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of deltas at timestamps `0..=ts`.
    fn prefix(&self, ts: usize) -> i64 {
        let mut i = (ts + 1).min(self.tree.len() - 1);
        let mut sum = 0;
        while i > 0 {
            sum += self.tree.get(i).copied().unwrap_or(0);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// What [`ShardsProfiler::record`] did with a reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleOutcome {
    /// The line's hash is at or above the current threshold: not sampled.
    Skipped,
    /// First sampled reference to the line (a cold miss in the sample).
    Cold,
    /// A sampled reuse at the given rate-scaled stack distance.
    Reuse {
        /// The reuse distance scaled by the inverse sampling rate, in
        /// lines — an estimate of the unsampled stack distance.
        scaled_lines: u64,
    },
}

/// The constant-memory SHARDS profiler: a fixed-budget sample set over
/// spatially hashed lines plus a bucketed histogram of scaled reuse
/// distances. See the module docs for the algorithm.
#[derive(Clone, Debug)]
pub struct ShardsProfiler {
    config: ShardsConfig,
    threshold: u64,
    entries: BTreeMap<LineAddr, SampleSlot>,
    /// Secondary index `(hash, line)` for O(log n) max-hash eviction.
    by_hash: BTreeSet<(u64, LineAddr)>,
    fenwick: Fenwick,
    clock: usize,
    /// Bucket `b` counts sampled reuses with scaled distance in
    /// `[b × bucket_lines, (b+1) × bucket_lines)`.
    buckets: Vec<u64>,
    overflow: u64,
    cold: u64,
    total_refs: u64,
    sampled_refs: u64,
    evicted: u64,
    threshold_drops: u64,
    peak_samples: usize,
}

impl ShardsProfiler {
    /// Creates an empty profiler.
    ///
    /// # Panics
    ///
    /// Panics when the configuration violates the invariants documented
    /// on [`ShardsConfig`]'s constructors (non-positive rate, zero
    /// budget, or a histogram reach that is not a multiple of the bucket
    /// width).
    pub fn new(config: ShardsConfig) -> Self {
        assert!(
            config.rate > 0.0 && config.rate <= 1.0,
            "sampling rate must be in (0, 1]"
        );
        assert!(config.s_max > 0, "sample budget must be positive");
        assert!(
            config.bucket_lines > 0
                && config.max_lines > 0
                && config.max_lines.is_multiple_of(config.bucket_lines),
            "max_lines must be a positive multiple of bucket_lines"
        );
        ShardsProfiler {
            config,
            threshold: config.initial_threshold(),
            entries: BTreeMap::new(),
            by_hash: BTreeSet::new(),
            fenwick: Fenwick::new(1024),
            clock: 0,
            buckets: vec![0; config.bucket_count()],
            overflow: 0,
            cold: 0,
            total_refs: 0,
            sampled_refs: 0,
            evicted: 0,
            threshold_drops: 0,
            peak_samples: 0,
        }
    }

    /// Profiles one L2 reference. `word` is the demanded word for data
    /// accesses (`None` for instruction fetches), used only for the
    /// words-used estimate, never for the sampling decision.
    pub fn record(
        &mut self,
        line: LineAddr,
        word: Option<WordIndex>,
        is_instr: bool,
    ) -> SampleOutcome {
        self.total_refs += 1;
        let hash = spatial_hash(line);
        if hash >= self.threshold {
            return SampleOutcome::Skipped;
        }
        self.sampled_refs += 1;
        if self.clock == self.fenwick.capacity() {
            self.compact();
        }
        let now = self.clock;
        self.clock += 1;
        let live = self.entries.len() as i64;
        if let Some(slot) = self.entries.get_mut(&line) {
            let seen = self.fenwick.prefix(slot.ts);
            let distance = (live - seen).max(0) as u64;
            self.fenwick.add(slot.ts, -1);
            self.fenwick.add(now, 1);
            slot.ts = now;
            if let Some(w) = word {
                slot.footprint.touch(w);
            }
            // Scale by the inverse of the *current* rate T/P, in integer
            // arithmetic: distance × P / T (fits u128 comfortably).
            #[expect(
                clippy::cast_possible_truncation,
                reason = "clamped to u64::MAX before the cast"
            )]
            let scaled = ((distance as u128 * SHARDS_MODULUS as u128) / self.threshold as u128)
                .min(u64::MAX as u128) as u64;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "usize is 64 bits on every supported host; a bucket past the histogram counts as overflow"
            )]
            let bucket = (scaled / self.config.bucket_lines) as usize;
            match self.buckets.get_mut(bucket) {
                Some(b) => *b += 1,
                None => self.overflow += 1,
            }
            SampleOutcome::Reuse {
                scaled_lines: scaled,
            }
        } else {
            self.cold += 1;
            let mut footprint = Footprint::empty();
            if let Some(w) = word {
                footprint.touch(w);
            }
            self.entries.insert(
                line,
                SampleSlot {
                    ts: now,
                    footprint,
                    is_instr,
                },
            );
            self.by_hash.insert((hash, line));
            self.fenwick.add(now, 1);
            if self.entries.len() > self.config.s_max {
                self.shrink_to_budget();
            }
            self.peak_samples = self.peak_samples.max(self.entries.len());
            SampleOutcome::Cold
        }
    }

    /// Merges an L1D eviction footprint into the line's sample entry (a
    /// no-op for unsampled lines), mirroring
    /// [`SecondLevel::on_l1d_evict`].
    pub fn merge_l1d_evict(&mut self, line: LineAddr, footprint: Footprint) {
        if let Some(slot) = self.entries.get_mut(&line) {
            slot.footprint.merge(footprint);
        }
    }

    /// Lowers the threshold to the largest tracked hash and drops every
    /// entry at or above it, restoring `len ≤ S_max`. Because the new
    /// threshold equals an evicted hash, no future reference to an
    /// evicted line can be readmitted.
    fn shrink_to_budget(&mut self) {
        while self.entries.len() > self.config.s_max {
            let Some(&(max_hash, _)) = self.by_hash.iter().next_back() else {
                return;
            };
            self.threshold = max_hash;
            self.threshold_drops += 1;
            while let Some(&(hash, line)) = self.by_hash.iter().next_back() {
                if hash < self.threshold {
                    break;
                }
                self.by_hash.remove(&(hash, line));
                if let Some(slot) = self.entries.remove(&line) {
                    self.fenwick.add(slot.ts, -1);
                }
                self.evicted += 1;
            }
        }
    }

    /// Reassigns dense timestamps `0..len` in recency order and resizes
    /// the Fenwick tree, keeping per-reference cost `O(log S_max)`
    /// amortized over unbounded streams.
    fn compact(&mut self) {
        let mut order: Vec<(usize, LineAddr)> =
            self.entries.iter().map(|(l, s)| (s.ts, *l)).collect();
        order.sort_unstable();
        let need = (order.len() * 2).max(1024).next_power_of_two();
        self.fenwick = Fenwick::new(need);
        self.clock = 0;
        for (_, line) in order {
            if let Some(slot) = self.entries.get_mut(&line) {
                slot.ts = self.clock;
                self.fenwick.add(self.clock, 1);
                self.clock += 1;
            }
        }
    }

    /// Zeroes the histogram and reference counters without touching the
    /// sample set or the threshold — the warmup contract: the sample
    /// stays warm, only the measurement restarts.
    pub fn reset_counters(&mut self) {
        for b in &mut self.buckets {
            *b = 0;
        }
        self.overflow = 0;
        self.cold = 0;
        self.total_refs = 0;
        self.sampled_refs = 0;
        self.evicted = 0;
        self.threshold_drops = 0;
        self.peak_samples = self.entries.len();
    }

    /// The configuration the profiler was built with.
    pub fn config(&self) -> &ShardsConfig {
        &self.config
    }

    /// The current sampling threshold `T`.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The current realized sampling rate `T / P` (≤ the configured rate).
    pub fn current_rate(&self) -> f64 {
        self.threshold as f64 / SHARDS_MODULUS as f64
    }

    /// Number of lines currently tracked.
    pub fn sample_len(&self) -> usize {
        self.entries.len()
    }

    /// High-water mark of the sample set (never exceeds `S_max`).
    pub fn peak_samples(&self) -> usize {
        self.peak_samples
    }

    /// Total references offered, sampled or not.
    pub fn total_refs(&self) -> u64 {
        self.total_refs
    }

    /// References that passed the hash filter.
    pub fn sampled_refs(&self) -> u64 {
        self.sampled_refs
    }

    /// Lines evicted by threshold lowering.
    pub fn evicted_lines(&self) -> u64 {
        self.evicted
    }

    /// Number of times the threshold was lowered.
    pub fn threshold_drops(&self) -> u64 {
        self.threshold_drops
    }

    /// The tracked lines in address order (test/diagnostic surface).
    pub fn sample_lines(&self) -> Vec<LineAddr> {
        self.entries.keys().copied().collect()
    }

    /// Mean words used per tracked *data* line — the sampled estimate
    /// behind the advisor's LOC:WOC split. 0 when no data line is
    /// tracked.
    pub fn mean_words_used(&self) -> f64 {
        let mut lines_seen = 0u64;
        let mut words = 0u64;
        for slot in self.entries.values() {
            if !slot.is_instr {
                lines_seen += 1;
                words += u64::from(slot.footprint.used_words());
            }
        }
        if lines_seen == 0 {
            return 0.0;
        }
        words as f64 / lines_seen as f64
    }

    /// Snapshots the profile into a queryable [`SampledMrc`].
    pub fn mrc(&self) -> SampledMrc {
        SampledMrc {
            bucket_lines: self.config.bucket_lines,
            buckets: self.buckets.clone(),
            overflow: self.overflow,
            cold: self.cold,
            total_refs: self.total_refs,
            sampled_refs: self.sampled_refs,
            rate: self.current_rate(),
        }
    }
}

/// A finished sampled miss-ratio curve: the scaled-distance histogram
/// plus the normalization constants needed to answer capacity queries.
/// Fields are public so tests can perturb a snapshot and prove the
/// bounded-error oracle notices (`tests/mrc_sampled_oracle.rs`).
#[derive(Clone, Debug, PartialEq)]
pub struct SampledMrc {
    /// Histogram bucket width in lines.
    pub bucket_lines: u64,
    /// Bucket `b` counts scaled reuse distances in
    /// `[b × bucket_lines, (b+1) × bucket_lines)`.
    pub buckets: Vec<u64>,
    /// Reuses beyond the histogram reach (misses at every capacity).
    pub overflow: u64,
    /// Sampled cold (first-touch) references.
    pub cold: u64,
    /// Total references offered to the profiler, sampled or not.
    pub total_refs: u64,
    /// References that passed the hash filter.
    pub sampled_refs: u64,
    /// Final realized sampling rate `T / P`.
    pub rate: f64,
}

impl SampledMrc {
    /// The expected sample count `E = total_refs × R_final`.
    pub fn expected_samples(&self) -> f64 {
        self.total_refs as f64 * self.rate
    }

    /// The `SHARDS_adj` correction `E − N`: the drift between expected
    /// and realized sample counts, credited to the distance-0 bucket.
    pub fn adjustment(&self) -> f64 {
        self.expected_samples() - self.sampled_refs as f64
    }

    /// Estimated miss ratio of a fully-associative LRU cache of
    /// `capacity_lines` lines. `capacity_lines` should be a multiple of
    /// the bucket width; fractional buckets are floored (a conservative,
    /// deterministic rounding).
    pub fn miss_ratio(&self, capacity_lines: u64) -> f64 {
        let expected = self.expected_samples();
        if expected <= 0.0 {
            return 1.0;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "take() stops at the histogram length, so a larger count just means every bucket"
        )]
        let full_buckets = (capacity_lines / self.bucket_lines) as usize;
        let raw_hits: u64 = self.buckets.iter().take(full_buckets).sum();
        // SHARDS_adj: distance-0 mass keeps every bucket prefix honest.
        let hits = raw_hits as f64 + self.adjustment();
        (1.0 - hits / expected).clamp(0.0, 1.0)
    }

    /// Estimated demand MPKI at `capacity_lines`, using the trace's
    /// instruction count for normalization. 0 when `instructions` is 0.
    pub fn estimated_mpki(&self, capacity_lines: u64, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.miss_ratio(capacity_lines) * self.total_refs as f64 * 1000.0 / instructions as f64
    }
}

/// Per-rate error budget of the sampled engine, in miss-ratio units:
/// `(rate, ε)` rows asserted by the bounded-error oracle over the whole
/// quick matrix. Calibrated empirically on the 27-benchmark × 6-size
/// matrix (maximum observed error 0.067 / 0.154 / 0.358, with ≥ 1.5×
/// margin; regenerate with `LDIS_PRINT_ERR=1 cargo test --release --test
/// mrc_sampled_oracle -- --nocapture`); the shape — error growing as the
/// rate shrinks — follows the MRC survey's reported mean-absolute-error
/// trend for SHARDS. The quick config issues only 150 k accesses, so
/// rate 0.001 profiles a few hundred references and needs a loose bound.
pub const EPSILON_TABLE: [(f64, f64); 3] = [(0.1, 0.10), (0.01, 0.24), (0.001, 0.55)];

/// The miss-ratio error budget ε(rate): the table row with the largest
/// rate not exceeding `rate` (the loosest applicable bound below any
/// tabulated rate).
pub fn epsilon_miss_ratio(rate: f64) -> f64 {
    let mut eps = match EPSILON_TABLE.last() {
        Some(&(_, e)) => e,
        None => 1.0,
    };
    for &(r, e) in EPSILON_TABLE.iter() {
        if rate >= r {
            eps = e;
            break;
        }
    }
    eps
}

/// Converts the miss-ratio budget into an MPKI budget for a trace with
/// `l2_accesses` demand references over `instructions` instructions:
/// `ε × 1000 × accesses / instructions` (infinite when the instruction
/// count is zero — nothing to normalize by).
pub fn mpki_tolerance(rate: f64, l2_accesses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        return f64::INFINITY;
    }
    epsilon_miss_ratio(rate) * 1000.0 * l2_accesses as f64 / instructions as f64
}

/// The bounded-error check of the differential oracle: passes when
/// `|sampled − exact| ≤ tolerance` (in MPKI).
///
/// # Errors
///
/// Returns a message naming both values, the absolute error and the
/// budget when the bound is violated (or when either value is NaN).
pub fn check_bounded_error(
    sampled_mpki: f64,
    exact_mpki: f64,
    tolerance_mpki: f64,
) -> Result<(), String> {
    let err = (sampled_mpki - exact_mpki).abs();
    if err <= tolerance_mpki {
        Ok(())
    } else {
        Err(format!(
            "sampled MPKI {sampled_mpki:.4} vs exact {exact_mpki:.4}: \
             |error| {err:.4} exceeds budget {tolerance_mpki:.4}"
        ))
    }
}

/// A [`SecondLevel`] adapter feeding the L2 demand stream into a
/// [`ShardsProfiler`].
///
/// The L1 hierarchy's behavior does not depend on the L2's replies, so
/// on the same trace the profiler observes the byte-identical request
/// stream the exact engines see. Every access is answered as a nominal
/// line miss with all words valid (the sampler models no concrete
/// capacity).
pub struct ShardsL2 {
    geometry: LineGeometry,
    profiler: ShardsProfiler,
    stats: L2Stats,
}

impl ShardsL2 {
    /// Creates a sampled profiler for `geometry` with the given SHARDS
    /// configuration.
    pub fn new(geometry: LineGeometry, config: ShardsConfig) -> Self {
        ShardsL2 {
            geometry,
            profiler: ShardsProfiler::new(config),
            stats: L2Stats::new(geometry.words_per_line(), 1),
        }
    }

    /// The wrapped profiler.
    pub fn profiler(&self) -> &ShardsProfiler {
        &self.profiler
    }

    /// Snapshots the sampled miss-ratio curve.
    pub fn mrc(&self) -> SampledMrc {
        self.profiler.mrc()
    }
}

impl SecondLevel for ShardsL2 {
    fn access(&mut self, req: L2Request) -> L2Response {
        self.stats.accesses.bump();
        self.stats.line_misses.bump();
        let word = if req.is_instr { None } else { Some(req.word) };
        self.profiler.record(req.line, word, req.is_instr);
        L2Response {
            outcome: L2Outcome::LineMiss,
            valid_words: Footprint::full(self.geometry.words_per_line()),
        }
    }

    fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, _dirty: bool) {
        self.profiler.merge_l1d_evict(line, footprint);
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = L2Stats::new(self.geometry.words_per_line(), 1);
        self.profiler.reset_counters();
    }

    fn geometry(&self) -> LineGeometry {
        self.geometry
    }

    fn name(&self) -> &str {
        "SHARDS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_mem::SimRng;

    fn line(raw_line: u64) -> LineAddr {
        LineAddr::new(raw_line)
    }

    #[test]
    fn spatial_hash_is_uniform_enough_and_in_range() {
        let mut below = 0u64;
        let n = 100_000u64;
        for i in 0..n {
            let h = spatial_hash(line(i));
            assert!(h < SHARDS_MODULUS);
            if h < SHARDS_MODULUS / 10 {
                below += 1;
            }
        }
        // A 10% threshold should catch ~10% of lines (±20% relative).
        assert!((8_000..12_000).contains(&below), "{below}");
    }

    /// At rate 1.0 every line is sampled and scaling is the identity, so
    /// the profiler must reproduce brute-force fully-associative LRU
    /// stack distances exactly.
    #[test]
    fn rate_one_matches_brute_force_lru() {
        let cfg = ShardsConfig::at_rate(1.0)
            .with_sample_budget(1 << 16)
            .with_resolution(1, 1 << 12);
        let mut p = ShardsProfiler::new(cfg);
        let mut rng = SimRng::new(0xD15);
        let mut stack: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            let l = rng.range(400);
            let expect = stack.iter().rev().position(|&x| x == l);
            match expect {
                Some(d) => {
                    let got = p.record(line(l), None, false);
                    assert_eq!(
                        got,
                        SampleOutcome::Reuse {
                            scaled_lines: d as u64
                        }
                    );
                    let pos = stack.len() - 1 - d;
                    stack.remove(pos);
                }
                None => {
                    assert_eq!(p.record(line(l), None, false), SampleOutcome::Cold);
                }
            }
            stack.push(l);
        }
        // With distance-1 buckets the histogram is the exact distance
        // distribution; the adjustment is 0 at rate 1.0.
        let mrc = p.mrc();
        assert_eq!(mrc.sampled_refs, mrc.total_refs);
        assert!(mrc.adjustment().abs() < 1e-9);
    }

    #[test]
    fn budget_is_enforced_and_threshold_only_drops() {
        let cfg = ShardsConfig::at_rate(1.0).with_sample_budget(32);
        let mut p = ShardsProfiler::new(cfg);
        let mut last_threshold = p.threshold();
        for i in 0..10_000u64 {
            p.record(line(i), None, false);
            assert!(p.sample_len() <= 32, "budget exceeded at line {i}");
            assert!(p.threshold() <= last_threshold, "threshold rose");
            last_threshold = p.threshold();
        }
        assert!(p.peak_samples() <= 32);
        assert!(p.threshold() < SHARDS_MODULUS, "threshold never adapted");
        assert!(p.evicted_lines() > 0);
        // Everything still tracked hashes below the final threshold.
        for l in p.sample_lines() {
            assert!(spatial_hash(l) < p.threshold());
        }
    }

    #[test]
    fn miss_ratio_is_monotone_in_capacity_and_clamped() {
        let cfg = ShardsConfig::at_rate(0.5).with_sample_budget(4096);
        let mut p = ShardsProfiler::new(cfg);
        let mut rng = SimRng::new(7);
        for _ in 0..50_000 {
            let l = rng.range(3000);
            p.record(line(l), None, false);
        }
        let mrc = p.mrc();
        let mut prev = 1.0f64;
        for lines_cap in (0..=4096).step_by(64) {
            let m = mrc.miss_ratio(lines_cap as u64);
            assert!((0.0..=1.0).contains(&m));
            assert!(m <= prev + 1e-12, "miss ratio rose at {lines_cap}");
            prev = m;
        }
    }

    #[test]
    fn warmup_reset_keeps_the_sample_warm() {
        let cfg = ShardsConfig::at_rate(1.0).with_sample_budget(64);
        let mut p = ShardsProfiler::new(cfg);
        for i in 0..200u64 {
            p.record(line(i % 40), None, false);
        }
        let len = p.sample_len();
        let threshold = p.threshold();
        p.reset_counters();
        assert_eq!(p.total_refs(), 0);
        assert_eq!(p.sample_len(), len);
        assert_eq!(p.threshold(), threshold);
        // Re-referencing a warm line is a reuse, not a cold miss.
        assert!(matches!(
            p.record(line(5), None, false),
            SampleOutcome::Reuse { .. }
        ));
    }

    #[test]
    fn timestamp_compaction_preserves_distances() {
        // A tiny initial Fenwick capacity (1024) forces many compactions
        // over 50k sampled refs; distances must stay exact vs brute force.
        let cfg = ShardsConfig::at_rate(1.0)
            .with_sample_budget(1 << 16)
            .with_resolution(1, 1 << 12);
        let mut p = ShardsProfiler::new(cfg);
        let mut rng = SimRng::new(99);
        let mut stack: Vec<u64> = Vec::new();
        for _ in 0..50_000 {
            let l = rng.range(64);
            if let Some(d) = stack.iter().rev().position(|&x| x == l) {
                let got = p.record(line(l), None, false);
                assert_eq!(
                    got,
                    SampleOutcome::Reuse {
                        scaled_lines: d as u64
                    }
                );
                let pos = stack.len() - 1 - d;
                stack.remove(pos);
            } else {
                p.record(line(l), None, false);
            }
            stack.push(l);
        }
    }

    #[test]
    fn epsilon_table_lookup_is_piecewise_by_rate() {
        assert_eq!(epsilon_miss_ratio(0.1), EPSILON_TABLE[0].1);
        assert_eq!(epsilon_miss_ratio(0.5), EPSILON_TABLE[0].1);
        assert_eq!(epsilon_miss_ratio(0.01), EPSILON_TABLE[1].1);
        assert_eq!(epsilon_miss_ratio(0.05), EPSILON_TABLE[1].1);
        assert_eq!(epsilon_miss_ratio(0.001), EPSILON_TABLE[2].1);
        assert_eq!(epsilon_miss_ratio(0.0001), EPSILON_TABLE[2].1);
    }

    #[test]
    fn bounded_error_check_passes_and_fails() {
        assert!(check_bounded_error(10.0, 10.5, 1.0).is_ok());
        let err = check_bounded_error(10.0, 12.0, 1.0).unwrap_err();
        assert!(err.contains("exceeds budget"), "{err}");
    }

    #[test]
    fn mean_words_used_tracks_data_footprints() {
        let cfg = ShardsConfig::at_rate(1.0);
        let mut p = ShardsProfiler::new(cfg);
        p.record(line(1), Some(WordIndex::new(0)), false);
        p.record(line(1), Some(WordIndex::new(1)), false);
        p.record(line(2), Some(WordIndex::new(3)), false);
        p.record(line(3), None, true); // instruction line: excluded
        assert!((p.mean_words_used() - 1.5).abs() < 1e-12);
        let mut fp = Footprint::empty();
        fp.touch(WordIndex::new(2));
        p.merge_l1d_evict(line(2), fp);
        assert!((p.mean_words_used() - 2.0).abs() < 1e-12);
    }
}
