//! A small deterministic PRNG for reproducible simulation.
//!
//! The simulator needs randomness in exactly two places — workload
//! generation and the WOC's random replacement (Section 5.3) — and both
//! must be reproducible bit-for-bit from a seed so that every experiment
//! and test is deterministic. A local implementation avoids depending on a
//! particular version of an external RNG crate for reproducibility.
//!
//! Streams that are not derived from the run's seed start from the fixed
//! seeds declared in one table below ([`STREAM_SEEDS`]), whose unit test
//! requires them to be pairwise distinct.

/// Declares each fixed stream seed and [`STREAM_SEEDS`], the list the
/// distinctness test checks, from one table, so no seed can be declared
/// outside the check.
macro_rules! stream_seeds {
    ($($(#[doc = $doc:literal])* $name:ident = $value:literal;)*) => {
        $($(#[doc = $doc])* pub const $name: u64 = $value;)*

        /// Every fixed stream seed, by name. Two streams with one seed
        /// would draw the same numbers.
        pub const STREAM_SEEDS: &[(&str, u64)] = &[$((stringify!($name), $name)),*];
    };
}

// The fixed seeds of the simulator's internal random streams. Each one
// seeds, or is mixed into the seed of, one stream; the goldens pin their
// values.
stream_seeds! {
    /// The WOC's random replacement (Section 5.3): the default
    /// `DistillConfig` seed.
    WOC_REPLACEMENT = 0x1d15;
    /// The fault injector's default seed.
    FAULT_INJECTOR = 0x5eed;
    /// FAC's compressed WOC, mixed into the distill configuration's seed.
    FAC = 0xfac;
    /// The tenant mix's benchmark draws, a component of the mix's seed.
    TENANT_MIX = 0x7e4a;
    /// The pointer-chase permutation, mixed into the workload's seed.
    POINTER_CHASE = 0xc4a5e;
    /// The timing model's jitter: fixed, one stream per timed run.
    TIMING_JITTER = 0x7131;
}

/// A stable 64-bit FNV-1a hash of a name, for deriving sweep-cell seeds
/// from configuration labels. The constant offset basis and prime are the
/// published FNV-1a parameters, so the id of a given string never changes
/// across runs, platforms or compiler versions.
///
/// # Example
///
/// ```
/// use ldis_mem::rng::stable_id;
///
/// assert_eq!(stable_id("LDIS-MT-RC"), stable_id("LDIS-MT-RC"));
/// assert_ne!(stable_id("LDIS-MT"), stable_id("LDIS-MT-RC"));
/// ```
pub fn stable_id(name: &str) -> u64 {
    fnv1a(name.as_bytes())
}

/// The 64-bit FNV-1a hash of a byte string — the checksum primitive of the
/// sweep checkpoint journal (`ldis-experiments`). Stable across runs,
/// platforms and compiler versions for the same bytes, so a journal written
/// on one host validates on any other.
///
/// # Example
///
/// ```
/// use ldis_mem::rng::{fnv1a, stable_id};
///
/// assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
/// assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
/// assert_eq!(fnv1a("label".as_bytes()), stable_id("label"));
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A deterministic 64-bit PRNG (xoshiro256\*\* seeded via SplitMix64).
///
/// Not cryptographically secure; statistically excellent for simulation.
///
/// # Example
///
/// ```
/// use ldis_mem::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.range(10);
/// assert!(x < 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; the internal state is expanded with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// A uniform integer in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    pub fn range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range bound must be positive");
        // Lemire's unbiased multiply-shift method: the high half of
        // `draw * bound` is uniform once draws whose low half falls below
        // (2^64 - bound) mod bound are rejected. That threshold is below
        // `bound`, so the division is only needed for a low half below
        // `bound`.
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        if low_half(m) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low_half(m) < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (m >> 64) as u64
    }

    /// A uniform integer in `0..bound`, as `usize`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the result is below `bound`, which is a usize"
    )]
    pub fn index(&mut self, bound: usize) -> usize {
        self.range(bound as u64) as usize
    }

    /// A uniform floating point number in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        unit_f64(self.next_u64() >> 11)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    #[expect(
        clippy::indexing_slicing,
        reason = "idx < items.len() by Lemire rejection sampling"
    )]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        let idx = self.index(items.len());
        &items[idx]
    }

    /// Samples an index from a discrete distribution given by non-negative
    /// `weights`. Returns the last index with positive weight if rounding
    /// undershoots.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to 0.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        self.weighted_index_with_total(weights, total)
    }

    /// [`SimRng::weighted_index`] with the weight sum precomputed by the
    /// caller — the hot-path form for generators that sample the same
    /// distribution millions of times. `total` must equal
    /// `weights.iter().sum()` exactly (same f64 value, same summation
    /// order) for the draw to match `weighted_index` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or `total` is not positive.
    pub fn weighted_index_with_total(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(
            !weights.is_empty() && total > 0.0,
            "weights must be non-empty with a positive sum"
        );
        let mut target = self.f64() * total;
        let mut last_positive = 0;
        for (i, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                last_positive = i;
                if target < w {
                    return i;
                }
                target -= w;
            }
        }
        last_positive
    }

    /// Derives the seed of one (benchmark, configuration) sweep cell from a
    /// root seed. Each cell of an experiment matrix draws its randomness
    /// from its own derived stream, so cells can execute in any order — on
    /// any number of threads — and still reproduce bit for bit.
    ///
    /// The derivation chains one SplitMix64 finalization per component.
    /// Every round is a bijection of the 64-bit state, so for a fixed root
    /// seed, distinct `benchmark_id`s are guaranteed to produce distinct
    /// intermediate states, and collisions between full (benchmark, config)
    /// cells are no more likely than for a random function.
    ///
    /// # Example
    ///
    /// ```
    /// use ldis_mem::SimRng;
    ///
    /// let a = SimRng::derive_seed(42, 0, 7);
    /// assert_eq!(a, SimRng::derive_seed(42, 0, 7)); // stable across calls
    /// assert_ne!(a, SimRng::derive_seed(42, 1, 7)); // cells are split
    /// ```
    pub fn derive_seed(seed: u64, benchmark_id: u64, config_id: u64) -> u64 {
        SimRng::derive_seed_chain(seed, &[benchmark_id, config_id])
    }

    /// Derives a seed from a root seed and an arbitrary chain of
    /// components — the generalization of [`SimRng::derive_seed`] used by
    /// the crash-safe sweep executor, which splits on (matrix id, cell
    /// index) chains of varying depth. One SplitMix64 finalization is
    /// chained per component; each round is a bijection of the 64-bit
    /// state, so for a fixed prefix, distinct next components always
    /// produce distinct intermediate states.
    ///
    /// Replay contract: the derivation depends only on the values, never
    /// on when or where it runs, so a failed sweep cell replays its exact
    /// workload from `(root seed, chain)` alone.
    ///
    /// # Example
    ///
    /// ```
    /// use ldis_mem::SimRng;
    ///
    /// assert_eq!(
    ///     SimRng::derive_seed(42, 3, 7),
    ///     SimRng::derive_seed_chain(42, &[3, 7])
    /// );
    /// assert_ne!(
    ///     SimRng::derive_seed_chain(42, &[3]),
    ///     SimRng::derive_seed_chain(42, &[3, 0])
    /// );
    /// ```
    pub fn derive_seed_chain(seed: u64, components: &[u64]) -> u64 {
        let mut s = seed;
        for &component in components {
            let h = splitmix64(&mut s);
            s = h ^ component;
        }
        splitmix64(&mut s)
    }

    /// Derives an independent generator for one (benchmark, configuration)
    /// sweep cell; see [`SimRng::derive_seed`].
    pub fn derive(seed: u64, benchmark_id: u64, config_id: u64) -> SimRng {
        SimRng::new(SimRng::derive_seed(seed, benchmark_id, config_id))
    }

    /// A geometric-ish positive integer with mean approximately `mean`
    /// (at least 1). Used for instruction gaps between memory accesses.
    pub fn geometric(&mut self, mean: f64) -> u32 {
        match SimRng::geometric_denom(mean) {
            None => 1,
            Some(denom) => self.geometric_with_denom(denom),
        }
    }

    /// Precomputes the log-denominator for [`SimRng::geometric_with_denom`].
    /// Returns `None` when `mean <= 1.0`, in which case the sample is the
    /// constant 1 and — critically for stream reproducibility — *no random
    /// draw is consumed*, exactly as in [`SimRng::geometric`].
    pub fn geometric_denom(mean: f64) -> Option<f64> {
        if mean <= 1.0 {
            None
        } else {
            let p = 1.0 / mean;
            Some((1.0 - p).ln())
        }
    }

    /// [`SimRng::geometric`] with the log-denominator precomputed via
    /// [`SimRng::geometric_denom`]: one draw, then a libm `ln`, a division
    /// and a floor. The division by `denom` is kept as a division (not a
    /// reciprocal multiply) so results match `geometric` bit for bit.
    /// Generators that draw many gaps at one mean use
    /// [`GeometricTable`](crate::GeometricTable), which returns the same
    /// gap for the same draw without the `ln`.
    pub fn geometric_with_denom(&mut self, denom: f64) -> u32 {
        geometric_gap(self.next_u64() >> 11, denom)
    }
}

/// The low 64 bits of a 128-bit product.
#[expect(
    clippy::cast_possible_truncation,
    reason = "Lemire's method compares the low 64 bits of the 128-bit product"
)]
fn low_half(m: u128) -> u64 {
    m as u64
}

/// The 53-bit draw `x` (`next_u64() >> 11`) as a float in `[0, 1)`:
/// exact, since `x < 2^53` and the scale is a power of two.
fn unit_f64(x: u64) -> f64 {
    x as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The geometric gap of the 53-bit draw `x` at log-denominator `denom`
/// (`denom < 0`, see [`SimRng::geometric_denom`]) — the one definition of
/// the gap, shared by [`SimRng::geometric_with_denom`] and
/// [`GeometricTable`](crate::GeometricTable)'s thresholds so the two
/// cannot drift apart. Non-increasing in `x`: `unit_f64`, the division
/// by a negative constant and `floor` are monotone, and the logarithms
/// of neighbouring draws differ by more than one ulp, more than the
/// libm `ln` error, so their rounded values keep their order too.
pub(crate) fn geometric_gap(x: u64, denom: f64) -> u32 {
    let u = unit_f64(x).max(f64::MIN_POSITIVE);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int casts saturate rather than truncate, and the next line clamps the result to <= 1_000_000"
    )]
    let v = (u.ln() / denom).floor() as u32;
    v.saturating_add(1).min(1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn range_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let x = rng.range(8) as usize;
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..8 should appear");
    }

    /// Lemire's method as published ("Fast Random Integer Generation in
    /// an Interval", 2019): reject a low product below
    /// `(2^64 - bound) mod bound`.
    fn textbook_range(rng: &mut SimRng, bound: u64) -> u64 {
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(bound);
            let lo = m as u64;
            if lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn range_replays_the_textbook_lemire_method() {
        // Huge bounds reject often, so a wrong threshold diverges within
        // a few draws; small bounds almost never reach the threshold.
        for (bound, draws) in [
            (3 << 62, 1_000),
            ((1 << 63) + 1, 1_000),
            (u64::MAX - 1, 1_000),
            (1_000_000, 100_000),
            (12_345, 100_000),
        ] {
            let mut ours = SimRng::new(31);
            let mut textbook = SimRng::new(31);
            for i in 0..draws {
                assert_eq!(
                    ours.range(bound),
                    textbook_range(&mut textbook, bound),
                    "bound {bound}, draw {i}"
                );
            }
            assert_eq!(ours, textbook, "bound {bound}: draw counts differ");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn range_zero_panics() {
        SimRng::new(0).range(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_respects_probability_roughly() {
        let mut rng = SimRng::new(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(9);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 0.0, 2.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0]);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn weighted_index_with_total_matches_weighted_index() {
        let weights = [0.25, 1.5, 0.0, 3.75];
        let total: f64 = weights.iter().sum();
        let mut a = SimRng::new(21);
        let mut b = SimRng::new(21);
        for _ in 0..5_000 {
            assert_eq!(
                a.weighted_index(&weights),
                b.weighted_index_with_total(&weights, total)
            );
        }
        assert_eq!(a, b, "both paths must consume one draw per sample");
    }

    #[test]
    fn geometric_with_denom_matches_geometric() {
        for mean in [0.5, 1.0, 1.5, 5.0, 10.0, 100.0] {
            let mut a = SimRng::new(29);
            let mut b = SimRng::new(29);
            let denom = SimRng::geometric_denom(mean);
            for _ in 0..2_000 {
                let fast = match denom {
                    None => 1,
                    Some(d) => b.geometric_with_denom(d),
                };
                assert_eq!(a.geometric(mean), fast, "mean {mean}");
            }
            assert_eq!(a, b, "draw counts must match at mean {mean}");
        }
    }

    #[test]
    fn choose_picks_from_slice() {
        let mut rng = SimRng::new(13);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.choose(&items)));
        }
    }

    #[test]
    fn geometric_has_requested_mean() {
        let mut rng = SimRng::new(17);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| rng.geometric(5.0) as u64).sum();
        let mean = sum as f64 / n as f64;
        assert!((4.5..5.5).contains(&mean), "mean {mean}");
    }

    #[test]
    fn geometric_floor_is_one() {
        let mut rng = SimRng::new(19);
        for _ in 0..100 {
            assert_eq!(rng.geometric(0.5), 1);
            assert!(rng.geometric(1.5) >= 1);
        }
    }

    #[test]
    fn derived_seeds_never_collide_across_10k_cells() {
        // 100 benchmarks × 100 configurations, with config ids both small
        // integers and realistic label hashes.
        let mut seen = std::collections::BTreeSet::new();
        for bench in 0..100u64 {
            for config in 0..100u64 {
                let cell = SimRng::derive_seed(42, bench, config);
                assert!(
                    seen.insert(cell),
                    "collision at bench {bench} config {config}"
                );
            }
        }
        assert_eq!(seen.len(), 10_000);

        let labels = ["TRAD-1MB", "LDIS-Base", "LDIS-MT", "LDIS-MT-RC", "SFP"];
        let mut seen = std::collections::BTreeSet::new();
        for bench in 0..2000u64 {
            for label in labels {
                assert!(
                    seen.insert(SimRng::derive_seed(7, bench, stable_id(label))),
                    "collision at bench {bench} label {label}"
                );
            }
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn derivation_is_stable_across_calls_and_instances() {
        for (seed, bench, config) in [(0u64, 0u64, 0u64), (42, 3, 7), (u64::MAX, 15, 1 << 40)] {
            let first = SimRng::derive_seed(seed, bench, config);
            for _ in 0..100 {
                assert_eq!(first, SimRng::derive_seed(seed, bench, config));
            }
            let mut a = SimRng::derive(seed, bench, config);
            let mut b = SimRng::derive(seed, bench, config);
            for _ in 0..32 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn derivation_separates_every_coordinate() {
        // Moving any one coordinate must move the derived seed, and the
        // benchmark/config axes must not be interchangeable.
        let base = SimRng::derive_seed(42, 1, 2);
        assert_ne!(base, SimRng::derive_seed(43, 1, 2));
        assert_ne!(base, SimRng::derive_seed(42, 2, 2));
        assert_ne!(base, SimRng::derive_seed(42, 1, 3));
        assert_ne!(base, SimRng::derive_seed(42, 2, 1), "axes must not commute");
    }

    #[test]
    fn derive_seed_chain_matches_and_extends_derive_seed() {
        // The two-component chain is exactly the historical derivation, so
        // every committed golden snapshot keeps its seeds.
        for (seed, b, c) in [(0u64, 0u64, 0u64), (42, 3, 7), (u64::MAX, 15, 1 << 40)] {
            assert_eq!(
                SimRng::derive_seed(seed, b, c),
                SimRng::derive_seed_chain(seed, &[b, c])
            );
        }
        // Chains of different depth never collide trivially, and every
        // component position matters.
        let base = SimRng::derive_seed_chain(42, &[1, 2, 3]);
        assert_ne!(base, SimRng::derive_seed_chain(42, &[1, 2]));
        assert_ne!(base, SimRng::derive_seed_chain(42, &[1, 2, 4]));
        assert_ne!(base, SimRng::derive_seed_chain(42, &[2, 1, 3]));
        assert_ne!(base, SimRng::derive_seed_chain(43, &[1, 2, 3]));
        // Deep chains stay collision-free across a realistic cell space.
        let mut seen = std::collections::BTreeSet::new();
        for matrix in 0..10u64 {
            for cell in 0..1000u64 {
                assert!(
                    seen.insert(SimRng::derive_seed_chain(42, &[matrix, cell])),
                    "collision at matrix {matrix} cell {cell}"
                );
            }
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn stream_seeds_are_pairwise_distinct() {
        for (i, (a, x)) in STREAM_SEEDS.iter().enumerate() {
            for (b, y) in STREAM_SEEDS.iter().skip(i + 1) {
                assert_ne!(x, y, "streams {a} and {b} share a seed");
            }
        }
    }

    #[test]
    fn fnv1a_detects_single_byte_corruption() {
        let record = b"{\"kind\": \"cell\", \"cell\": 3, \"seed\": 99}";
        let sum = fnv1a(record);
        for i in 0..record.len() {
            for flip in 1..8u8 {
                let mut corrupt = record.to_vec();
                if let Some(byte) = corrupt.get_mut(i) {
                    *byte ^= 1 << flip;
                }
                assert_ne!(sum, fnv1a(&corrupt), "flip bit {flip} of byte {i}");
            }
        }
        // Truncation is detected too.
        assert_ne!(sum, fnv1a(&record[..record.len() - 1]));
    }

    #[test]
    fn stable_id_is_the_published_fnv1a() {
        // FNV-1a test vectors: the empty string hashes to the offset
        // basis; "a" to the basis xor 0x61 times the prime.
        assert_eq!(stable_id(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_id("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(stable_id("TRAD-1MB"), stable_id("TRAD-2MB"));
    }
}
