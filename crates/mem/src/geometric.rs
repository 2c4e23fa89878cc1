//! Exact table-driven geometric draws for a fixed mean.
//!
//! Every generated access carries an instruction gap drawn with
//! [`SimRng::geometric_with_denom`]: one 53-bit draw `x`, then a libm
//! `ln`, a division and a floor. The gap is a non-increasing step function
//! of `x`, so for a fixed mean it is fully described by where it steps.
//! [`GeometricTable`] tabulates those steps and looks the gap up instead
//! of computing the logarithm, returning the same gap for the same draw.

use crate::rng::geometric_gap;
use crate::SimRng;

/// Gaps up to this value are tabulated. A larger gap has probability
/// `(1 - 1/mean)^4096`, below `1e-8` for every mean up to 210, and is
/// computed with the exact expression instead.
const MAX_TABULATED: u32 = 4096;

/// Bits of a draw (`next_u64() >> 11`, as in [`SimRng::f64`]).
const DRAW_BITS: u32 = 53;

/// The guide is indexed by the top `GUIDE_BITS` bits of a draw.
const GUIDE_BITS: u32 = 10;

/// Sampler of [`SimRng::geometric`] at one mean by table lookup.
///
/// `thresholds[k - 1]` holds the smallest draw whose gap is at most `k`,
/// so the gap of draw `x` is the smallest `k` with
/// `thresholds[k - 1] <= x`. A 1024-entry guide gives, for each block of
/// draws sharing their top 10 bits, the gap of the block's largest draw
/// — the smallest gap in the block — and the lookup scans up from there,
/// usually zero or one step. Each threshold starts from the `exp` of the
/// inverse CDF and is then corrected against the exact expression
/// `geometric_with_denom` evaluates, so a lookup can never disagree with
/// it; draws whose gap exceeds 4096 fall back to that expression.
///
/// Both tables are filled lazily, entry by entry, the first time a draw
/// needs them: construction allocates nothing, and a sampler uses at
/// most 4 KB of guide and 32 KB of thresholds. Like
/// [`SimRng::geometric`], each sample consumes exactly one draw, or none
/// when `mean <= 1` (the gap is then the constant 1).
///
/// # Example
///
/// ```
/// use ldis_mem::{GeometricTable, SimRng};
///
/// let mut table = GeometricTable::new(17.0);
/// let mut a = SimRng::new(5);
/// let mut b = SimRng::new(5);
/// for _ in 0..1000 {
///     assert_eq!(table.sample(&mut a), b.geometric(17.0));
/// }
/// assert_eq!(a, b); // one draw per sample on both paths
/// ```
#[derive(Clone, Debug)]
pub struct GeometricTable {
    /// `SimRng::geometric_denom(mean)`; `None` when `mean <= 1`.
    denom: Option<f64>,
    /// `guide[b]` = the gap of the largest draw with top bits `b`, or 0
    /// while unfilled. Empty until the first sample.
    guide: Vec<u32>,
    /// `thresholds[k - 1]` = the smallest draw whose gap is at most `k`
    /// (`2^53` if there is none), for `k` up to the largest a lookup has
    /// needed.
    thresholds: Vec<u64>,
}

impl GeometricTable {
    /// Creates an empty table for gaps of mean `mean`.
    pub fn new(mean: f64) -> Self {
        GeometricTable {
            denom: SimRng::geometric_denom(mean),
            guide: Vec::new(),
            thresholds: Vec::new(),
        }
    }

    /// One gap, bit-identical to `rng.geometric(mean)` and consuming the
    /// same draws.
    #[inline]
    pub fn sample(&mut self, rng: &mut SimRng) -> u32 {
        match self.denom {
            None => 1,
            Some(denom) => self.gap_of(rng.next_u64() >> (64 - DRAW_BITS), denom),
        }
    }

    /// The gap of the 53-bit draw `x`: `geometric_gap(x, denom)` by lookup.
    #[inline]
    fn gap_of(&mut self, x: u64, denom: f64) -> u32 {
        let block = (x >> (DRAW_BITS - GUIDE_BITS)) as usize;
        let mut k = match self.guide.get(block).copied() {
            Some(k) if k != 0 => k,
            _ => self.fill_guide(block, denom),
        };
        while k <= MAX_TABULATED {
            let threshold = match self.thresholds.get((k - 1) as usize).copied() {
                Some(t) => t,
                None => self.fill_to(k, denom),
            };
            if threshold <= x {
                return k;
            }
            k += 1;
        }
        geometric_gap(x, denom)
    }

    /// Fills the guide entry of `block`, allocating the guide on first
    /// use, and returns it.
    #[cold]
    #[inline(never)]
    fn fill_guide(&mut self, block: usize, denom: f64) -> u32 {
        if self.guide.is_empty() {
            self.guide = vec![0; 1 << GUIDE_BITS];
        }
        let last_draw = ((block as u64 + 1) << (DRAW_BITS - GUIDE_BITS)) - 1;
        let k = geometric_gap(last_draw, denom);
        if let Some(entry) = self.guide.get_mut(block) {
            *entry = k;
        }
        k
    }

    /// Fills the thresholds up to gap `k` and returns the threshold of `k`.
    #[cold]
    #[inline(never)]
    fn fill_to(&mut self, k: u32, denom: f64) -> u64 {
        for gap in (1..=k).skip(self.thresholds.len()) {
            let lo = smallest_draw_within(gap, denom);
            self.thresholds.push(lo);
        }
        self.thresholds.last().copied().unwrap_or(0)
    }
}

/// The smallest 53-bit draw whose gap is at most `k` (`2^53` if none).
///
/// `gap <= k` exactly when `ln(u) / denom < k`, that is `u > exp(k * denom)`
/// in real arithmetic, so the search starts there and then walks to the
/// exact step of `geometric_gap` — a few draws at most, since `exp` and
/// `ln` are accurate to about an ulp.
fn smallest_draw_within(k: u32, denom: f64) -> u64 {
    const END: u64 = 1 << DRAW_BITS;
    let guess = (f64::from(k) * denom).exp() * END as f64;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int casts saturate, and the guess is clamped to 2^53 at once"
    )]
    let mut x = (guess as u64).min(END);
    while x < END && geometric_gap(x, denom) > k {
        x += 1;
    }
    while x > 0 && geometric_gap(x - 1, denom) <= k {
        x -= 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `inst_gap` mean the workload models use (spec2000 4.7–110,
    /// the insensitive set 8–210, the builder default 10 and the 4.0, 5.0
    /// and 8.0 of tests and examples), plus 1.5 and two means <= 1.
    const MEANS: [f64; 29] = [
        0.5, 1.0, 1.5, 4.0, 4.7, 5.0, 5.5, 6.0, 8.0, 9.0, 10.0, 11.0, 16.0, 17.0, 19.0, 22.0, 24.0,
        26.0, 30.0, 34.0, 40.0, 55.0, 60.0, 75.0, 80.0, 90.0, 95.0, 110.0, 210.0,
    ];

    /// A mean whose gaps exceed 4096 nearly half the time, exercising
    /// the fallback past the tabulated range.
    const HUGE_MEAN: f64 = 5000.0;

    const END: u64 = 1 << DRAW_BITS;

    fn denom(mean: f64) -> f64 {
        SimRng::geometric_denom(mean).expect("mean > 1")
    }

    #[test]
    fn table_matches_geometric_draw_for_draw() {
        for mean in MEANS.into_iter().chain([HUGE_MEAN]) {
            let mut table = GeometricTable::new(mean);
            let mut ours = SimRng::new(0x6a9);
            let mut reference = SimRng::new(0x6a9);
            for i in 0..1_000_000 {
                let want = match SimRng::geometric_denom(mean) {
                    None => 1,
                    Some(d) => reference.geometric_with_denom(d),
                };
                assert_eq!(table.sample(&mut ours), want, "mean {mean}, draw {i}");
            }
            assert_eq!(ours, reference, "mean {mean}: draw counts differ");
        }
    }

    #[test]
    fn every_threshold_is_exact_in_a_512_draw_window() {
        for mean in MEANS.into_iter().filter(|&m| m > 1.0) {
            let d = denom(mean);
            let mut table = GeometricTable::new(mean);
            table.fill_to(MAX_TABULATED, d);
            assert_eq!(table.thresholds.len(), MAX_TABULATED as usize);
            let mut k = 0u32;
            for &t in &table.thresholds {
                k += 1;
                let window = t.saturating_sub(512)..(t + 513).min(END);
                for x in window {
                    assert_eq!(
                        geometric_gap(x, d) <= k,
                        x >= t,
                        "mean {mean}: gap {k} threshold {t} disagrees at draw {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn lookup_is_exact_at_every_step_and_block_edge() {
        for mean in MEANS.into_iter().filter(|&m| m > 1.0).chain([HUGE_MEAN]) {
            let d = denom(mean);
            let mut table = GeometricTable::new(mean);
            table.fill_to(MAX_TABULATED, d);
            let steps = table.thresholds.clone();
            let blocks = (0..1u64 << GUIDE_BITS).map(|b| b << (DRAW_BITS - GUIDE_BITS));
            let draws = steps
                .iter()
                .flat_map(|&t| [t.saturating_sub(1), t])
                .chain(blocks.flat_map(|x| [x.saturating_sub(1), x]))
                .chain([0, 1, END - 1]);
            for x in draws.filter(|&x| x < END) {
                assert_eq!(
                    table.gap_of(x, d),
                    geometric_gap(x, d),
                    "mean {mean} at draw {x}"
                );
            }
        }
    }

    #[test]
    fn mean_at_most_one_is_the_constant_one_without_a_draw() {
        for mean in [0.5, 1.0] {
            let mut table = GeometricTable::new(mean);
            let mut rng = SimRng::new(3);
            for _ in 0..100 {
                assert_eq!(table.sample(&mut rng), 1);
            }
            assert_eq!(rng, SimRng::new(3), "no draw consumed");
        }
    }

    #[test]
    fn tables_are_filled_lazily() {
        let mut table = GeometricTable::new(17.0);
        assert!(table.guide.is_empty() && table.thresholds.is_empty());
        let mut rng = SimRng::new(1);
        let gap = table.sample(&mut rng);
        assert_eq!(table.guide.len(), 1 << GUIDE_BITS);
        assert_eq!(table.guide.iter().filter(|&&k| k != 0).count(), 1);
        assert_eq!(table.thresholds.len(), gap as usize);
    }
}
