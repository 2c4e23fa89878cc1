//! The significance-based encoding of Table 4 (32-bit granularity).
//!
//! | code | 32-bit value                                  | payload |
//! |------|-----------------------------------------------|---------|
//! | 00   | 0                                             | 0 bits  |
//! | 01   | 1                                             | 0 bits  |
//! | 10   | bits\[31:16\] are 0 → only bits\[15:0\] stored | 16 bits |
//! | 11   | incompressible                                | 32 bits |

use ldis_mem::{Footprint, LineAddr, LineGeometry};
use ldis_workloads::{ValueProfile, WordClass};

/// Code bits per 32-bit chunk.
pub const CODE_BITS: u64 = 2;

/// Classifies a 32-bit value into its Table 4 encoding class.
///
/// # Example
///
/// ```
/// use ldis_compress::class_of;
/// use ldis_workloads::WordClass;
///
/// assert_eq!(class_of(0), WordClass::Zero);
/// assert_eq!(class_of(1), WordClass::One);
/// assert_eq!(class_of(0xbeef), WordClass::Narrow);
/// assert_eq!(class_of(0xdead_beef), WordClass::Full);
/// ```
pub fn class_of(value: u32) -> WordClass {
    match value {
        0 => WordClass::Zero,
        1 => WordClass::One,
        v if v <= 0xffff => WordClass::Narrow,
        _ => WordClass::Full,
    }
}

/// Encoded size of one 32-bit chunk of `class`, in bits (code + payload).
const fn class_bits(class: WordClass) -> u64 {
    CODE_BITS
        + match class {
            WordClass::Zero | WordClass::One => 0,
            WordClass::Narrow => 16,
            WordClass::Full => 32,
        }
}

/// Encoded size of one 32-bit chunk, in bits (code + payload).
pub fn encoded_bits(value: u32) -> u64 {
    class_bits(class_of(value))
}

/// Encoded size of a sequence of 32-bit chunks, in bits.
pub fn compressed_bits(values: &[u32]) -> u64 {
    values.iter().map(|&v| encoded_bits(v)).sum()
}

/// Encoded size in bytes, rounded up.
pub fn compressed_bytes(values: &[u32]) -> u32 {
    bytes_of(compressed_bits(values))
}

/// `bits` rounded up to whole bytes.
#[expect(
    clippy::cast_possible_truncation,
    reason = "callers compress at most one cache line of words (<= 16 values at <= 34 bits each), so the byte count fits u32 with room to spare"
)]
const fn bytes_of(bits: u64) -> u32 {
    bits.div_ceil(8) as u32
}

/// The four size categories of Figure 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeCategory {
    /// Fits in at most one-eighth of the original size.
    OneEighth,
    /// Fits in at most one-fourth.
    OneFourth,
    /// Fits in at most one-half.
    OneHalf,
    /// Not compressible to half: stored at full size.
    Full,
}

impl SizeCategory {
    /// Categorizes a compressed size against the original size
    /// (Section 8.1).
    pub fn of(compressed: u32, original: u32) -> Self {
        if compressed * 8 <= original {
            SizeCategory::OneEighth
        } else if compressed * 4 <= original {
            SizeCategory::OneFourth
        } else if compressed * 2 <= original {
            SizeCategory::OneHalf
        } else {
            SizeCategory::Full
        }
    }

    /// Index 0..4 for histogram bins, in the order of [`SizeCategory::of`].
    pub const fn index(self) -> usize {
        match self {
            SizeCategory::OneEighth => 0,
            SizeCategory::OneFourth => 1,
            SizeCategory::OneHalf => 2,
            SizeCategory::Full => 3,
        }
    }
}

/// Computes compressed line sizes from a benchmark's deterministic
/// [`ValueProfile`] — the glue between the workload value model and the
/// compressed caches.
#[derive(Clone, Copy, Debug)]
pub struct ValueSizeModel {
    profile: ValueProfile,
    geometry: LineGeometry,
    salt: u64,
}

impl ValueSizeModel {
    /// Creates a size model over the given value profile and geometry.
    pub fn new(profile: ValueProfile, geometry: LineGeometry, salt: u64) -> Self {
        ValueSizeModel {
            profile,
            geometry,
            salt,
        }
    }

    /// The 32-bit chunks of `line`, restricted to `words` if given. The
    /// sizing methods never build this list; it is the reference their
    /// tests compare against.
    pub fn chunks(&self, line: LineAddr, words: Option<Footprint>) -> Vec<u32> {
        let chunks_per_word = self.geometry.word_bytes() / 4;
        let mut out = Vec::new();
        for w in 0..self.geometry.words_per_line() {
            if let Some(fp) = words {
                if !fp.is_used(ldis_mem::WordIndex::new(w)) {
                    continue;
                }
            }
            let word_addr = self
                .geometry
                .word_base(line, ldis_mem::WordIndex::new(w))
                .raw();
            for c in 0..chunks_per_word as u64 {
                let addr4 = word_addr / 4 + c;
                out.push(self.profile.value_at(addr4, self.salt));
            }
        }
        out
    }

    /// Compressed size in bytes of `line`, over all words or only the
    /// `words` subset (footprint-aware compression).
    ///
    /// A chunk's encoded size depends only on its Table 4 class, and
    /// [`ValueProfile::value_at`] picks each value *from*
    /// [`ValueProfile::class_at`], so summing the class sizes gives exactly
    /// the size of the encoded [`chunks`](Self::chunks) without building
    /// them or hashing twice per chunk. Each size is the code plus 16 bits
    /// per [`ValueProfile::payload_halves`], which names the class without
    /// branching on it.
    pub fn compressed_bytes(&self, line: LineAddr, words: Option<Footprint>) -> u32 {
        let all = Footprint::full(self.geometry.words_per_line()).bits();
        let mut used = words.map_or(all, |fp| fp.bits() & all);
        let chunks_per_word = u64::from(self.geometry.word_bytes() / 4);
        let mut bits = 0;
        while used != 0 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "trailing_zeros of a non-zero u16 is below 16"
            )]
            let word = ldis_mem::WordIndex::new(used.trailing_zeros() as u8);
            let addr4 = self.geometry.word_base(line, word).raw() / 4;
            for c in 0..chunks_per_word {
                let halves = self.profile.payload_halves(addr4 + c, self.salt);
                bits += CODE_BITS + 16 * u64::from(halves);
            }
            used &= used - 1;
        }
        bytes_of(bits)
    }

    /// Original (uncompressed) size in bytes of the chosen words.
    pub fn original_bytes(&self, words: Option<Footprint>) -> u32 {
        match words {
            None => self.geometry.line_bytes(),
            Some(fp) => fp.used_words() as u32 * self.geometry.word_bytes(),
        }
    }

    /// The Figure 10 category of `line` relative to the full line size.
    pub fn category(&self, line: LineAddr, words: Option<Footprint>) -> SizeCategory {
        SizeCategory::of(
            self.compressed_bytes(line, words),
            self.geometry.line_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_bits_match_table4() {
        assert_eq!(encoded_bits(0), 2);
        assert_eq!(encoded_bits(1), 2);
        assert_eq!(encoded_bits(0xffff), 18);
        assert_eq!(encoded_bits(0x1_0000), 34);
    }

    #[test]
    fn all_zero_line_compresses_to_one_eighth() {
        // 16 chunks of 0 → 32 bits = 4 B; 4 ≤ 64/8.
        let values = [0u32; 16];
        let bytes = compressed_bytes(&values);
        assert_eq!(bytes, 4);
        assert_eq!(SizeCategory::of(bytes, 64), SizeCategory::OneEighth);
    }

    #[test]
    fn incompressible_line_is_full() {
        let values = [0xdead_beefu32; 16];
        let bytes = compressed_bytes(&values);
        assert_eq!(bytes, 68);
        assert_eq!(SizeCategory::of(bytes, 64), SizeCategory::Full);
    }

    #[test]
    fn narrow_line_is_one_half() {
        let values = [0x1234u32; 16];
        let bytes = compressed_bytes(&values); // 16 * 18 bits = 288 bits = 36 B
        assert_eq!(bytes, 36);
        assert_eq!(SizeCategory::of(bytes, 64), SizeCategory::Full);
        // Alternating zero/narrow: 8*2 + 8*18 = 160 bits = 20 B → one-half.
        let mixed: Vec<u32> = (0..16).map(|i| if i % 2 == 0 { 0 } else { 7 }).collect();
        assert_eq!(
            SizeCategory::of(compressed_bytes(&mixed), 64),
            SizeCategory::OneHalf
        );
        // 12 zeros + 4 narrow: 24 + 72 = 96 bits = 12 B → one-fourth.
        let sparse: Vec<u32> = (0..16).map(|i| if i < 12 { 0 } else { 7 }).collect();
        assert_eq!(
            SizeCategory::of(compressed_bytes(&sparse), 64),
            SizeCategory::OneFourth
        );
    }

    #[test]
    fn category_indices_are_ordered() {
        assert_eq!(SizeCategory::OneEighth.index(), 0);
        assert_eq!(SizeCategory::Full.index(), 3);
        assert!(SizeCategory::OneEighth < SizeCategory::Full);
    }

    #[test]
    fn size_model_is_deterministic_and_footprint_aware() {
        let m = ValueSizeModel::new(ValueProfile::pointer_heavy(), LineGeometry::default(), 5);
        let line = LineAddr::new(123);
        assert_eq!(
            m.compressed_bytes(line, None),
            m.compressed_bytes(line, None)
        );
        let one_word = Footprint::from_bits(0b1);
        let full = m.compressed_bytes(line, None);
        let partial = m.compressed_bytes(line, Some(one_word));
        assert!(partial < full, "fewer words must compress smaller");
        assert_eq!(m.chunks(line, Some(one_word)).len(), 2);
        assert_eq!(m.chunks(line, None).len(), 16);
        assert_eq!(m.original_bytes(Some(one_word)), 8);
        assert_eq!(m.original_bytes(None), 64);
    }

    #[test]
    fn pointer_heavy_lines_are_more_compressible_than_float() {
        let geom = LineGeometry::default();
        let frac_compressible = |p: ValueProfile| {
            let m = ValueSizeModel::new(p, geom, 1);
            let n = 2000;
            let compressible = (0..n)
                .filter(|&i| m.category(LineAddr::new(i), None) != SizeCategory::Full)
                .count();
            compressible as f64 / n as f64
        };
        let ptr = frac_compressible(ValueProfile::pointer_heavy());
        let fp = frac_compressible(ValueProfile::float_heavy());
        assert!(ptr > fp, "pointer {ptr} vs float {fp}");
    }
}
