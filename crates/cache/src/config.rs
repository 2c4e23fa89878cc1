//! Cache configuration and set/tag indexing.

use ldis_mem::{LineAddr, LineGeometry, SetIndex};

/// Size, associativity and geometry of a set-associative cache.
///
/// # Example
///
/// ```
/// use ldis_cache::CacheConfig;
/// use ldis_mem::LineGeometry;
///
/// // The paper's baseline L2: 1 MB, 8-way, 64 B lines.
/// let cfg = CacheConfig::new(1 << 20, 8, LineGeometry::default());
/// assert_eq!(cfg.num_sets(), 2048);
/// assert_eq!(cfg.num_lines(), 16 * 1024);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheConfig {
    size_bytes: u64,
    ways: u32,
    geometry: LineGeometry,
    num_sets: u64,
}

impl CacheConfig {
    /// Creates a configuration for a cache of `size_bytes` with `ways`
    /// ways per set and the given line geometry.
    ///
    /// # Panics
    ///
    /// Panics if the derived set count is not a positive power of two
    /// (required for mask-based indexing), or if `ways` is 0.
    pub fn new(size_bytes: u64, ways: u32, geometry: LineGeometry) -> Self {
        assert!(ways > 0, "a cache needs at least one way");
        let line = geometry.line_bytes() as u64;
        assert!(
            size_bytes.is_multiple_of(line * ways as u64),
            "cache size {size_bytes} is not divisible by ways*line ({ways} * {line})"
        );
        let num_sets = size_bytes / (line * ways as u64);
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two, got {num_sets}"
        );
        CacheConfig {
            size_bytes,
            ways,
            geometry,
            num_sets,
        }
    }

    /// Creates a configuration from an explicit set count instead of a
    /// total size (`sets * ways * line_bytes` bytes).
    pub fn with_sets(num_sets: u64, ways: u32, geometry: LineGeometry) -> Self {
        let size = num_sets * ways as u64 * geometry.line_bytes() as u64;
        CacheConfig::new(size, ways, geometry)
    }

    /// Total data capacity in bytes.
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Ways per set.
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Line/word geometry.
    pub const fn geometry(&self) -> LineGeometry {
        self.geometry
    }

    /// Number of sets.
    pub const fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Total number of line frames.
    pub const fn num_lines(&self) -> u64 {
        self.num_sets * self.ways as u64
    }

    /// The set index for a line address.
    pub const fn set_index(&self, line: LineAddr) -> SetIndex {
        SetIndex::of_line(line, self.num_sets)
    }

    /// The tag stored for a line address (the bits above the set index).
    pub const fn tag(&self, line: LineAddr) -> u64 {
        line.raw() >> self.num_sets.trailing_zeros()
    }

    /// Reconstructs the line address from a set index and tag.
    pub const fn line_of(&self, set: SetIndex, tag: u64) -> LineAddr {
        LineAddr::new((tag << self.num_sets.trailing_zeros()) | set.get() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_dimensions() {
        let cfg = CacheConfig::new(1 << 20, 8, LineGeometry::default());
        assert_eq!(cfg.num_sets(), 2048);
        assert_eq!(cfg.num_lines(), 16384);
        assert_eq!(cfg.size_bytes(), 1 << 20);
        assert_eq!(cfg.ways(), 8);
    }

    #[test]
    fn l1d_dimensions() {
        let cfg = CacheConfig::new(16 << 10, 2, LineGeometry::default());
        assert_eq!(cfg.num_sets(), 128);
        assert_eq!(cfg.num_lines(), 256);
    }

    #[test]
    fn set_and_tag_roundtrip() {
        let cfg = CacheConfig::new(1 << 20, 8, LineGeometry::default());
        for raw in [0u64, 1, 2047, 2048, 0xdead_beef] {
            let line = LineAddr::new(raw);
            let set = cfg.set_index(line);
            let tag = cfg.tag(line);
            assert_eq!(cfg.line_of(set, tag), line);
            assert!(set.get() < cfg.num_sets() as usize);
        }
    }

    #[test]
    fn with_sets_matches_new() {
        let g = LineGeometry::default();
        assert_eq!(
            CacheConfig::with_sets(2048, 8, g),
            CacheConfig::new(1 << 20, 8, g)
        );
    }

    #[test]
    fn distinct_lines_same_set_have_distinct_tags() {
        let cfg = CacheConfig::new(1 << 20, 8, LineGeometry::default());
        let a = LineAddr::new(5);
        let b = LineAddr::new(5 + 2048);
        assert_eq!(cfg.set_index(a), cfg.set_index(b));
        assert_ne!(cfg.tag(a), cfg.tag(b));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        // 1.5 MB, 8-way, 64 B → 3072 sets: valid in the paper's Figure 8
        // only via the 12-way trick; the plain constructor rejects it.
        let _ = CacheConfig::new(3 << 19, 8, LineGeometry::default());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn rejects_zero_ways() {
        let _ = CacheConfig::new(1 << 20, 0, LineGeometry::default());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_size() {
        let _ = CacheConfig::new((1 << 20) + 64, 8, LineGeometry::default());
    }
}
