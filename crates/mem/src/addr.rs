//! Address newtypes: byte addresses, line addresses, word indices and
//! set indices.

use std::fmt;

/// A byte address in the simulated physical address space.
///
/// The paper assumes a 40-bit physical address space (Section 7.5.1); the
/// simulator does not enforce that limit but the storage-overhead model in
/// `ldis-distill` uses it when sizing tags.
///
/// # Example
///
/// ```
/// use ldis_mem::Addr;
/// let a = Addr::new(0x1000);
/// assert_eq!(a.raw(), 0x1000);
/// assert_eq!(a + 8, Addr::new(0x1008));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns this address offset by `bytes` (wrapping on overflow, which
    /// never occurs for realistic traces).
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0.wrapping_add(bytes))
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

impl std::ops::Add<u64> for Addr {
    type Output = Addr;
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0.wrapping_add(rhs))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// A cache-line address: the byte address divided by the line size.
///
/// Two byte addresses that fall in the same cache line map to the same
/// `LineAddr`. Produced by [`LineGeometry::line_addr`].
///
/// [`LineGeometry::line_addr`]: crate::LineGeometry::line_addr
///
/// # Example
///
/// ```
/// use ldis_mem::{Addr, LineGeometry};
/// let geom = LineGeometry::default();
/// assert_eq!(geom.line_addr(Addr::new(0x1000)), geom.line_addr(Addr::new(0x103f)));
/// assert_ne!(geom.line_addr(Addr::new(0x1000)), geom.line_addr(Addr::new(0x1040)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number (byte address / line size).
    pub const fn new(line_number: u64) -> Self {
        LineAddr(line_number)
    }

    /// Returns the raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The next sequential line.
    pub const fn successor(self) -> Self {
        LineAddr(self.0.wrapping_add(1))
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The position of a word within a cache line (0-based).
///
/// For the paper's 64 B lines and 8 B words the index ranges over `0..8`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
#[repr(transparent)]
pub struct WordIndex(u8);

impl WordIndex {
    /// Creates a word index.
    ///
    /// The caller is responsible for keeping the index below the geometry's
    /// words-per-line; [`LineGeometry`](crate::LineGeometry) constructors
    /// always do.
    pub const fn new(index: u8) -> Self {
        debug_assert!(index < 16, "word index must fit a 16-bit footprint");
        WordIndex(index)
    }

    /// Returns the index as a `u8`.
    pub const fn get(self) -> u8 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for slice indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl From<WordIndex> for usize {
    fn from(w: WordIndex) -> usize {
        w.as_usize()
    }
}

impl fmt::Display for WordIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// The index of a cache set (0-based, below the cache's set count).
///
/// Section 5's distill cache indexes its LOC, its WOC and the reverter's
/// leader sets by the same set number; keeping it apart from way numbers,
/// word indices and addresses makes a swapped argument a type error
/// rather than a shifted miss rate.
///
/// # Example
///
/// ```
/// use ldis_mem::{LineAddr, SetIndex};
/// let set = SetIndex::of_line(LineAddr::new(0x1234), 2048);
/// assert_eq!(set, SetIndex::new(0x234));
/// assert_eq!(set.get(), 0x234);
/// assert_eq!(format!("{set} {set:?}"), "564 564");
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct SetIndex(usize);

impl SetIndex {
    /// Creates a set index from a raw set number.
    #[inline]
    pub const fn new(index: usize) -> Self {
        SetIndex(index)
    }

    /// The set `line` maps to in a cache of `num_sets` sets: the low
    /// bits of the line number. `num_sets` must be a power of two, which
    /// every cache constructor asserts.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "masked below num_sets, which sizes in-memory arrays"
    )]
    pub const fn of_line(line: LineAddr, num_sets: u64) -> Self {
        SetIndex((line.raw() & (num_sets - 1)) as usize)
    }

    /// Returns the raw set number, for indexing per-set storage.
    #[inline]
    pub const fn get(self) -> usize {
        self.0
    }
}

impl fmt::Debug for SetIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::Display for SetIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_roundtrip_and_arithmetic() {
        let a = Addr::new(0xdead_beef);
        assert_eq!(a.raw(), 0xdead_beef);
        assert_eq!(u64::from(a), 0xdead_beef);
        assert_eq!(Addr::from(7u64), Addr::new(7));
        assert_eq!(a + 0x11, Addr::new(0xdead_bf00));
        assert_eq!(a.offset(0x11), a + 0x11);
    }

    #[test]
    fn addr_formatting() {
        let a = Addr::new(0xff);
        assert_eq!(format!("{a}"), "0xff");
        assert_eq!(format!("{a:x}"), "ff");
        assert_eq!(format!("{a:X}"), "FF");
        assert_eq!(format!("{a:?}"), "Addr(0xff)");
    }

    #[test]
    fn line_addr_successor() {
        let l = LineAddr::new(41);
        assert_eq!(l.successor(), LineAddr::new(42));
        assert_eq!(l.raw(), 41);
    }

    #[test]
    fn word_index_conversions() {
        let w = WordIndex::new(5);
        assert_eq!(w.get(), 5);
        assert_eq!(w.as_usize(), 5);
        assert_eq!(usize::from(w), 5);
        assert_eq!(format!("{w}"), "5");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Addr::new(1) < Addr::new(2));
        assert!(LineAddr::new(1) < LineAddr::new(2));
        assert!(WordIndex::new(1) < WordIndex::new(2));
    }
}
