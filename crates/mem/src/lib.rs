//! Memory substrate for the Line Distillation simulator.
//!
//! This crate provides the vocabulary types shared by every other crate in
//! the workspace:
//!
//! * [`Addr`], [`LineAddr`], [`WordIndex`], [`SetIndex`] and
//!   [`LineGeometry`] — byte addresses, line addresses, word and set
//!   indices, and the line/word geometry arithmetic that connects them;
//! * [`Access`] and [`AccessKind`] — one memory reference of a trace;
//! * [`Footprint`] — the per-line used-word bit vector at the heart of the
//!   paper (one bit per word of a cache line);
//! * [`SimRng`] — a small, fully deterministic PRNG so that every experiment
//!   is reproducible bit-for-bit from its seed, and [`GeometricTable`], its
//!   table-driven sampler of instruction gaps;
//! * [`stats`] — histograms and summary helpers used by the experiment
//!   harness.
//!
//! # Example
//!
//! ```
//! use ldis_mem::{Addr, LineGeometry};
//!
//! let geom = LineGeometry::default(); // 64 B lines, 8 B words
//! let addr = Addr::new(0x1234);
//! assert_eq!(geom.words_per_line(), 8);
//! assert_eq!(geom.word_index(addr).get(), 6); // byte 0x34 = word 6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

mod access;
mod addr;
pub mod bitops;
mod footprint;
mod geometric;
mod geometry;
pub mod rng;
pub mod stats;
mod trace;
mod trace_io;

pub use access::{Access, AccessKind};
pub use addr::{Addr, LineAddr, SetIndex, WordIndex};
pub use footprint::Footprint;
pub use geometric::GeometricTable;
pub use geometry::LineGeometry;
pub use rng::{fnv1a, stable_id, SimRng};
pub use trace::{Trace, TraceSource};
