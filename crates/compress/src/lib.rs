//! Cache compression for the Line Distillation reproduction (Section 8).
//!
//! The paper studies how line distillation interacts with cache
//! compression and proposes *footprint-aware compression*: compress only
//! the used words. This crate provides all three pieces:
//!
//! * the Table 4 significance encoder ([`class_of`], [`compressed_bytes`],
//!   [`SizeCategory`]) and the [`ValueSizeModel`] glue that sizes lines
//!   from a benchmark's deterministic value model;
//! * [`CmprCache`] — the CMPR-4xTags comparator: a traditional cache
//!   storing compressed lines in a segmented data array with 4× tags and
//!   perfect LRU;
//! * [`CompressedWoc`] / [`FacCache`] — footprint-aware compression: a
//!   [`DistillCache`](ldis_distill::DistillCache) whose WOC stores the
//!   used words compressed, multiplying WOC capacity while keeping every
//!   used word addressable.
//!
//! # Example
//!
//! ```
//! use ldis_compress::{compressed_bytes, SizeCategory};
//!
//! // A line of 16 zero chunks compresses 16:1 in bits → one-eighth class.
//! let bytes = compressed_bytes(&[0u32; 16]);
//! assert_eq!(SizeCategory::of(bytes, 64), SizeCategory::OneEighth);
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

mod cmpr;
mod fac;
mod fpc;

pub use cmpr::{CmprCache, CmprConfig};
pub use fac::{fac_4x_tags, fac_cache, CompressedWoc, FacCache};
pub use fpc::{
    class_of, compressed_bits, compressed_bytes, encoded_bits, SizeCategory, ValueSizeModel,
    CODE_BITS,
};
