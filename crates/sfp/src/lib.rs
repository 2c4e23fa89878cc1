//! The Spatial Footprint Predictor comparator (Figure 13).
//!
//! Kumar & Wilkerson's SFP (ISCA '98) predicts, at *install* time, which
//! words of a missing line will be used, and installs only those into a
//! decoupled sectored cache. The paper re-implements SFP with the same
//! number of tag entries as the distill cache and shows it reduces misses
//! by less than LDIS: a misprediction at install time turns what would
//! have been a traditional-cache hit into a miss, while LDIS filters only
//! at eviction time (Section 9).
//!
//! # Example
//!
//! ```
//! use ldis_cache::{L2Request, SecondLevel};
//! use ldis_mem::{LineAddr, WordIndex};
//! use ldis_sfp::{SfpCache, SfpConfig};
//!
//! let mut sfp = SfpCache::new(SfpConfig::sfp_16k());
//! sfp.access(L2Request::data(LineAddr::new(0), WordIndex::new(0), false));
//! assert_eq!(sfp.stats().line_misses, 1);
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

mod predictor;
mod sfp_cache;

pub use predictor::FootprintPredictor;
pub use sfp_cache::{SfpCache, SfpConfig};
