//! # popk-slice — bit-slice arithmetic primitives
//!
//! The algebra behind the paper's Figure 8: 32-bit operands are decomposed
//! into 1, 2 or 4 slices and operations are evaluated *slice by slice* with
//! explicit inter-slice state (the carry chain for arithmetic, nothing for
//! logic, full cross-slice communication for shifts).
//!
//! The timing model in `popk-core` uses this crate two ways:
//!
//! * the [`SliceAlu`] actually computes per-slice results in the same order
//!   a bit-sliced datapath would produce them (property-tested here against
//!   the full-width operations), and
//! * the partial-knowledge predicates ([`first_divergent_bit`],
//!   [`diverges_within`], [`mispredict_detection_bit`]) decide how many
//!   low-order bits suffice to resolve a branch or disambiguate a load —
//!   the quantities characterized in the paper's Figures 2 and 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alu;
mod partial;
mod sliced;

pub use alu::{AluSliceOp, SliceAlu};
pub use partial::{
    diverges_within, first_divergent_bit, mispredict_detection_bit, slices_to_detect,
    FULL_WIDTH_BITS,
};
pub use sliced::{SliceWidth, Sliced};
