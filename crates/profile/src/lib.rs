#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-profile
//!
//! The runtime profiler of the amnesic toolchain (the paper's Pin-based
//! dependency profiler, §4, rebuilt on top of `amnesiac-sim`).
//!
//! A profiling run executes the classic binary once while tracking:
//!
//! * **dynamic def-use provenance** — for every register and memory word,
//!   which instruction produced its current value and from which operand
//!   values: a depth-capped DAG of `Copy` nodes in an index arena, linked
//!   by `u32` slot indices, reference-counted from the register and memory
//!   roots and recycled through a free list;
//! * **per-load-site producer trees** — a site's first dynamic load builds
//!   the backward slice of the loaded value from the arena (seeing *through*
//!   intermediate loads, since slices may not contain memory instructions,
//!   §3.1.1); every later load folds into that canonical tree in one walk
//!   over the tree and the arena together, pruning any subtree whose shape
//!   varies across instances, and allocates nothing while the shape holds;
//! * **liveness** — whether a producer's source register still holds the
//!   operand value at the load (the paper's live-register leaves, §2.2);
//! * **PrLi** — per-site and global service-level distributions (§3.1.1);
//! * **value locality** — for the paper's Fig. 8 analysis;
//! * **store→load flows** — for the dead-store elision analysis (§2).
//!
//! The output, [`ProgramProfile`], is exactly the information the amnesic
//! compiler needs to form and annotate recomputation slices, plus the
//! run's [`ProfilerWork`] counters.

#[cfg(test)]
mod freshness_tests;
mod profiler;
mod provenance;
mod tree;

pub use profiler::{
    profile_program, LoadSiteProfile, ProfilerWork, ProgramProfile, StoreSiteProfile, Unswappable,
};
pub use tree::{ProvNode, ProvOperand};
