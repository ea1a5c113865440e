#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Shared control-flow structure over the predecoded instruction stream.
//!
//! This crate is the workspace's single home for block-level program
//! structure, consumed from two directions:
//!
//! * **Static analysis** ([`graph`]): basic blocks, reachability from the
//!   entry, and immediate dominators over the main-code region — the
//!   substrate of `amnesiac-verify`'s "`REC` on all paths" dataflow.
//! * **Execution** ([`block`]): the same leader computation lowered into a
//!   [`BlockTable`] of [`DecodedBlock`]s — straight-line superblocks with
//!   common adjacent instruction pairs fused into superinstructions — that
//!   `amnesiac-sim`'s one block engine (`run_blocks`) dispatches on. The
//!   classic core, the amnesic core (`amnesiac-core`) and validation replay
//!   (`amnesiac-compiler`) all run on that engine through its hooks.
//!
//! Keeping both views in one crate guarantees the verifier and the
//! engine agree on what a basic block *is*: there is exactly one leader
//! computation ([`graph`] exposes it to both lowerings), so a block proven
//! single-entry by the verifier is the same block the engine runs without
//! re-dispatching.

pub mod block;
pub mod graph;

pub use block::{BlockInst, BlockTable, DecodedBlock, Fusion, FusionStats};
pub use graph::{BasicBlock, Cfg};
