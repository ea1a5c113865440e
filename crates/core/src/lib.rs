#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-core
//!
//! The paper's primary contribution: the amnesic microarchitecture and the
//! runtime scheduler that orchestrates recomputation (paper §3.2–§3.3).
//!
//! An [`AmnesicCore`] executes an annotated binary. When it fetches an
//! `RCMP`, the scheduler resolves the fused branch-or-load per the active
//! [`Policy`]:
//!
//! * [`Policy::Compiler`] — always branch to the slice (fire recomputation);
//! * [`Policy::Flc`] — probe L1-D tags; fire on a first-level miss;
//! * [`Policy::Llc`] — probe L1-D and L2 tags; fire on a last-level miss;
//! * [`Policy::Oracle`] — know the residency exactly (no probe cost) and
//!   fire iff recomputing is cheaper than the load would be. Run on the
//!   compiler's probabilistic slice set this is the paper's **C-Oracle**;
//!   on the oracle-selected set it is **Oracle**.
//!
//! During slice traversal, data flows through the [`SFile`] via the
//! [`Renamer`]; leaves with non-recomputable inputs read operand values that
//! `REC` instructions checkpointed into the [`Hist`] table; and slice
//! instructions are supplied from the [`IBuff`] when resident. `Hist`
//! capacity overflow makes the affected slice permanently fall back to the
//! load (§3.5), and exceptions raised by recomputing instructions are
//! recorded and deferred past the `RTN` (§2.3).
//!
//! Fired recomputations do **not** touch the data caches: the skipped load
//! neither warms nor reuses cache state, reproducing the temporal-locality
//! degradation the paper discusses in §5.

mod executor;
mod policy;
mod predictor;
mod stats;
mod structures;

pub use executor::{AmnesicConfig, AmnesicCore, AmnesicError, AmnesicHooks, AmnesicRunResult};
pub use policy::Policy;
pub use predictor::MissPredictor;
pub use stats::{AmnesicStats, DeferredException, SliceRuntimeStats};
pub use structures::{Hist, IBuff, Renamer, SFile};
