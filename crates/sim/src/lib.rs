#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # amnesiac-sim
//!
//! The in-order core simulator: functional execution plus timing and energy
//! accounting for *classic* (non-amnesic) execution, the shared machine
//! state ([`Machine`]), the deferred-exception check of slice traversal
//! ([`decoded_exception`]), and the one block-dispatch engine
//! ([`run_blocks`]) that the classic core, the amnesic core in
//! `amnesiac-core` and validation replay in `amnesiac-compiler` all run on
//! through their [`Hooks`]. Instruction values come from
//! [`amnesiac_isa::DecodedInst::eval_compute`], the one definition of
//! compute semantics.
//!
//! The model matches the paper's Table 3 machine: a single in-order core at
//! 1.09 GHz with L1-I/L1-D/L2/DRAM. Non-memory instructions take one cycle;
//! loads and stores stall for the round-trip latency of the level that
//! services them; instruction supply goes through L1-I (misses charge L2 or
//! memory fill energy and latency).
//!
//! ```
//! use amnesiac_isa::{ProgramBuilder, Reg, AluOp};
//! use amnesiac_sim::{ClassicCore, CoreConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new("inc");
//! let cell = b.alloc_data(&[41]);
//! b.mark_output(cell, 1);
//! b.li(Reg(1), cell);
//! b.load(Reg(2), Reg(1), 0);
//! b.alui(AluOp::Add, Reg(2), Reg(2), 1);
//! b.store(Reg(2), Reg(1), 0);
//! b.halt();
//! let program = b.finish()?;
//!
//! let result = ClassicCore::new(CoreConfig::paper()).run(&program)?;
//! assert_eq!(result.final_memory.get(&cell), Some(&42));
//! assert!(result.account.total_nj() > 0.0);
//! # Ok(())
//! # }
//! ```

mod classic;
mod engine;
mod eval;
mod machine;

pub use classic::{
    ClassicCore, ClassicHooks, NullObserver, Observer, RetireEvent, RunResult, TraceWriter,
};
pub use engine::{run_blocks, Counts, Hooks, RcmpRetire};
pub use eval::{decoded_exception, ExceptionKind};
pub use machine::{CoreConfig, Machine, RunError};
