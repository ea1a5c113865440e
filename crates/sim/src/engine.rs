//! The block-dispatch engine shared by every interpreter in the workspace.
//!
//! [`run_blocks`] walks a program's [`BlockTable`]: the outer loop checks
//! the fuse and the pc range once per basic block, and the inner loop
//! retires the block's dispatch units, with fused pairs retiring both
//! halves inside one handler. Everything an interpreter has in common lives
//! here — fuse accounting, operand gather, register write-back, branch and
//! jump steering, `Halt`, the rejection of a stray `RTN`, and the
//! instruction/load/store counts. What differs between interpreters is
//! behind [`Hooks`]:
//!
//! * the classic core (`ClassicHooks`) charges energy through a [`Machine`]
//!   and reports each retirement to an [`crate::Observer`];
//! * the amnesic core (`amnesiac-core`) adds the `REC`/`RCMP` handling of
//!   the paper's Fig. 2 microarchitecture;
//! * validation replay (`amnesiac-compiler`) executes functionally and
//!   checks every slice at every `RCMP`.
//!
//! Each hook call is monomorphised and inlined into the engine, so an
//! interpreter pays for nothing it does not implement. Every instruction —
//! fused or not — still fetches, charges and reports individually and in
//! program order, so a hook sees exactly the sequence an
//! instruction-at-a-time interpreter would show it (DESIGN.md §4e).

use amnesiac_cfg::{BlockTable, Fusion};
use amnesiac_isa::{BranchCond, Category, DecodedInst, DecodedOp, Program, Reg, SliceId, NUM_REGS};

use crate::machine::RunError;

/// Dynamic counts of a run, maintained by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Retired instructions, including the extra retirements an `RCMP`
    /// reports ([`RcmpRetire::extra_retired`]).
    pub instructions: u64,
    /// Loads performed, including `RCMP`s that performed theirs.
    pub loads: u64,
    /// Stores performed.
    pub stores: u64,
}

/// What an `RCMP` retirement produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcmpRetire {
    /// The value the engine writes to the `RCMP`'s destination.
    pub value: u64,
    /// Retirements beyond the `RCMP` itself (the amnesic core's decision
    /// plus, when recomputation fires, the slice body). Added to the fuse
    /// count without a fuse check in between, as one unit of work.
    pub extra_retired: u64,
    /// Whether the `RCMP` performed its load.
    pub loaded: bool,
}

/// The interpreter-specific half of execution, driven by [`run_blocks`].
///
/// The engine gathers operands from [`Hooks::regs`], evaluates compute
/// instructions, writes every destination register, and steers control;
/// the hooks own memory, the cost model, observation, and the amnesic
/// instructions. Each retirement calls [`Hooks::fetch`] first, then exactly
/// one of the per-kind hooks (nothing for a stray `RTN`, which the engine
/// rejects itself).
pub trait Hooks {
    /// Error type of the run; every engine-raised [`RunError`] converts.
    type Error: From<RunError>;

    /// The architectural register file.
    fn regs(&mut self) -> &mut [u64; NUM_REGS];

    /// Instruction supply for the instruction at `pc`. Default: free.
    #[inline(always)]
    fn fetch(&mut self, _pc: usize) {}

    /// A compute instruction retired with `value` (already written back).
    /// Default: nothing to charge or report.
    #[inline(always)]
    fn compute(&mut self, _pc: usize, _category: Category, _srcs: [u64; 3], _value: u64) {}

    /// Performs a load from word `addr`; returns the loaded value.
    fn load(&mut self, pc: usize, srcs: [u64; 3], addr: u64) -> u64;

    /// Performs a store of `srcs[0]` to word `addr`.
    fn store(&mut self, pc: usize, srcs: [u64; 3], addr: u64);

    /// A branch (charged as [`Category::Branch`]), jump or `Halt` (both
    /// charged as [`Category::Jump`]) retired. Default: nothing to charge
    /// or report.
    #[inline(always)]
    fn control(&mut self, _pc: usize, _category: Category, _srcs: [u64; 3]) {}

    /// Executes a `REC` checkpointing `srcs` under `key`.
    ///
    /// # Errors
    ///
    /// Interpreters without `Hist` reject it.
    fn rec(&mut self, pc: usize, key: u16, srcs: [u64; 3]) -> Result<(), Self::Error>;

    /// Executes an `RCMP` of `slice` whose load would read word `addr`.
    ///
    /// # Errors
    ///
    /// Interpreters without an amnesic scheduler reject it; the amnesic
    /// core reports recomputation mismatches.
    fn rcmp(&mut self, pc: usize, slice: SliceId, addr: u64) -> Result<RcmpRetire, Self::Error>;
}

/// Runs `program` from its entry to `Halt` over `table` (which must be
/// `program`'s lowering), driving `hooks` at every retirement.
///
/// # Errors
///
/// * [`RunError::FuseBlown`] when a retirement would exceed
///   `max_instructions`; the fuse is checked before every instruction, so
///   it fires at the same retirement whether that lands at a block entry,
///   mid-block, or between the halves of a fused pair;
/// * [`RunError::PcOutOfRange`] if control leaves the main code region
///   (checked after the fuse, at block entry);
/// * [`RunError::UnexpectedInstruction`] on an `RTN` in main code;
/// * whatever the hooks raise.
pub fn run_blocks<H: Hooks>(
    program: &Program,
    table: &BlockTable,
    hooks: &mut H,
    max_instructions: u64,
) -> Result<Counts, H::Error> {
    let decoded = table.decoded();
    let max = max_instructions;
    let mut n = Counts::default();
    let mut pc = program.entry;

    'run: loop {
        check_fuse(&n, max)?;
        if pc >= program.code_len {
            return Err(RunError::PcOutOfRange { pc }.into());
        }
        let block = table.main_block(pc);
        let mut next_pc = block.end;
        for unit in table.units(block) {
            check_fuse(&n, max)?;
            let ipc = unit.pc as usize;
            let a = &decoded[ipc];
            begin(hooks, &mut n, ipc);
            match unit.fused {
                None => match a.op {
                    DecodedOp::Halt => {
                        hooks.control(ipc, Category::Jump, [0; 3]);
                        break 'run;
                    }
                    DecodedOp::Load { dst, offset } => load(hooks, &mut n, ipc, a, dst, offset),
                    DecodedOp::Store { offset } => store(hooks, &mut n, ipc, a, offset),
                    DecodedOp::Branch { cond, target } => {
                        branch(hooks, ipc, a, cond, target, &mut next_pc);
                    }
                    DecodedOp::Jump { target } => {
                        hooks.control(ipc, Category::Jump, [0; 3]);
                        next_pc = target;
                    }
                    DecodedOp::Rec { key } => {
                        let srcs = gather(hooks.regs(), a);
                        hooks.rec(ipc, key, srcs)?;
                    }
                    DecodedOp::Rcmp { dst, offset, slice } => {
                        let srcs = gather(hooks.regs(), a);
                        let addr = srcs[0].wrapping_add(offset as u64);
                        let r = hooks.rcmp(ipc, slice, addr)?;
                        hooks.regs()[dst.index()] = r.value;
                        n.instructions += r.extra_retired;
                        n.loads += u64::from(r.loaded);
                    }
                    DecodedOp::Rtn => return Err(RunError::unexpected(program, ipc).into()),
                    _ => compute(hooks, ipc, a),
                },
                Some(Fusion::CmpBranch) => {
                    compute(hooks, ipc, a);
                    let b = &decoded[ipc + 1];
                    let DecodedOp::Branch { cond, target } = b.op else {
                        unreachable!("CmpBranch second half is a branch");
                    };
                    check_fuse(&n, max)?;
                    begin(hooks, &mut n, ipc + 1);
                    branch(hooks, ipc + 1, b, cond, target, &mut next_pc);
                }
                Some(Fusion::LoadAlu) => {
                    let DecodedOp::Load { dst, offset } = a.op else {
                        unreachable!("LoadAlu first half is a load");
                    };
                    load(hooks, &mut n, ipc, a, dst, offset);
                    check_fuse(&n, max)?;
                    begin(hooks, &mut n, ipc + 1);
                    compute(hooks, ipc + 1, &decoded[ipc + 1]);
                }
                Some(Fusion::AluiStore) => {
                    compute(hooks, ipc, a);
                    let b = &decoded[ipc + 1];
                    let DecodedOp::Store { offset } = b.op else {
                        unreachable!("AluiStore second half is a store");
                    };
                    check_fuse(&n, max)?;
                    begin(hooks, &mut n, ipc + 1);
                    store(hooks, &mut n, ipc + 1, b, offset);
                }
                Some(Fusion::LiAlu) => {
                    compute(hooks, ipc, a);
                    check_fuse(&n, max)?;
                    begin(hooks, &mut n, ipc + 1);
                    compute(hooks, ipc + 1, &decoded[ipc + 1]);
                }
            }
        }
        pc = next_pc;
    }
    Ok(n)
}

/// Reads a decoded instruction's source operand values, in
/// [`DecodedInst::srcs`] position order (unused positions are 0).
#[inline(always)]
fn gather(regs: &[u64; NUM_REGS], d: &DecodedInst) -> [u64; 3] {
    let mut vals = [0u64; 3];
    for (j, s) in d.srcs.iter().enumerate() {
        if let Some(r) = s {
            vals[j] = regs[r.index()];
        }
    }
    vals
}

#[inline(always)]
fn check_fuse(n: &Counts, max: u64) -> Result<(), RunError> {
    if n.instructions >= max {
        return Err(RunError::FuseBlown { limit: max });
    }
    Ok(())
}

/// Starts a retirement: instruction supply, then the count.
#[inline(always)]
fn begin<H: Hooks>(hooks: &mut H, n: &mut Counts, pc: usize) {
    hooks.fetch(pc);
    n.instructions += 1;
}

/// Gather → evaluate → write back → charge/report.
#[inline(always)]
fn compute<H: Hooks>(hooks: &mut H, pc: usize, d: &DecodedInst) {
    let srcs = gather(hooks.regs(), d);
    let (dst, value) = d.compute(srcs);
    hooks.regs()[dst.index()] = value;
    hooks.compute(pc, d.category, srcs, value);
}

#[inline(always)]
fn load<H: Hooks>(
    hooks: &mut H,
    n: &mut Counts,
    pc: usize,
    d: &DecodedInst,
    dst: Reg,
    offset: i64,
) {
    let srcs = gather(hooks.regs(), d);
    let addr = srcs[0].wrapping_add(offset as u64);
    let value = hooks.load(pc, srcs, addr);
    hooks.regs()[dst.index()] = value;
    n.loads += 1;
}

#[inline(always)]
fn store<H: Hooks>(hooks: &mut H, n: &mut Counts, pc: usize, d: &DecodedInst, offset: i64) {
    let srcs = gather(hooks.regs(), d);
    let addr = srcs[1].wrapping_add(offset as u64);
    hooks.store(pc, srcs, addr);
    n.stores += 1;
}

#[inline(always)]
fn branch<H: Hooks>(
    hooks: &mut H,
    pc: usize,
    d: &DecodedInst,
    cond: BranchCond,
    target: usize,
    next_pc: &mut usize,
) {
    let srcs = gather(hooks.regs(), d);
    hooks.control(pc, Category::Branch, srcs);
    if cond.eval(srcs[0], srcs[1]) {
        *next_pc = target;
    }
}
