//! Predecoded execution stream: a dense, flat lowering of
//! [`Instruction`] that interpreters dispatch on instead of re-matching the
//! enum at every retirement.
//!
//! The execution engines retire tens of millions of dynamic instructions per
//! suite run, and each retirement used to pay for the same static work over
//! and over: rebuilding the `[Option<Reg>; 3]` source array
//! ([`Instruction::srcs`]), re-deriving the energy [`Category`], and
//! re-matching nested enums (`Alu { op, .. }` → `op.apply`). All of that is
//! a pure function of the static instruction, so [`predecode`] hoists it out
//! of the loop: one [`DecodedInst`] per static instruction, with the source
//! registers, destination, category, immediates, and branch targets
//! pre-resolved.
//!
//! `predecode` covers the *entire* instruction stream — main code and slice
//! bodies past [`crate::Program::code_len`] — so slice traversal dispatches
//! on the same table.

use crate::inst::{AluOp, BranchCond, Category, CvtKind, FpOp, FpUnOp, Instruction};
use crate::program::{Program, SliceId};
use crate::{Reg, MAX_SRC_OPERANDS};

/// Pre-resolved operation payload of a [`DecodedInst`].
///
/// Mirrors [`Instruction`] with register sources factored out into
/// [`DecodedInst::srcs`], so the hot interpreter arms only carry what they
/// consume: the destination, immediates, offsets, and targets. Every
/// variant that writes a register carries its `dst`, so a destination is
/// present by construction rather than checked at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedOp {
    /// Immediate move; the value to write.
    Li {
        /// Destination register.
        dst: Reg,
        /// The immediate.
        imm: u64,
    },
    /// Register-register integer ALU operation.
    Alu {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: AluOp,
    },
    /// Register-immediate integer ALU operation.
    Alui {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: AluOp,
        /// The immediate right-hand operand.
        imm: u64,
    },
    /// Register-register binary FP operation.
    Fpu {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: FpOp,
    },
    /// Unary FP operation.
    FpuUn {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: FpUnOp,
    },
    /// Fused multiply-add.
    Fma {
        /// Destination register.
        dst: Reg,
    },
    /// Int/FP conversion.
    Cvt {
        /// Destination register.
        dst: Reg,
        /// The conversion.
        kind: CvtKind,
    },
    /// Memory load; effective address is `srcs[0] + offset`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Word offset added to the base register.
        offset: i64,
    },
    /// Memory store; value is `srcs[0]`, effective address `srcs[1] + offset`.
    Store {
        /// Word offset added to the base register.
        offset: i64,
    },
    /// Conditional branch.
    Branch {
        /// The condition, comparing `srcs[0]` and `srcs[1]`.
        cond: BranchCond,
        /// Absolute target instruction index.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Absolute target instruction index.
        target: usize,
    },
    /// Stop execution.
    Halt,
    /// Amnesic fused branch+load; effective address is `srcs[0] + offset`.
    Rcmp {
        /// Destination register.
        dst: Reg,
        /// Word offset added to the base register.
        offset: i64,
        /// The associated recomputation slice.
        slice: SliceId,
    },
    /// Amnesic slice return.
    Rtn,
    /// Amnesic history checkpoint.
    Rec {
        /// The `Hist` key being written.
        key: u16,
    },
}

/// A predecoded instruction: operation payload plus pre-resolved operands.
///
/// Agreement with the [`Instruction`] accessors (`srcs`/`dst`/`category`) is
/// enforced by construction in [`predecode`] and by property tests over the
/// workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInst {
    /// The operation, its destination, and its non-register payload.
    pub op: DecodedOp,
    /// Pre-resolved register sources, identical to [`Instruction::srcs`].
    pub srcs: [Option<Reg>; MAX_SRC_OPERANDS],
    /// Pre-resolved energy category, identical to [`Instruction::category`].
    pub category: Category,
}

impl DecodedInst {
    /// Lowers a single instruction.
    pub fn from_inst(inst: &Instruction) -> DecodedInst {
        let op = match *inst {
            Instruction::Li { dst, imm } => DecodedOp::Li { dst, imm },
            Instruction::Alu { op, dst, .. } => DecodedOp::Alu { dst, op },
            Instruction::Alui { op, dst, imm, .. } => DecodedOp::Alui { dst, op, imm },
            Instruction::Fpu { op, dst, .. } => DecodedOp::Fpu { dst, op },
            Instruction::FpuUn { op, dst, .. } => DecodedOp::FpuUn { dst, op },
            Instruction::Fma { dst, .. } => DecodedOp::Fma { dst },
            Instruction::Cvt { kind, dst, .. } => DecodedOp::Cvt { dst, kind },
            Instruction::Load { dst, offset, .. } => DecodedOp::Load { dst, offset },
            Instruction::Store { offset, .. } => DecodedOp::Store { offset },
            Instruction::Branch { cond, target, .. } => DecodedOp::Branch { cond, target },
            Instruction::Jump { target } => DecodedOp::Jump { target },
            Instruction::Halt => DecodedOp::Halt,
            Instruction::Rcmp {
                dst, offset, slice, ..
            } => DecodedOp::Rcmp { dst, offset, slice },
            Instruction::Rtn { .. } => DecodedOp::Rtn,
            Instruction::Rec { key, .. } => DecodedOp::Rec { key },
        };
        DecodedInst {
            op,
            srcs: inst.srcs(),
            category: inst.category(),
        }
    }

    /// The destination register, identical to [`Instruction::dst`]: present
    /// on exactly the variants that carry one.
    #[inline]
    pub fn dst(&self) -> Option<Reg> {
        match self.op {
            DecodedOp::Li { dst, .. }
            | DecodedOp::Alu { dst, .. }
            | DecodedOp::Alui { dst, .. }
            | DecodedOp::Fpu { dst, .. }
            | DecodedOp::FpuUn { dst, .. }
            | DecodedOp::Fma { dst }
            | DecodedOp::Cvt { dst, .. }
            | DecodedOp::Load { dst, .. }
            | DecodedOp::Rcmp { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Evaluates a compute instruction given its source operand *values* in
    /// [`DecodedInst::srcs`] order. Compute semantics are defined once, in
    /// [`DecodedInst::compute`]: the block engine, slice traversal and
    /// validation replay all evaluate through it or this wrapper.
    ///
    /// # Panics
    ///
    /// Panics if this is not a compute instruction.
    #[inline]
    pub fn eval_compute(&self, srcs: [u64; 3]) -> u64 {
        self.compute(srcs).1
    }

    /// Evaluates a compute instruction like [`DecodedInst::eval_compute`]
    /// and also returns the register it writes, resolving both in one match.
    ///
    /// # Panics
    ///
    /// Panics if this is not a compute instruction.
    #[inline]
    pub fn compute(&self, srcs: [u64; 3]) -> (Reg, u64) {
        match self.op {
            DecodedOp::Li { dst, imm } => (dst, imm),
            DecodedOp::Alu { dst, op } => (dst, op.apply(srcs[0], srcs[1])),
            DecodedOp::Alui { dst, op, imm } => (dst, op.apply(srcs[0], imm)),
            DecodedOp::Fpu { dst, op } => (dst, op.apply(srcs[0], srcs[1])),
            DecodedOp::FpuUn { dst, op } => (dst, op.apply(srcs[0])),
            DecodedOp::Fma { dst } => {
                let a = f64::from_bits(srcs[0]);
                let b = f64::from_bits(srcs[1]);
                let c = f64::from_bits(srcs[2]);
                (dst, a.mul_add(b, c).to_bits())
            }
            DecodedOp::Cvt { dst, kind } => (dst, kind.apply(srcs[0])),
            ref other => panic!("eval_compute on non-compute instruction {other:?}"),
        }
    }
}

/// Lowers the full instruction stream of `program` — main code *and* slice
/// bodies — into a dense table indexed by instruction address.
pub fn predecode(program: &Program) -> Vec<DecodedInst> {
    program
        .instructions
        .iter()
        .map(DecodedInst::from_inst)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::SliceId;

    #[test]
    fn lowering_preserves_accessors_and_payloads() {
        let insts = [
            Instruction::Li {
                dst: Reg(1),
                imm: 42,
            },
            Instruction::Alui {
                op: AluOp::Mul,
                dst: Reg(2),
                src: Reg(1),
                imm: 3,
            },
            Instruction::Branch {
                cond: BranchCond::Ltu,
                lhs: Reg(1),
                rhs: Reg(2),
                target: 7,
            },
            Instruction::Rcmp {
                dst: Reg(3),
                base: Reg(4),
                offset: -2,
                slice: SliceId(5),
            },
            Instruction::Rec {
                key: 9,
                srcs: [Some(Reg(1)), None, Some(Reg(2))],
            },
            Instruction::Load {
                dst: Reg(6),
                base: Reg(1),
                offset: 4,
            },
            Instruction::Fma {
                dst: Reg(7),
                a: Reg(1),
                b: Reg(2),
                c: Reg(3),
            },
        ];
        for inst in &insts {
            let d = DecodedInst::from_inst(inst);
            assert_eq!(d.srcs, inst.srcs(), "{inst:?}");
            assert_eq!(d.dst(), inst.dst(), "{inst:?}");
            assert_eq!(d.category, inst.category(), "{inst:?}");
        }
        assert_eq!(
            DecodedInst::from_inst(&insts[2]).op,
            DecodedOp::Branch {
                cond: BranchCond::Ltu,
                target: 7
            }
        );
        assert_eq!(
            DecodedInst::from_inst(&insts[3]).op,
            DecodedOp::Rcmp {
                dst: Reg(3),
                offset: -2,
                slice: SliceId(5)
            }
        );
        assert_eq!(
            DecodedInst::from_inst(&insts[0]).op,
            DecodedOp::Li {
                dst: Reg(1),
                imm: 42
            }
        );
        assert_eq!(
            DecodedInst::from_inst(&insts[1]).op,
            DecodedOp::Alui {
                dst: Reg(2),
                op: AluOp::Mul,
                imm: 3
            }
        );
        assert_eq!(
            DecodedInst::from_inst(&insts[5]).op,
            DecodedOp::Load {
                dst: Reg(6),
                offset: 4
            }
        );
        assert_eq!(
            DecodedInst::from_inst(&insts[6]).op,
            DecodedOp::Fma { dst: Reg(7) }
        );
        assert_eq!(DecodedInst::from_inst(&insts[4]).dst(), None);
    }

    #[test]
    fn decoded_eval_matches_direct_semantics() {
        let alui = DecodedInst::from_inst(&Instruction::Alui {
            op: AluOp::Add,
            dst: Reg(1),
            src: Reg(2),
            imm: 5,
        });
        assert_eq!(alui.eval_compute([10, 0, 0]), 15);
        let fma = DecodedInst::from_inst(&Instruction::Fma {
            dst: Reg(1),
            a: Reg(2),
            b: Reg(3),
            c: Reg(4),
        });
        assert_eq!(
            f64::from_bits(fma.eval_compute([
                2.0f64.to_bits(),
                3.0f64.to_bits(),
                1.0f64.to_bits()
            ])),
            7.0
        );
    }

    #[test]
    #[should_panic(expected = "non-compute")]
    fn decoded_eval_rejects_memory_instructions() {
        DecodedInst::from_inst(&Instruction::Load {
            dst: Reg(0),
            base: Reg(1),
            offset: 0,
        })
        .eval_compute([0; 3]);
    }
}
