//! Human-readable disassembly of instructions and programs.

use std::fmt;

use crate::inst::Instruction;
use crate::program::Program;

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Li { dst, imm } => write!(f, "li {dst}, {imm:#x}"),
            Instruction::Alu { op, dst, lhs, rhs } => write!(f, "{op} {dst}, {lhs}, {rhs}"),
            Instruction::Alui { op, dst, src, imm } => {
                write!(f, "{op}i {dst}, {src}, {imm:#x}")
            }
            Instruction::Fpu { op, dst, lhs, rhs } => write!(f, "{op} {dst}, {lhs}, {rhs}"),
            Instruction::FpuUn { op, dst, src } => write!(f, "{op} {dst}, {src}"),
            Instruction::Fma { dst, a, b, c } => write!(f, "fma {dst}, {a}, {b}, {c}"),
            Instruction::Cvt { kind, dst, src } => write!(f, "{kind} {dst}, {src}"),
            Instruction::Load { dst, base, offset } => {
                write!(f, "ld {dst}, [{base}{offset:+}]")
            }
            Instruction::Store { src, base, offset } => {
                write!(f, "st {src}, [{base}{offset:+}]")
            }
            Instruction::Branch {
                cond,
                lhs,
                rhs,
                target,
            } => {
                write!(f, "{cond} {lhs}, {rhs}, @{target}")
            }
            Instruction::Jump { target } => write!(f, "j @{target}"),
            Instruction::Halt => write!(f, "halt"),
            Instruction::Rcmp {
                dst,
                base,
                offset,
                slice,
            } => {
                write!(f, "rcmp {dst}, [{base}{offset:+}], {slice}")
            }
            Instruction::Rtn { slice } => write!(f, "rtn {slice}"),
            Instruction::Rec { key, srcs } => {
                write!(f, "rec @{key}")?;
                for s in srcs.iter().flatten() {
                    write!(f, ", {s}")?;
                }
                Ok(())
            }
        }
    }
}

/// Renders a full program listing, marking slice-body boundaries.
pub fn disassemble(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "; program `{}`", program.name);
    for (pc, inst) in program.instructions.iter().enumerate() {
        if pc == program.code_len && !program.slices.is_empty() {
            let _ = writeln!(out, "; ---- slice bodies ----");
        }
        for meta in &program.slices {
            if meta.entry == pc {
                let _ = writeln!(
                    out,
                    "; {} for rcmp@{} ({} insts, E_rc≈{:.2}nJ, E_ld≈{:.2}nJ)",
                    meta.id, meta.rcmp_pc, meta.len, meta.est_recompute_nj, meta.est_load_nj
                );
            }
        }
        let _ = writeln!(out, "{pc:6}: {inst}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, BranchCond};
    use crate::program::SliceId;
    use crate::Reg;

    #[test]
    fn instruction_rendering() {
        let cases: Vec<(Instruction, &str)> = vec![
            (
                Instruction::Li {
                    dst: Reg(1),
                    imm: 16,
                },
                "li r1, 0x10",
            ),
            (
                Instruction::Alu {
                    op: AluOp::Add,
                    dst: Reg(1),
                    lhs: Reg(2),
                    rhs: Reg(3),
                },
                "add r1, r2, r3",
            ),
            (
                Instruction::Load {
                    dst: Reg(4),
                    base: Reg(5),
                    offset: -2,
                },
                "ld r4, [r5-2]",
            ),
            (
                Instruction::Store {
                    src: Reg(4),
                    base: Reg(5),
                    offset: 3,
                },
                "st r4, [r5+3]",
            ),
            (
                Instruction::Branch {
                    cond: BranchCond::Ne,
                    lhs: Reg(1),
                    rhs: Reg(0),
                    target: 12,
                },
                "bne r1, r0, @12",
            ),
            (Instruction::Halt, "halt"),
            (
                Instruction::Rcmp {
                    dst: Reg(2),
                    base: Reg(1),
                    offset: 0,
                    slice: SliceId(3),
                },
                "rcmp r2, [r1+0], slice3",
            ),
            (Instruction::Rtn { slice: SliceId(3) }, "rtn slice3"),
            (
                Instruction::Rec {
                    key: 2,
                    srcs: [Some(Reg(7)), None, None],
                },
                "rec @2, r7",
            ),
        ];
        for (inst, expected) in cases {
            assert_eq!(inst.to_string(), expected);
        }
    }

    #[test]
    fn program_listing_contains_every_pc() {
        let mut p = Program::new("demo");
        p.instructions = vec![
            Instruction::Li {
                dst: Reg(1),
                imm: 1,
            },
            Instruction::Halt,
        ];
        p.code_len = 2;
        let text = disassemble(&p);
        assert!(text.contains("program `demo`"));
        assert!(text.contains("0: li r1, 0x1"));
        assert!(text.contains("1: halt"));
    }
}
