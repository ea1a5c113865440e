//! Pure functional semantics of compute instructions, shared by the classic
//! core, the profiler's replay validation, and the amnesic slice traversal.

use amnesiac_isa::{AluOp, DecodedInst, DecodedOp, Instruction};

/// Architectural exceptions a compute instruction can raise.
///
/// Under amnesic execution these are *recorded* during slice traversal and
/// handled after `RTN`, mirroring the paper's §2.3 deferred-exception
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionKind {
    /// Integer division or remainder by zero.
    DivideByZero,
    /// A floating-point operation produced NaN from non-NaN inputs.
    FpInvalid,
}

/// Evaluates a compute instruction given its source operand *values* in
/// [`Instruction::srcs`] order. Positions without a register operand are
/// ignored.
///
/// # Panics
///
/// Panics if `inst` is not a compute instruction
/// ([`Instruction::is_slice_compute`] is `false`).
pub fn eval_compute(inst: &Instruction, srcs: [u64; 3]) -> u64 {
    match inst {
        Instruction::Li { imm, .. } => *imm,
        Instruction::Alu { op, .. } => op.apply(srcs[0], srcs[1]),
        Instruction::Alui { op, imm, .. } => op.apply(srcs[0], *imm),
        Instruction::Fpu { op, .. } => op.apply(srcs[0], srcs[1]),
        Instruction::FpuUn { op, .. } => op.apply(srcs[0]),
        Instruction::Fma { .. } => {
            let a = f64::from_bits(srcs[0]);
            let b = f64::from_bits(srcs[1]);
            let c = f64::from_bits(srcs[2]);
            a.mul_add(b, c).to_bits()
        }
        Instruction::Cvt { kind, .. } => kind.apply(srcs[0]),
        other => panic!("eval_compute on non-compute instruction {other}"),
    }
}

/// Checks whether executing `inst` on `srcs` raises an exception.
pub fn compute_exception(inst: &Instruction, srcs: [u64; 3]) -> Option<ExceptionKind> {
    match inst {
        Instruction::Alu {
            op: AluOp::Div | AluOp::Rem,
            ..
        } if srcs[1] == 0 => Some(ExceptionKind::DivideByZero),
        Instruction::Alui {
            op: AluOp::Div | AluOp::Rem,
            imm: 0,
            ..
        } => Some(ExceptionKind::DivideByZero),
        Instruction::Fpu { .. } | Instruction::FpuUn { .. } | Instruction::Fma { .. } => {
            let out = f64::from_bits(eval_compute(inst, srcs));
            let in_nan = inst
                .srcs()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .any(|(i, _)| f64::from_bits(srcs[i]).is_nan());
            if out.is_nan() && !in_nan {
                Some(ExceptionKind::FpInvalid)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Decoded twin of [`compute_exception`]: same semantics, but dispatches on
/// the predecoded stream and reads the pre-resolved source array instead of
/// re-deriving it with [`Instruction::srcs`] on every check.
#[inline]
pub fn decoded_exception(inst: &DecodedInst, srcs: [u64; 3]) -> Option<ExceptionKind> {
    match inst.op {
        DecodedOp::Alu {
            op: AluOp::Div | AluOp::Rem,
            ..
        } if srcs[1] == 0 => Some(ExceptionKind::DivideByZero),
        DecodedOp::Alui {
            op: AluOp::Div | AluOp::Rem,
            imm: 0,
            ..
        } => Some(ExceptionKind::DivideByZero),
        DecodedOp::Fpu { .. } | DecodedOp::FpuUn { .. } | DecodedOp::Fma { .. } => {
            let out = f64::from_bits(inst.eval_compute(srcs));
            let in_nan = inst
                .srcs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .any(|(i, _)| f64::from_bits(srcs[i]).is_nan());
            if out.is_nan() && !in_nan {
                Some(ExceptionKind::FpInvalid)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{CvtKind, FpOp, FpUnOp, Reg};

    #[test]
    fn eval_covers_all_compute_shapes() {
        let r = Reg(0);
        assert_eq!(eval_compute(&Instruction::Li { dst: r, imm: 7 }, [0; 3]), 7);
        assert_eq!(
            eval_compute(
                &Instruction::Alu {
                    op: AluOp::Add,
                    dst: r,
                    lhs: r,
                    rhs: r
                },
                [2, 3, 0]
            ),
            5
        );
        assert_eq!(
            eval_compute(
                &Instruction::Alui {
                    op: AluOp::Mul,
                    dst: r,
                    src: r,
                    imm: 10
                },
                [4, 0, 0]
            ),
            40
        );
        let x = 1.5f64.to_bits();
        assert_eq!(
            f64::from_bits(eval_compute(
                &Instruction::Fpu {
                    op: FpOp::Add,
                    dst: r,
                    lhs: r,
                    rhs: r
                },
                [x, x, 0]
            )),
            3.0
        );
        assert_eq!(
            f64::from_bits(eval_compute(
                &Instruction::FpuUn {
                    op: FpUnOp::Sqrt,
                    dst: r,
                    src: r
                },
                [4.0f64.to_bits(), 0, 0]
            )),
            2.0
        );
        assert_eq!(
            f64::from_bits(eval_compute(
                &Instruction::Fma {
                    dst: r,
                    a: r,
                    b: r,
                    c: r
                },
                [2.0f64.to_bits(), 3.0f64.to_bits(), 1.0f64.to_bits()]
            )),
            7.0
        );
        assert_eq!(
            eval_compute(
                &Instruction::Cvt {
                    kind: CvtKind::F2I,
                    dst: r,
                    src: r
                },
                [9.75f64.to_bits(), 0, 0]
            ),
            9
        );
    }

    #[test]
    fn fma_is_fused_not_separate() {
        // mul_add differs from a*b+c in the last ulp for some inputs; verify
        // we use the fused form.
        let a = 3.0f64;
        let b = 1.0f64 / 3.0;
        let fused = a.mul_add(b, -1.0);
        let unfused = a * b - 1.0;
        assert_ne!(fused, unfused, "pick inputs where fusion matters");
        let r = Reg(0);
        let got = f64::from_bits(eval_compute(
            &Instruction::Fma {
                dst: r,
                a: r,
                b: r,
                c: r,
            },
            [a.to_bits(), b.to_bits(), (-1.0f64).to_bits()],
        ));
        assert_eq!(got, fused);
    }

    #[test]
    fn divide_by_zero_raises() {
        let r = Reg(0);
        let div = Instruction::Alu {
            op: AluOp::Div,
            dst: r,
            lhs: r,
            rhs: r,
        };
        assert_eq!(
            compute_exception(&div, [5, 0, 0]),
            Some(ExceptionKind::DivideByZero)
        );
        assert_eq!(compute_exception(&div, [5, 2, 0]), None);
        let remi = Instruction::Alui {
            op: AluOp::Rem,
            dst: r,
            src: r,
            imm: 0,
        };
        assert_eq!(
            compute_exception(&remi, [5, 0, 0]),
            Some(ExceptionKind::DivideByZero)
        );
    }

    #[test]
    fn fp_invalid_raises_only_on_fresh_nan() {
        let r = Reg(0);
        let sub = Instruction::Fpu {
            op: FpOp::Sub,
            dst: r,
            lhs: r,
            rhs: r,
        };
        let inf = f64::INFINITY.to_bits();
        assert_eq!(
            compute_exception(&sub, [inf, inf, 0]),
            Some(ExceptionKind::FpInvalid)
        );
        // NaN in, NaN out: not a fresh exception
        let nan = f64::NAN.to_bits();
        assert_eq!(compute_exception(&sub, [nan, inf, 0]), None);
        // ordinary arithmetic: no exception
        assert_eq!(
            compute_exception(&sub, [1.0f64.to_bits(), 2.0f64.to_bits(), 0]),
            None
        );
    }

    #[test]
    fn decoded_exception_agrees_with_enum_path() {
        let r = Reg(0);
        let cases = [
            (
                Instruction::Alu {
                    op: AluOp::Div,
                    dst: r,
                    lhs: r,
                    rhs: r,
                },
                [5, 0, 0],
            ),
            (
                Instruction::Alui {
                    op: AluOp::Rem,
                    dst: r,
                    src: r,
                    imm: 0,
                },
                [5, 0, 0],
            ),
            (
                Instruction::Fpu {
                    op: FpOp::Sub,
                    dst: r,
                    lhs: r,
                    rhs: r,
                },
                [f64::INFINITY.to_bits(), f64::INFINITY.to_bits(), 0],
            ),
            (
                Instruction::Fpu {
                    op: FpOp::Sub,
                    dst: r,
                    lhs: r,
                    rhs: r,
                },
                [f64::NAN.to_bits(), f64::INFINITY.to_bits(), 0],
            ),
            (Instruction::Li { dst: r, imm: 3 }, [0, 0, 0]),
        ];
        for (inst, srcs) in cases {
            let decoded = DecodedInst::from_inst(&inst);
            assert_eq!(
                decoded_exception(&decoded, srcs),
                compute_exception(&inst, srcs),
                "{inst:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-compute")]
    fn eval_rejects_memory_instructions() {
        eval_compute(
            &Instruction::Load {
                dst: Reg(0),
                base: Reg(1),
                offset: 0,
            },
            [0; 3],
        );
    }
}
