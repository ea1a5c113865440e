//! Exception semantics of compute instructions, which the amnesic core
//! checks during slice traversal. Their values come from
//! [`DecodedInst::eval_compute`], the one definition every engine runs.

use amnesiac_isa::{AluOp, DecodedInst, DecodedOp};

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

/// Checks whether executing `inst` on the source operand values `srcs`
/// (in [`DecodedInst::srcs`] order) raises an exception.
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
    use amnesiac_isa::{CvtKind, FpOp, FpUnOp, Instruction, Reg};

    fn decode(inst: Instruction) -> DecodedInst {
        DecodedInst::from_inst(&inst)
    }

    #[test]
    fn eval_covers_all_compute_shapes() {
        let r = Reg(0);
        assert_eq!(
            decode(Instruction::Li { dst: r, imm: 7 }).eval_compute([0; 3]),
            7
        );
        assert_eq!(
            decode(Instruction::Alu {
                op: AluOp::Add,
                dst: r,
                lhs: r,
                rhs: r
            })
            .eval_compute([2, 3, 0]),
            5
        );
        assert_eq!(
            decode(Instruction::Alui {
                op: AluOp::Mul,
                dst: r,
                src: r,
                imm: 10
            })
            .eval_compute([4, 0, 0]),
            40
        );
        let x = 1.5f64.to_bits();
        let fadd = decode(Instruction::Fpu {
            op: FpOp::Add,
            dst: r,
            lhs: r,
            rhs: r,
        });
        assert_eq!(f64::from_bits(fadd.eval_compute([x, x, 0])), 3.0);
        let fsqrt = decode(Instruction::FpuUn {
            op: FpUnOp::Sqrt,
            dst: r,
            src: r,
        });
        assert_eq!(
            f64::from_bits(fsqrt.eval_compute([4.0f64.to_bits(), 0, 0])),
            2.0
        );
        let fma = decode(Instruction::Fma {
            dst: r,
            a: r,
            b: r,
            c: r,
        });
        let abc = [2.0f64.to_bits(), 3.0f64.to_bits(), 1.0f64.to_bits()];
        assert_eq!(f64::from_bits(fma.eval_compute(abc)), 7.0);
        let f2i = decode(Instruction::Cvt {
            kind: CvtKind::F2I,
            dst: r,
            src: r,
        });
        assert_eq!(f2i.eval_compute([9.75f64.to_bits(), 0, 0]), 9);
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
        let fma = decode(Instruction::Fma {
            dst: r,
            a: r,
            b: r,
            c: r,
        });
        let got = f64::from_bits(fma.eval_compute([a.to_bits(), b.to_bits(), (-1.0f64).to_bits()]));
        assert_eq!(got, fused);
    }

    #[test]
    fn divide_by_zero_raises() {
        let r = Reg(0);
        let div = decode(Instruction::Alu {
            op: AluOp::Div,
            dst: r,
            lhs: r,
            rhs: r,
        });
        assert_eq!(
            decoded_exception(&div, [5, 0, 0]),
            Some(ExceptionKind::DivideByZero)
        );
        assert_eq!(decoded_exception(&div, [5, 2, 0]), None);
        let remi = decode(Instruction::Alui {
            op: AluOp::Rem,
            dst: r,
            src: r,
            imm: 0,
        });
        assert_eq!(
            decoded_exception(&remi, [5, 0, 0]),
            Some(ExceptionKind::DivideByZero)
        );
        // an immediate move never raises, whatever the operand slots hold
        let li = decode(Instruction::Li { dst: r, imm: 3 });
        assert_eq!(decoded_exception(&li, [0, 0, 0]), None);
    }

    #[test]
    fn fp_invalid_raises_only_on_fresh_nan() {
        let r = Reg(0);
        let sub = decode(Instruction::Fpu {
            op: FpOp::Sub,
            dst: r,
            lhs: r,
            rhs: r,
        });
        let inf = f64::INFINITY.to_bits();
        assert_eq!(
            decoded_exception(&sub, [inf, inf, 0]),
            Some(ExceptionKind::FpInvalid)
        );
        // NaN in, NaN out: not a fresh exception
        let nan = f64::NAN.to_bits();
        assert_eq!(decoded_exception(&sub, [nan, inf, 0]), None);
        // ordinary arithmetic: no exception
        assert_eq!(
            decoded_exception(&sub, [1.0f64.to_bits(), 2.0f64.to_bits(), 0]),
            None
        );
    }
}
