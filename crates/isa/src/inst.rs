//! Instruction definitions: opcodes, operand accessors, and energy
//! categories.
//!
//! Each op enum (`AluOp`, `FpOp`, `FpUnOp`, `BranchCond`, `CvtKind`) is
//! `#[repr(u8)]` and has one descriptor table, whose row `i` describes the
//! variant with discriminant `i`. That discriminant is the op's sub-op byte
//! in binary images, and the row's mnemonic is its assembly name, so the
//! listing, the assembler, the binary codec, `ALL` and `category()` all read
//! the same table (see [`SubOp`]).

use std::fmt;

use crate::program::SliceId;
use crate::Reg;

/// Maximum number of register source operands of any instruction.
///
/// Reached only by [`Instruction::Fma`]; the paper's §3.4 storage analysis
/// (`max#rename = max#src + max#dest`) depends on this bound.
pub const MAX_SRC_OPERANDS: usize = 3;

/// Maximum number of register destination operands of any instruction.
pub const MAX_DEST_OPERANDS: usize = 1;

/// One row of an op enum's descriptor table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDesc<T> {
    /// The variant this row describes.
    pub op: T,
    /// Its assembly mnemonic, unique across the whole instruction set.
    pub mnemonic: &'static str,
    /// The energy category of an instruction carrying this op.
    pub category: Category,
}

const fn row<T>(op: T, mnemonic: &'static str, category: Category) -> OpDesc<T> {
    OpDesc {
        op,
        mnemonic,
        category,
    }
}

/// An op enum described by a descriptor table: the sub-operation of an
/// `Alu`/`Alui`, `Fpu`, `FpuUn`, `Branch` or `Cvt` instruction.
pub trait SubOp: Copy + 'static {
    /// The descriptor table; row `i` describes discriminant `i`.
    const TABLE: &'static [OpDesc<Self>];

    /// The discriminant, which is also the sub-op byte of binary images.
    fn code(self) -> u8;

    /// The variant whose sub-op byte is `byte`, if any.
    fn from_code(byte: u8) -> Option<Self> {
        Self::TABLE.get(usize::from(byte)).map(|row| row.op)
    }

    /// The variant whose mnemonic is `mnemonic`, if any.
    fn from_mnemonic(mnemonic: &str) -> Option<Self> {
        Self::TABLE
            .iter()
            .find(|row| row.mnemonic == mnemonic)
            .map(|row| row.op)
    }

    /// This variant's descriptor row.
    fn desc(self) -> &'static OpDesc<Self> {
        &Self::TABLE[usize::from(self.code())]
    }

    /// The assembly mnemonic.
    fn mnemonic(self) -> &'static str {
        self.desc().mnemonic
    }

    /// The energy category of an instruction carrying this op.
    fn category(self) -> Category {
        self.desc().category
    }
}

/// Wires an op enum to its descriptor table: implements [`SubOp`] and
/// `Display`, derives `ALL`, and proves at compile time that row `i`
/// describes discriminant `i`.
macro_rules! sub_op {
    ($ty:ident, $table:ident) => {
        impl SubOp for $ty {
            const TABLE: &'static [OpDesc<Self>] = &$table;
            fn code(self) -> u8 {
                self as u8
            }
        }

        impl $ty {
            /// Every variant, in sub-op byte order.
            pub const ALL: [$ty; $table.len()] = {
                let mut all = [$table[0].op; $table.len()];
                let mut i = 0;
                while i < all.len() {
                    assert!($table[i].op as usize == i, "rows follow discriminants");
                    all[i] = $table[i].op;
                    i += 1;
                }
                all
            };
        }

        // a free constant is evaluated even when nothing reads `ALL`
        const _: [$ty; $table.len()] = $ty::ALL;

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.mnemonic())
            }
        }
    };
}

/// Integer ALU operations (two register sources or register + immediate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; division by zero yields all-ones (and records an exception
    /// under amnesic execution, see the paper's §2.3).
    Div,
    /// Remainder; remainder by zero yields the dividend.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right (shift amount taken modulo 64).
    Shr,
    /// Set-if-less-than, signed comparison; result is 0 or 1.
    Slt,
    /// Set-if-less-than, unsigned comparison; result is 0 or 1.
    Sltu,
    /// Set-if-equal; result is 0 or 1.
    Seq,
    /// Unsigned minimum.
    Min,
    /// Unsigned maximum.
    Max,
}

const ALU_OPS: [OpDesc<AluOp>; 15] = [
    row(AluOp::Add, "add", Category::IntAlu),
    row(AluOp::Sub, "sub", Category::IntAlu),
    row(AluOp::Mul, "mul", Category::IntMul),
    row(AluOp::Div, "div", Category::IntDiv),
    row(AluOp::Rem, "rem", Category::IntDiv),
    row(AluOp::And, "and", Category::IntAlu),
    row(AluOp::Or, "or", Category::IntAlu),
    row(AluOp::Xor, "xor", Category::IntAlu),
    row(AluOp::Shl, "shl", Category::IntAlu),
    row(AluOp::Shr, "shr", Category::IntAlu),
    row(AluOp::Slt, "slt", Category::IntAlu),
    row(AluOp::Sltu, "sltu", Category::IntAlu),
    row(AluOp::Seq, "seq", Category::IntAlu),
    row(AluOp::Min, "min", Category::IntAlu),
    row(AluOp::Max, "max", Category::IntAlu),
];
sub_op!(AluOp, ALU_OPS);

impl AluOp {
    /// Applies the operation to two 64-bit operands.
    pub fn apply(self, lhs: u64, rhs: u64) -> u64 {
        match self {
            AluOp::Add => lhs.wrapping_add(rhs),
            AluOp::Sub => lhs.wrapping_sub(rhs),
            AluOp::Mul => lhs.wrapping_mul(rhs),
            AluOp::Div => {
                if rhs == 0 {
                    u64::MAX
                } else {
                    lhs.wrapping_div(rhs)
                }
            }
            AluOp::Rem => {
                if rhs == 0 {
                    lhs
                } else {
                    lhs.wrapping_rem(rhs)
                }
            }
            AluOp::And => lhs & rhs,
            AluOp::Or => lhs | rhs,
            AluOp::Xor => lhs ^ rhs,
            AluOp::Shl => lhs.wrapping_shl((rhs % 64) as u32),
            AluOp::Shr => lhs.wrapping_shr((rhs % 64) as u32),
            AluOp::Slt => ((lhs as i64) < (rhs as i64)) as u64,
            AluOp::Sltu => (lhs < rhs) as u64,
            AluOp::Seq => (lhs == rhs) as u64,
            AluOp::Min => lhs.min(rhs),
            AluOp::Max => lhs.max(rhs),
        }
    }
}

/// Binary floating-point operations on `f64` bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FpOp {
    /// IEEE-754 addition.
    Add,
    /// IEEE-754 subtraction.
    Sub,
    /// IEEE-754 multiplication.
    Mul,
    /// IEEE-754 division.
    Div,
    /// Minimum (propagating the first operand on NaN).
    Min,
    /// Maximum (propagating the first operand on NaN).
    Max,
    /// Set-if-less-than; result is integer 0 or 1.
    Flt,
}

const FP_OPS: [OpDesc<FpOp>; 7] = [
    row(FpOp::Add, "fadd", Category::FpAdd),
    row(FpOp::Sub, "fsub", Category::FpAdd),
    row(FpOp::Mul, "fmul", Category::FpMul),
    row(FpOp::Div, "fdiv", Category::FpDiv),
    row(FpOp::Min, "fmin", Category::FpAdd),
    row(FpOp::Max, "fmax", Category::FpAdd),
    row(FpOp::Flt, "flt", Category::FpAdd),
];
sub_op!(FpOp, FP_OPS);

impl FpOp {
    /// Applies the operation to two operands interpreted as `f64`.
    pub fn apply(self, lhs: u64, rhs: u64) -> u64 {
        let a = f64::from_bits(lhs);
        let b = f64::from_bits(rhs);
        match self {
            FpOp::Add => (a + b).to_bits(),
            FpOp::Sub => (a - b).to_bits(),
            FpOp::Mul => (a * b).to_bits(),
            FpOp::Div => (a / b).to_bits(),
            FpOp::Min => {
                if a.is_nan() || a <= b {
                    lhs
                } else {
                    rhs
                }
            }
            FpOp::Max => {
                if a.is_nan() || a >= b {
                    lhs
                } else {
                    rhs
                }
            }
            FpOp::Flt => (a < b) as u64,
        }
    }
}

/// Unary floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FpUnOp {
    /// Square root.
    Sqrt,
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
}

/// The transcendental and root operations are modelled at FP-divide cost.
const FP_UN_OPS: [OpDesc<FpUnOp>; 5] = [
    row(FpUnOp::Sqrt, "fsqrt", Category::FpDiv),
    row(FpUnOp::Neg, "fneg", Category::FpAdd),
    row(FpUnOp::Abs, "fabs", Category::FpAdd),
    row(FpUnOp::Exp, "fexp", Category::FpDiv),
    row(FpUnOp::Ln, "fln", Category::FpDiv),
];
sub_op!(FpUnOp, FP_UN_OPS);

impl FpUnOp {
    /// Applies the operation to an operand interpreted as `f64`.
    pub fn apply(self, src: u64) -> u64 {
        let x = f64::from_bits(src);
        match self {
            FpUnOp::Sqrt => x.sqrt().to_bits(),
            FpUnOp::Neg => (-x).to_bits(),
            FpUnOp::Abs => x.abs().to_bits(),
            FpUnOp::Exp => x.exp().to_bits(),
            FpUnOp::Ln => x.ln().to_bits(),
        }
    }
}

/// Conversions between the integer and floating-point views of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CvtKind {
    /// Signed integer → `f64`.
    I2F,
    /// `f64` → signed integer (saturating, NaN → 0).
    F2I,
}

const CVT_KINDS: [OpDesc<CvtKind>; 2] = [
    row(CvtKind::I2F, "i2f", Category::FpAdd),
    row(CvtKind::F2I, "f2i", Category::FpAdd),
];
sub_op!(CvtKind, CVT_KINDS);

impl CvtKind {
    /// Applies the conversion.
    pub fn apply(self, src: u64) -> u64 {
        match self {
            CvtKind::I2F => ((src as i64) as f64).to_bits(),
            CvtKind::F2I => {
                let x = f64::from_bits(src);
                if x.is_nan() {
                    0
                } else {
                    (x as i64) as u64
                }
            }
        }
    }
}

/// Branch conditions comparing two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BranchCond {
    /// Taken if equal.
    Eq,
    /// Taken if not equal.
    Ne,
    /// Taken if signed less-than.
    Lt,
    /// Taken if signed greater-or-equal.
    Ge,
    /// Taken if unsigned less-than.
    Ltu,
    /// Taken if unsigned greater-or-equal.
    Geu,
}

const BRANCH_CONDS: [OpDesc<BranchCond>; 6] = [
    row(BranchCond::Eq, "beq", Category::Branch),
    row(BranchCond::Ne, "bne", Category::Branch),
    row(BranchCond::Lt, "blt", Category::Branch),
    row(BranchCond::Ge, "bge", Category::Branch),
    row(BranchCond::Ltu, "bltu", Category::Branch),
    row(BranchCond::Geu, "bgeu", Category::Branch),
];
sub_op!(BranchCond, BRANCH_CONDS);

impl BranchCond {
    /// Evaluates the condition on two 64-bit operands.
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            BranchCond::Eq => lhs == rhs,
            BranchCond::Ne => lhs != rhs,
            BranchCond::Lt => (lhs as i64) < (rhs as i64),
            BranchCond::Ge => (lhs as i64) >= (rhs as i64),
            BranchCond::Ltu => lhs < rhs,
            BranchCond::Geu => lhs >= rhs,
        }
    }
}

/// Energy/accounting category of a dynamic instruction.
///
/// Categories follow the paper's evaluation: `Load`, `Store` and everything
/// else ("Non-mem", split here by functional unit so the EPI table can be
/// calibrated per category as in §3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Simple integer ALU (add/sub/logic/shift/compare) and immediates.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// FP add/sub/min/max/compare and conversions.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide, square root, transcendental.
    FpDiv,
    /// Fused multiply-add.
    Fma,
    /// Memory load (also the load half of an `RCMP` that performs the load).
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
    /// `RCMP` decision overhead (modelled as a conditional branch, §4).
    Rcmp,
    /// `RTN` overhead (modelled as a jump, §4).
    Rtn,
    /// `REC` overhead (modelled as a store to L1-D, §4).
    Rec,
}

impl Category {
    /// All categories, in a stable order (useful for report tables).
    pub const ALL: [Category; 14] = [
        Category::IntAlu,
        Category::IntMul,
        Category::IntDiv,
        Category::FpAdd,
        Category::FpMul,
        Category::FpDiv,
        Category::Fma,
        Category::Load,
        Category::Store,
        Category::Branch,
        Category::Jump,
        Category::Rcmp,
        Category::Rtn,
        Category::Rec,
    ];

    /// Returns `true` for the categories that access data memory under
    /// classic execution (`Load`, `Store`).
    pub fn is_memory(self) -> bool {
        matches!(self, Category::Load | Category::Store)
    }

    /// Returns `true` for the "Non-mem" bucket of the paper's Table 4:
    /// everything that is neither a load nor a store. The amnesic control
    /// instructions count as non-memory overhead.
    pub fn is_non_mem(self) -> bool {
        !self.is_memory()
    }
}

/// A single machine instruction.
///
/// The `target` of control-flow instructions is an absolute instruction
/// index into [`crate::Program::instructions`]. Operand field names follow
/// the RISC convention (`dst`, `lhs`, `rhs`, `src`, `base`, `offset`,
/// `imm`) and are documented once here rather than per variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand fields use the conventional names above
pub enum Instruction {
    /// Load a 64-bit immediate into `dst`.
    Li { dst: Reg, imm: u64 },
    /// Register-register integer ALU operation.
    Alu {
        op: AluOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// Register-immediate integer ALU operation.
    Alui {
        op: AluOp,
        dst: Reg,
        src: Reg,
        imm: u64,
    },
    /// Register-register binary FP operation.
    Fpu {
        op: FpOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// Unary FP operation.
    FpuUn { op: FpUnOp, dst: Reg, src: Reg },
    /// Fused multiply-add: `dst = a * b + c` in `f64`.
    Fma { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// Int/FP conversion.
    Cvt { kind: CvtKind, dst: Reg, src: Reg },
    /// Load `dst ← mem[reg(base) + offset]` (word addressed).
    Load { dst: Reg, base: Reg, offset: i64 },
    /// Store `mem[reg(base) + offset] ← src` (word addressed).
    Store { src: Reg, base: Reg, offset: i64 },
    /// Conditional branch to `target`.
    Branch {
        cond: BranchCond,
        lhs: Reg,
        rhs: Reg,
        target: usize,
    },
    /// Unconditional jump to `target`.
    Jump { target: usize },
    /// Stop execution.
    Halt,
    /// Amnesic: fused branch+load. Either loads `dst ← mem[base + offset]`
    /// or branches to the entry of slice `slice`, per the runtime policy.
    Rcmp {
        dst: Reg,
        base: Reg,
        offset: i64,
        slice: SliceId,
    },
    /// Amnesic: end of a slice body; control returns after the `RCMP`.
    Rtn { slice: SliceId },
    /// Amnesic: checkpoint the current values of `srcs` into the `Hist`
    /// entry for leaf address `key` (§3.1.2; shared by every slice whose
    /// replica leaf has this origin).
    Rec {
        key: u16,
        srcs: [Option<Reg>; MAX_SRC_OPERANDS],
    },
}

impl Instruction {
    /// The energy/accounting category of this instruction.
    pub fn category(&self) -> Category {
        match self {
            Instruction::Li { .. } => Category::IntAlu,
            Instruction::Alu { op, .. } | Instruction::Alui { op, .. } => op.category(),
            Instruction::Fpu { op, .. } => op.category(),
            Instruction::FpuUn { op, .. } => op.category(),
            Instruction::Fma { .. } => Category::Fma,
            Instruction::Cvt { kind, .. } => kind.category(),
            Instruction::Load { .. } => Category::Load,
            Instruction::Store { .. } => Category::Store,
            Instruction::Branch { cond, .. } => cond.category(),
            Instruction::Jump { .. } => Category::Jump,
            Instruction::Halt => Category::Jump,
            Instruction::Rcmp { .. } => Category::Rcmp,
            Instruction::Rtn { .. } => Category::Rtn,
            Instruction::Rec { .. } => Category::Rec,
        }
    }

    /// Register source operands, in a stable order, padded with `None`.
    pub fn srcs(&self) -> [Option<Reg>; MAX_SRC_OPERANDS] {
        match *self {
            Instruction::Li { .. } | Instruction::Jump { .. } | Instruction::Halt => {
                [None, None, None]
            }
            Instruction::Alu { lhs, rhs, .. } | Instruction::Fpu { lhs, rhs, .. } => {
                [Some(lhs), Some(rhs), None]
            }
            Instruction::Alui { src, .. }
            | Instruction::FpuUn { src, .. }
            | Instruction::Cvt { src, .. } => [Some(src), None, None],
            Instruction::Fma { a, b, c, .. } => [Some(a), Some(b), Some(c)],
            Instruction::Load { base, .. } => [Some(base), None, None],
            Instruction::Store { src, base, .. } => [Some(src), Some(base), None],
            Instruction::Branch { lhs, rhs, .. } => [Some(lhs), Some(rhs), None],
            Instruction::Rcmp { base, .. } => [Some(base), None, None],
            Instruction::Rtn { .. } => [None, None, None],
            Instruction::Rec { srcs, .. } => srcs,
        }
    }

    /// Register destination operand, if any.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Instruction::Li { dst, .. }
            | Instruction::Alu { dst, .. }
            | Instruction::Alui { dst, .. }
            | Instruction::Fpu { dst, .. }
            | Instruction::FpuUn { dst, .. }
            | Instruction::Fma { dst, .. }
            | Instruction::Cvt { dst, .. }
            | Instruction::Load { dst, .. }
            | Instruction::Rcmp { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Returns `true` for instructions legal inside a recomputation slice
    /// body: pure register-to-register computation (§3.1.1 forbids memory
    /// and control flow inside slices; `RTN` terminates a slice).
    pub fn is_slice_compute(&self) -> bool {
        matches!(
            self,
            Instruction::Li { .. }
                | Instruction::Alu { .. }
                | Instruction::Alui { .. }
                | Instruction::Fpu { .. }
                | Instruction::FpuUn { .. }
                | Instruction::Fma { .. }
                | Instruction::Cvt { .. }
        )
    }

    /// Returns `true` for the amnesic-extension instructions.
    pub fn is_amnesic(&self) -> bool {
        matches!(
            self,
            Instruction::Rcmp { .. } | Instruction::Rtn { .. } | Instruction::Rec { .. }
        )
    }

    /// Returns `true` if this instruction may redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. }
                | Instruction::Jump { .. }
                | Instruction::Halt
                | Instruction::Rcmp { .. }
                | Instruction::Rtn { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Mul.apply(3, 7), 21);
        assert_eq!(AluOp::Div.apply(21, 7), 3);
        assert_eq!(AluOp::Div.apply(21, 0), u64::MAX);
        assert_eq!(AluOp::Rem.apply(22, 7), 1);
        assert_eq!(AluOp::Rem.apply(22, 0), 22);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.apply(1, 65), 2, "shift amount wraps mod 64");
        assert_eq!(AluOp::Shr.apply(4, 1), 2);
        assert_eq!(AluOp::Slt.apply(u64::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::Sltu.apply(u64::MAX, 0), 0);
        assert_eq!(AluOp::Seq.apply(5, 5), 1);
        assert_eq!(AluOp::Min.apply(3, 9), 3);
        assert_eq!(AluOp::Max.apply(3, 9), 9);
    }

    #[test]
    fn fp_semantics() {
        let a = 2.5f64.to_bits();
        let b = 1.5f64.to_bits();
        assert_eq!(f64::from_bits(FpOp::Add.apply(a, b)), 4.0);
        assert_eq!(f64::from_bits(FpOp::Sub.apply(a, b)), 1.0);
        assert_eq!(f64::from_bits(FpOp::Mul.apply(a, b)), 3.75);
        assert_eq!(f64::from_bits(FpOp::Div.apply(a, b)), 2.5 / 1.5);
        assert_eq!(FpOp::Min.apply(a, b), b);
        assert_eq!(FpOp::Max.apply(a, b), a);
        assert_eq!(FpOp::Flt.apply(b, a), 1);
        assert_eq!(FpOp::Flt.apply(a, b), 0);
    }

    #[test]
    fn fp_unary_semantics() {
        let x = 4.0f64.to_bits();
        assert_eq!(f64::from_bits(FpUnOp::Sqrt.apply(x)), 2.0);
        assert_eq!(f64::from_bits(FpUnOp::Neg.apply(x)), -4.0);
        assert_eq!(f64::from_bits(FpUnOp::Abs.apply((-4.0f64).to_bits())), 4.0);
        assert!((f64::from_bits(FpUnOp::Exp.apply(0f64.to_bits())) - 1.0).abs() < 1e-12);
        assert!((f64::from_bits(FpUnOp::Ln.apply(1f64.to_bits()))).abs() < 1e-12);
    }

    #[test]
    fn cvt_semantics() {
        assert_eq!(f64::from_bits(CvtKind::I2F.apply(5)), 5.0);
        assert_eq!(CvtKind::F2I.apply(5.9f64.to_bits()), 5);
        assert_eq!(CvtKind::F2I.apply(f64::NAN.to_bits()), 0);
        assert_eq!(CvtKind::F2I.apply((-2.5f64).to_bits()) as i64, -2);
    }

    #[test]
    fn branch_cond_semantics() {
        assert!(BranchCond::Eq.eval(4, 4));
        assert!(BranchCond::Ne.eval(4, 5));
        assert!(BranchCond::Lt.eval(u64::MAX, 0), "signed -1 < 0");
        assert!(BranchCond::Ge.eval(0, u64::MAX));
        assert!(BranchCond::Ltu.eval(0, u64::MAX));
        assert!(BranchCond::Geu.eval(u64::MAX, 0));
    }

    #[test]
    fn categories() {
        assert_eq!(AluOp::Add.category(), Category::IntAlu);
        assert_eq!(AluOp::Mul.category(), Category::IntMul);
        assert_eq!(AluOp::Div.category(), Category::IntDiv);
        assert_eq!(FpOp::Mul.category(), Category::FpMul);
        assert_eq!(FpOp::Div.category(), Category::FpDiv);
        assert_eq!(FpUnOp::Sqrt.category(), Category::FpDiv);
        assert_eq!(FpUnOp::Neg.category(), Category::FpAdd);
        assert_eq!(CvtKind::F2I.category(), Category::FpAdd);
        assert_eq!(BranchCond::Geu.category(), Category::Branch);
        assert!(Category::Load.is_memory());
        assert!(Category::Store.is_memory());
        assert!(Category::Fma.is_non_mem());
        assert!(Category::Rec.is_non_mem());
    }

    #[test]
    fn operand_accessors() {
        let i = Instruction::Fma {
            dst: Reg(1),
            a: Reg(2),
            b: Reg(3),
            c: Reg(4),
        };
        assert_eq!(i.srcs(), [Some(Reg(2)), Some(Reg(3)), Some(Reg(4))]);
        assert_eq!(i.dst(), Some(Reg(1)));
        assert!(i.is_slice_compute());
        assert!(!i.is_control());

        let s = Instruction::Store {
            src: Reg(5),
            base: Reg(6),
            offset: -1,
        };
        assert_eq!(s.srcs(), [Some(Reg(5)), Some(Reg(6)), None]);
        assert_eq!(s.dst(), None);
        assert!(!s.is_slice_compute());

        let r = Instruction::Rcmp {
            dst: Reg(1),
            base: Reg(2),
            offset: 0,
            slice: SliceId(0),
        };
        assert!(r.is_amnesic());
        assert!(r.is_control());
        assert_eq!(r.dst(), Some(Reg(1)));
    }

    #[test]
    fn max_operand_bounds_hold_for_every_shape() {
        // The §3.4 analysis depends on max#src = 3, max#dest = 1. Spot-check
        // representative instructions of every variant.
        let insts = vec![
            Instruction::Li {
                dst: Reg(0),
                imm: 1,
            },
            Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(0),
                lhs: Reg(1),
                rhs: Reg(2),
            },
            Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(0),
                src: Reg(1),
                imm: 2,
            },
            Instruction::Fpu {
                op: FpOp::Add,
                dst: Reg(0),
                lhs: Reg(1),
                rhs: Reg(2),
            },
            Instruction::FpuUn {
                op: FpUnOp::Sqrt,
                dst: Reg(0),
                src: Reg(1),
            },
            Instruction::Fma {
                dst: Reg(0),
                a: Reg(1),
                b: Reg(2),
                c: Reg(3),
            },
            Instruction::Cvt {
                kind: CvtKind::I2F,
                dst: Reg(0),
                src: Reg(1),
            },
            Instruction::Load {
                dst: Reg(0),
                base: Reg(1),
                offset: 0,
            },
            Instruction::Store {
                src: Reg(0),
                base: Reg(1),
                offset: 0,
            },
            Instruction::Branch {
                cond: BranchCond::Eq,
                lhs: Reg(0),
                rhs: Reg(1),
                target: 0,
            },
            Instruction::Jump { target: 0 },
            Instruction::Halt,
            Instruction::Rcmp {
                dst: Reg(0),
                base: Reg(1),
                offset: 0,
                slice: SliceId(0),
            },
            Instruction::Rtn { slice: SliceId(0) },
            Instruction::Rec {
                key: 0,
                srcs: [Some(Reg(1)), None, None],
            },
        ];
        for i in &insts {
            let n_src = i.srcs().iter().filter(|s| s.is_some()).count();
            assert!(n_src <= MAX_SRC_OPERANDS, "{i:?}");
            let n_dst = usize::from(i.dst().is_some());
            assert!(n_dst <= MAX_DEST_OPERANDS, "{i:?}");
        }
    }
}
