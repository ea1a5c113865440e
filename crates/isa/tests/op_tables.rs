//! Exhaustive checks of the op descriptor tables: every variant of every
//! op enum survives both codecs inside each instruction that carries it,
//! every mnemonic names exactly one instruction, and every sub-op byte
//! outside a table is refused with the offset of that byte.

use std::collections::BTreeSet;

use amnesiac_isa::{
    decode_program, encode_program, parse_asm, to_asm, AluOp, BranchCond, CvtKind, DecodeError,
    FpOp, FpUnOp, Instruction, Program, Reg, SubOp,
};

/// Byte offset of the first instruction's opcode in a program's image:
/// magic, version, name, entry, code_len, n_instructions.
fn first_opcode(p: &Program) -> usize {
    4 + 2 + 2 + p.name.len() + 4 + 4 + 4
}

/// `instructions` followed by `halt`, as a classic program.
fn program(instructions: &[Instruction]) -> Program {
    let mut p = Program::new("ops");
    p.instructions = instructions.to_vec();
    p.instructions.push(Instruction::Halt);
    p.code_len = p.instructions.len();
    p
}

fn alu(op: AluOp) -> Instruction {
    Instruction::Alu {
        op,
        dst: Reg(1),
        lhs: Reg(2),
        rhs: Reg(3),
    }
}

fn alui(op: AluOp) -> Instruction {
    Instruction::Alui {
        op,
        dst: Reg(1),
        src: Reg(2),
        imm: 0x1234,
    }
}

fn fpu(op: FpOp) -> Instruction {
    Instruction::Fpu {
        op,
        dst: Reg(4),
        lhs: Reg(5),
        rhs: Reg(6),
    }
}

fn fpu_un(op: FpUnOp) -> Instruction {
    Instruction::FpuUn {
        op,
        dst: Reg(7),
        src: Reg(8),
    }
}

fn cvt(kind: CvtKind) -> Instruction {
    Instruction::Cvt {
        kind,
        dst: Reg(9),
        src: Reg(10),
    }
}

fn branch(cond: BranchCond) -> Instruction {
    Instruction::Branch {
        cond,
        lhs: Reg(11),
        rhs: Reg(12),
        target: 0,
    }
}

/// One instruction per variant of every op enum, in every form carrying it.
fn every_op() -> Vec<Instruction> {
    let mut insts = Vec::new();
    insts.extend(AluOp::ALL.map(alu));
    insts.extend(AluOp::ALL.map(alui));
    insts.extend(FpOp::ALL.map(fpu));
    insts.extend(FpUnOp::ALL.map(fpu_un));
    insts.extend(CvtKind::ALL.map(cvt));
    insts.extend(BranchCond::ALL.map(branch));
    insts
}

#[test]
fn every_variant_round_trips_through_asm_and_binary() {
    let p = program(&every_op());
    assert_eq!(p.instructions.len(), 2 * 15 + 7 + 5 + 2 + 6 + 1);
    assert_eq!(parse_asm(&to_asm(&p)).expect("parses"), p);
    assert_eq!(decode_program(&encode_program(&p)).expect("decodes"), p);
}

#[test]
fn every_mnemonic_names_one_instruction() {
    let fixed = ["li", "ld", "st", "fma", "j", "halt", "rcmp", "rtn", "rec"];
    let mut mnemonics: Vec<String> = fixed.iter().map(|m| m.to_string()).collect();
    mnemonics.extend(AluOp::ALL.iter().map(|op| op.mnemonic().to_string()));
    mnemonics.extend(AluOp::ALL.iter().map(|op| format!("{op}i")));
    mnemonics.extend(FpOp::ALL.iter().map(|op| op.mnemonic().to_string()));
    mnemonics.extend(FpUnOp::ALL.iter().map(|op| op.mnemonic().to_string()));
    mnemonics.extend(CvtKind::ALL.iter().map(|kind| kind.mnemonic().to_string()));
    mnemonics.extend(
        BranchCond::ALL
            .iter()
            .map(|cond| cond.mnemonic().to_string()),
    );
    let mut seen = BTreeSet::new();
    for m in &mnemonics {
        assert!(seen.insert(m), "`{m}` names two instructions");
    }
    assert_eq!(seen.len(), 9 + 2 * 15 + 7 + 5 + 2 + 6);
}

#[test]
fn every_sub_op_byte_outside_a_table_is_refused() {
    // one carrier per op enum (Alu and Alui share AluOp's table); the
    // sub-op byte follows the opcode
    let carriers = [
        (alu(AluOp::Add), AluOp::TABLE.len()),
        (alui(AluOp::Add), AluOp::TABLE.len()),
        (fpu(FpOp::Add), FpOp::TABLE.len()),
        (fpu_un(FpUnOp::Sqrt), FpUnOp::TABLE.len()),
        (cvt(CvtKind::I2F), CvtKind::TABLE.len()),
        (branch(BranchCond::Eq), BranchCond::TABLE.len()),
    ];
    for (inst, used) in carriers {
        let p = program(std::slice::from_ref(&inst));
        let image = encode_program(&p);
        let at = first_opcode(&p) + 1;
        for byte in 0..=u8::MAX {
            let mut bytes = image.clone();
            bytes[at] = byte;
            let decoded = decode_program(&bytes);
            if usize::from(byte) < used {
                // a used byte decodes to the variant that encodes back to it
                let q = decoded.unwrap_or_else(|e| panic!("{inst} byte {byte}: {e}"));
                assert_eq!(encode_program(&q), bytes, "{inst} byte {byte}");
            } else {
                assert_eq!(
                    decoded,
                    Err(DecodeError::BadOpcode { at, byte }),
                    "{inst} byte {byte}"
                );
            }
        }
    }
}
