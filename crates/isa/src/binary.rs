//! A binary image format for programs — including *annotated* binaries
//! with their embedded slices and operand plans, which the textual
//! assembly format deliberately excludes. [`encode_program`] and
//! [`decode_program`] round-trip exactly.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "AMNC" | version u16 | name len u16 + bytes
//! entry u32 | code_len u32
//! n_instructions u32 | encoded instructions (variable length)
//! n_data u32 | (addr u64, value u64)*
//! n_output u32 | (start u64, len u64)*
//! n_readonly u32 | (start u64, len u64)*
//! n_slices u32 | slice records
//! ```

use crate::inst::{Instruction, SubOp};
use crate::program::{LeafInfo, MemRange, OperandPlan, OperandSource, Program, SliceId, SliceMeta};
use crate::Reg;

/// Image magic bytes.
pub const MAGIC: &[u8; 4] = b"AMNC";
/// Image format version.
pub const VERSION: u16 = 1;

/// Errors from [`decode_program`].
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The image does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The image ended mid-field.
    Truncated {
        /// Byte offset where more data was expected.
        at: usize,
    },
    /// An opcode or sub-opcode byte is invalid.
    BadOpcode {
        /// Byte offset of the offending byte.
        at: usize,
        /// The byte found.
        byte: u8,
    },
    /// The decoded program failed structural validation.
    Invalid(crate::IsaError),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an AMNC image"),
            DecodeError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            DecodeError::Truncated { at } => write!(f, "image truncated at byte {at}"),
            DecodeError::BadOpcode { at, byte } => {
                write!(f, "invalid opcode byte {byte:#04x} at offset {at}")
            }
            DecodeError::Invalid(e) => write!(f, "decoded program is invalid: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<crate::IsaError> for DecodeError {
    fn from(e: crate::IsaError) -> Self {
        DecodeError::Invalid(e)
    }
}

struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn reg(&mut self, r: Reg) {
        self.u8(r.0);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.bytes.len() {
            return Err(DecodeError::Truncated { at: self.pos });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let at = self.pos;
        let bytes = self
            .bytes
            .get(at..)
            .and_then(<[u8]>::first_chunk)
            .ok_or(DecodeError::Truncated { at })?;
        self.pos += N;
        Ok(*bytes)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_le_bytes)
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }
    fn i64(&mut self) -> Result<i64, DecodeError> {
        self.array().map(i64::from_le_bytes)
    }
    fn reg(&mut self) -> Result<Reg, DecodeError> {
        Ok(Reg(self.u8()?))
    }
    /// A sub-op byte, looked up in its op enum's descriptor table.
    fn op<T: SubOp>(&mut self) -> Result<T, DecodeError> {
        let at = self.pos;
        let byte = self.u8()?;
        T::from_code(byte).ok_or(DecodeError::BadOpcode { at, byte })
    }
}

fn encode_instruction(w: &mut Writer, inst: &Instruction) {
    match inst {
        Instruction::Li { dst, imm } => {
            w.u8(0x01);
            w.reg(*dst);
            w.u64(*imm);
        }
        Instruction::Alu { op, dst, lhs, rhs } => {
            w.u8(0x02);
            w.u8(op.code());
            w.reg(*dst);
            w.reg(*lhs);
            w.reg(*rhs);
        }
        Instruction::Alui { op, dst, src, imm } => {
            w.u8(0x03);
            w.u8(op.code());
            w.reg(*dst);
            w.reg(*src);
            w.u64(*imm);
        }
        Instruction::Fpu { op, dst, lhs, rhs } => {
            w.u8(0x04);
            w.u8(op.code());
            w.reg(*dst);
            w.reg(*lhs);
            w.reg(*rhs);
        }
        Instruction::FpuUn { op, dst, src } => {
            w.u8(0x05);
            w.u8(op.code());
            w.reg(*dst);
            w.reg(*src);
        }
        Instruction::Fma { dst, a, b, c } => {
            w.u8(0x06);
            w.reg(*dst);
            w.reg(*a);
            w.reg(*b);
            w.reg(*c);
        }
        Instruction::Cvt { kind, dst, src } => {
            w.u8(0x07);
            w.u8(kind.code());
            w.reg(*dst);
            w.reg(*src);
        }
        Instruction::Load { dst, base, offset } => {
            w.u8(0x08);
            w.reg(*dst);
            w.reg(*base);
            w.i64(*offset);
        }
        Instruction::Store { src, base, offset } => {
            w.u8(0x09);
            w.reg(*src);
            w.reg(*base);
            w.i64(*offset);
        }
        Instruction::Branch {
            cond,
            lhs,
            rhs,
            target,
        } => {
            w.u8(0x0A);
            w.u8(cond.code());
            w.reg(*lhs);
            w.reg(*rhs);
            w.u32(*target as u32);
        }
        Instruction::Jump { target } => {
            w.u8(0x0B);
            w.u32(*target as u32);
        }
        Instruction::Halt => w.u8(0x0C),
        Instruction::Rcmp {
            dst,
            base,
            offset,
            slice,
        } => {
            w.u8(0x0D);
            w.reg(*dst);
            w.reg(*base);
            w.i64(*offset);
            w.u32(slice.0);
        }
        Instruction::Rtn { slice } => {
            w.u8(0x0E);
            w.u32(slice.0);
        }
        Instruction::Rec { key, srcs } => {
            w.u8(0x0F);
            w.u16(*key);
            let n = srcs.iter().flatten().count() as u8;
            w.u8(n);
            for r in srcs.iter().flatten() {
                w.reg(*r);
            }
        }
    }
}

fn decode_instruction(r: &mut Reader<'_>) -> Result<Instruction, DecodeError> {
    let at = r.pos;
    let opcode = r.u8()?;
    Ok(match opcode {
        0x01 => Instruction::Li {
            dst: r.reg()?,
            imm: r.u64()?,
        },
        0x02 => Instruction::Alu {
            op: r.op()?,
            dst: r.reg()?,
            lhs: r.reg()?,
            rhs: r.reg()?,
        },
        0x03 => Instruction::Alui {
            op: r.op()?,
            dst: r.reg()?,
            src: r.reg()?,
            imm: r.u64()?,
        },
        0x04 => Instruction::Fpu {
            op: r.op()?,
            dst: r.reg()?,
            lhs: r.reg()?,
            rhs: r.reg()?,
        },
        0x05 => Instruction::FpuUn {
            op: r.op()?,
            dst: r.reg()?,
            src: r.reg()?,
        },
        0x06 => Instruction::Fma {
            dst: r.reg()?,
            a: r.reg()?,
            b: r.reg()?,
            c: r.reg()?,
        },
        0x07 => Instruction::Cvt {
            kind: r.op()?,
            dst: r.reg()?,
            src: r.reg()?,
        },
        0x08 => Instruction::Load {
            dst: r.reg()?,
            base: r.reg()?,
            offset: r.i64()?,
        },
        0x09 => Instruction::Store {
            src: r.reg()?,
            base: r.reg()?,
            offset: r.i64()?,
        },
        0x0A => Instruction::Branch {
            cond: r.op()?,
            lhs: r.reg()?,
            rhs: r.reg()?,
            target: r.u32()? as usize,
        },
        0x0B => Instruction::Jump {
            target: r.u32()? as usize,
        },
        0x0C => Instruction::Halt,
        0x0D => Instruction::Rcmp {
            dst: r.reg()?,
            base: r.reg()?,
            offset: r.i64()?,
            slice: SliceId(r.u32()?),
        },
        0x0E => Instruction::Rtn {
            slice: SliceId(r.u32()?),
        },
        0x0F => {
            let key = r.u16()?;
            let at = r.pos;
            let n = r.u8()? as usize;
            if n > 3 {
                return Err(DecodeError::BadOpcode { at, byte: n as u8 });
            }
            let mut srcs = [None, None, None];
            for slot in srcs.iter_mut().take(n) {
                *slot = Some(r.reg()?);
            }
            Instruction::Rec { key, srcs }
        }
        byte => return Err(DecodeError::BadOpcode { at, byte }),
    })
}

fn encode_source(w: &mut Writer, source: &Option<OperandSource>) {
    match source {
        None => w.u8(0),
        Some(OperandSource::LiveReg) => w.u8(1),
        Some(OperandSource::Hist { key }) => {
            w.u8(2);
            w.u16(*key);
        }
        Some(OperandSource::SFile { producer }) => {
            w.u8(3);
            w.u16(*producer);
        }
    }
}

fn decode_source(r: &mut Reader<'_>) -> Result<Option<OperandSource>, DecodeError> {
    let at = r.pos;
    Ok(match r.u8()? {
        0 => None,
        1 => Some(OperandSource::LiveReg),
        2 => Some(OperandSource::Hist { key: r.u16()? }),
        3 => Some(OperandSource::SFile { producer: r.u16()? }),
        byte => return Err(DecodeError::BadOpcode { at, byte }),
    })
}

/// Encodes a program (classic or annotated) to a binary image.
pub fn encode_program(program: &Program) -> Vec<u8> {
    let mut w = Writer { bytes: Vec::new() };
    w.bytes.extend_from_slice(MAGIC);
    w.u16(VERSION);
    w.u16(program.name.len() as u16);
    w.bytes.extend_from_slice(program.name.as_bytes());
    w.u32(program.entry as u32);
    w.u32(program.code_len as u32);
    w.u32(program.instructions.len() as u32);
    for inst in &program.instructions {
        encode_instruction(&mut w, inst);
    }
    let data: Vec<(u64, u64)> = program.data.iter().collect();
    w.u32(data.len() as u32);
    for (addr, value) in data {
        w.u64(addr);
        w.u64(value);
    }
    for ranges in [&program.output, &program.read_only] {
        w.u32(ranges.len() as u32);
        for range in ranges.iter() {
            w.u64(range.start);
            w.u64(range.len);
        }
    }
    w.u32(program.slices.len() as u32);
    for meta in &program.slices {
        w.u32(meta.id.0);
        w.u32(meta.rcmp_pc as u32);
        w.u32(meta.entry as u32);
        w.u32(meta.len as u32);
        w.reg(meta.root_reg);
        w.u8(u8::from(meta.has_nonrecomputable));
        w.u64(meta.est_recompute_nj.to_bits());
        w.u64(meta.est_load_nj.to_bits());
        w.u32(meta.height);
        w.u32(meta.plans.len() as u32);
        for plan in &meta.plans {
            for source in &plan.sources {
                encode_source(&mut w, source);
            }
        }
        w.u32(meta.leaves.len() as u32);
        for leaf in &meta.leaves {
            w.u16(leaf.index);
            w.u8(u8::from(leaf.needs_hist));
            match leaf.origin_pc {
                Some(pc) => {
                    w.u8(1);
                    w.u32(pc as u32);
                }
                None => w.u8(0),
            }
        }
    }
    w.bytes
}

/// Decodes a binary image back into a validated [`Program`].
///
/// # Errors
///
/// Returns a [`DecodeError`] for malformed images or images that decode
/// into structurally invalid programs.
pub fn decode_program(bytes: &[u8]) -> Result<Program, DecodeError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let name_len = r.u16()? as usize;
    let name = String::from_utf8_lossy(r.take(name_len)?).into_owned();
    let entry = r.u32()? as usize;
    let code_len = r.u32()? as usize;
    let n_inst = r.u32()? as usize;
    let mut instructions = Vec::with_capacity(n_inst.min(1 << 20));
    for _ in 0..n_inst {
        instructions.push(decode_instruction(&mut r)?);
    }
    let mut program = Program::new(name);
    program.entry = entry;
    program.code_len = code_len;
    program.instructions = instructions;
    let n_data = r.u32()? as usize;
    for _ in 0..n_data {
        let addr = r.u64()?;
        let value = r.u64()?;
        program.data.set(addr, value);
    }
    for _ in 0..r.u32()? {
        program.output.push(MemRange::new(r.u64()?, r.u64()?));
    }
    for _ in 0..r.u32()? {
        program.read_only.push(MemRange::new(r.u64()?, r.u64()?));
    }
    let n_slices = r.u32()? as usize;
    for _ in 0..n_slices {
        let id = SliceId(r.u32()?);
        let rcmp_pc = r.u32()? as usize;
        let entry = r.u32()? as usize;
        let len = r.u32()? as usize;
        let root_reg = r.reg()?;
        let has_nonrecomputable = r.u8()? != 0;
        let est_recompute_nj = f64::from_bits(r.u64()?);
        let est_load_nj = f64::from_bits(r.u64()?);
        let height = r.u32()?;
        let n_plans = r.u32()? as usize;
        let mut plans = Vec::with_capacity(n_plans.min(1 << 16));
        for _ in 0..n_plans {
            let mut sources = [None, None, None];
            for slot in &mut sources {
                *slot = decode_source(&mut r)?;
            }
            plans.push(OperandPlan { sources });
        }
        let n_leaves = r.u32()? as usize;
        let mut leaves = Vec::with_capacity(n_leaves.min(1 << 16));
        for _ in 0..n_leaves {
            let index = r.u16()?;
            let needs_hist = r.u8()? != 0;
            let origin_pc = match r.u8()? {
                0 => None,
                _ => Some(r.u32()? as usize),
            };
            leaves.push(LeafInfo {
                index,
                needs_hist,
                origin_pc,
            });
        }
        program.slices.push(SliceMeta {
            id,
            rcmp_pc,
            entry,
            len,
            root_reg,
            plans,
            leaves,
            has_nonrecomputable,
            est_recompute_nj,
            est_load_nj,
            height,
        });
    }
    crate::validate::validate(&program)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::AluOp;

    fn classic() -> Program {
        let mut b = ProgramBuilder::new("bin-test");
        let data = b.alloc_data(&[7, 8, u64::MAX]);
        let out = b.alloc_zeroed(1);
        b.mark_output(out, 1);
        b.mark_read_only(data, 3);
        b.li(Reg(1), data);
        b.load(Reg(2), Reg(1), 2);
        b.alui(AluOp::Xor, Reg(3), Reg(2), 0xDEAD_BEEF);
        b.fma(Reg(4), Reg(3), Reg(3), Reg(3));
        let skip = b.label();
        b.branch(crate::inst::BranchCond::Ltu, Reg(3), Reg(2), skip);
        b.store(Reg(3), Reg(1), -1);
        b.bind(skip).unwrap();
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn classic_roundtrip_is_exact() {
        let p = classic();
        let bytes = encode_program(&p);
        let q = decode_program(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode_program(&classic());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_program(&bad), Err(DecodeError::BadMagic));
        bytes[4] = 0xFF;
        assert!(matches!(
            decode_program(&bytes),
            Err(DecodeError::BadVersion(_))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode_program(&classic());
        for cut in 1..bytes.len() {
            let err = decode_program(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. } | DecodeError::BadOpcode { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_opcode() {
        let p = classic();
        let bytes = encode_program(&p);
        // the first instruction opcode sits after magic+version+name+entry+
        // code_len+n_inst; `li` takes 10 bytes and `ld` 11, so the `xori`
        // opcode follows at +21 and its sub-op byte at +22
        let opcode = 4 + 2 + 2 + p.name.len() + 4 + 4 + 4;
        let sub_op = opcode + 22;
        assert_eq!(bytes[sub_op], AluOp::Xor.code());
        for at in [opcode, sub_op] {
            let mut bad = bytes.clone();
            bad[at] = 0xEE;
            assert_eq!(
                decode_program(&bad),
                Err(DecodeError::BadOpcode { at, byte: 0xEE }),
                "the error names the corrupted byte itself"
            );
        }

        // a `rec` source count above 3: opcode, key u16, count
        let mut rec = Program::new("rec");
        rec.instructions = vec![
            Instruction::Rec {
                key: 1,
                srcs: [Some(Reg(1)), None, None],
            },
            Instruction::Halt,
        ];
        rec.code_len = 2;
        let mut bytes = encode_program(&rec);
        let count = 4 + 2 + 2 + rec.name.len() + 4 + 4 + 4 + 1 + 2;
        assert_eq!(bytes[count], 1);
        bytes[count] = 4;
        assert_eq!(
            decode_program(&bytes),
            Err(DecodeError::BadOpcode { at: count, byte: 4 })
        );
    }

    #[test]
    fn structurally_invalid_decodes_are_rejected() {
        let mut p = classic();
        // corrupt after encoding by pointing entry out of range
        p.entry = 0;
        let mut bytes = encode_program(&p);
        // entry field offset: magic(4)+version(2)+name_len(2)+name
        let offset = 4 + 2 + 2 + p.name.len();
        bytes[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_program(&bytes),
            Err(DecodeError::Invalid(_))
        ));
    }
}
