//! Block-level execution lowering: superblocks + superinstruction fusion.
//!
//! The interpreters retire tens of millions of dynamic instructions per
//! suite run. PR 3's predecoded stream removed per-retirement enum
//! re-matching; this module removes the per-retirement *dispatch structure*:
//! the main-code region is partitioned into [`DecodedBlock`]s (one per basic
//! block, using the same [`crate::graph::leaders`] computation as the
//! verifier), and the block engine (`amnesiac_sim::run_blocks`) runs whole
//! blocks between control decisions. Within a block, common adjacent instruction pairs are
//! fused into superinstructions ([`Fusion`]) so a single handler retires
//! both halves without returning to the dispatch match:
//!
//! * `cmp+branch` — an ALU compare feeding the block's terminating branch;
//! * `load+alu` — a load whose value is consumed immediately;
//! * `alui+store` — address or value arithmetic feeding a store;
//! * `li+alu` — constant materialisation feeding arithmetic.
//!
//! Fusion never crosses a leader (a fused pair lives entirely inside one
//! block), so control transfers — which always land on leaders — can never
//! enter the middle of a superinstruction. Slice bodies past
//! [`Program::code_len`] form no blocks: slice traversal walks them
//! instruction by instruction, in lock-step with each slice's operand plan,
//! over the same predecoded stream ([`BlockTable::decoded`]).
//!
//! Nothing is pre-summed per block: the simulators' *energy* tape is
//! order-sensitive (f64 accumulation), so the engine charges every
//! instruction individually — see DESIGN.md §4e.

use amnesiac_isa::{predecode, DecodedInst, DecodedOp, Program};

use crate::graph::leaders;

/// The superinstruction patterns recognised by the lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fusion {
    /// `alu/alui` + `branch`: a compare feeding the block terminator.
    CmpBranch,
    /// `load` + `alu/alui`: a load whose value is consumed immediately.
    LoadAlu,
    /// `alui` + `store`: address/value arithmetic feeding a store.
    AluiStore,
    /// `li` + `alu/alui`: constant materialisation feeding arithmetic.
    LiAlu,
}

impl Fusion {
    /// All fusion kinds, in a stable order (for stats tables).
    pub const ALL: [Fusion; 4] = [
        Fusion::CmpBranch,
        Fusion::LoadAlu,
        Fusion::AluiStore,
        Fusion::LiAlu,
    ];

    /// Stable snake_case name (used as a JSON key in bench dumps).
    pub fn label(self) -> &'static str {
        match self {
            Fusion::CmpBranch => "cmp_branch",
            Fusion::LoadAlu => "load_alu",
            Fusion::AluiStore => "alui_store",
            Fusion::LiAlu => "li_alu",
        }
    }
}

/// One dispatch unit inside a block: the pc of its (first) instruction plus
/// its fusion tag. Deliberately 8 bytes — the unit stream only *steers*
/// dispatch; the instructions themselves stay in the table's contiguous
/// predecoded stream ([`BlockTable::decoded`]), which the handlers index by
/// pc. Copying `DecodedInst`s into the units would fatten the hot stream
/// ~10× and put an allocation behind every block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInst {
    /// Pc of the (first) instruction.
    pub pc: u32,
    /// `Some` if this unit retires the fused pair at `pc`/`pc + 1`;
    /// `None` for a single instruction.
    pub fused: Option<Fusion>,
}

/// A lowered basic block: a straight-line run of dispatch units.
///
/// Control only enters at `start` (a leader) and only leaves after the last
/// instruction, so an interpreter that reaches the block retires every unit
/// in order with no intervening pc checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedBlock {
    /// First instruction index (inclusive).
    pub start: usize,
    /// One past the last instruction index (exclusive).
    pub end: usize,
    /// Range into the table's shared unit stream ([`BlockTable::units`]);
    /// the units' pcs cover `[start, end)` in program order.
    units: (u32, u32),
}

impl DecodedBlock {
    /// Number of instructions covered (counting fused pairs as two).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if the block covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Per-program fusion statistics, reported by the dispatch microbench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Main-code blocks formed.
    pub blocks: u64,
    /// Main-code instructions covered.
    pub insts: u64,
    /// Pairs fused, indexed by [`Fusion::ALL`] order.
    pub fused: [u64; 4],
}

impl FusionStats {
    /// Total fused pairs across all kinds.
    pub fn fused_pairs(&self) -> u64 {
        self.fused.iter().sum()
    }

    /// Pairs fused of one kind.
    pub fn fused_of(&self, kind: Fusion) -> u64 {
        self.fused[Fusion::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("ALL is total")]
    }

    /// Mean main-code block length in instructions (0 for empty programs).
    pub fn avg_block_len(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.insts as f64 / self.blocks as f64
        }
    }

    /// Main-code dispatch units after fusion (blocks' `insts.len()` total).
    pub fn dispatch_units(&self) -> u64 {
        self.insts - self.fused_pairs()
    }
}

/// The block-lowered form of a whole program: main-code superblocks over an
/// owned copy of the full predecoded stream (main code and slice bodies).
#[derive(Debug, Clone)]
pub struct BlockTable {
    blocks: Vec<DecodedBlock>,
    /// All blocks' dispatch units, concatenated (one allocation for the
    /// whole program; blocks hold ranges into it).
    units: Vec<BlockInst>,
    /// pc → index into `blocks`, for every main-code pc.
    block_at: Vec<u32>,
    /// The full predecoded stream (main code and slice bodies), so slice
    /// traversal indexes the same table the blocks were lowered from.
    decoded: Vec<DecodedInst>,
    code_len: usize,
    stats: FusionStats,
}

impl BlockTable {
    /// Lowers the main code of `program` into blocks.
    pub fn build(program: &Program) -> BlockTable {
        let decoded = predecode(program);
        let code_len = program.code_len.min(decoded.len());
        let mut blocks = Vec::new();
        let mut units = Vec::with_capacity(code_len);
        let mut block_at = vec![0; code_len];
        let mut stats = FusionStats::default();

        // Main-code superblocks, partitioned exactly like the verifier's CFG.
        let leader = leaders(&decoded, code_len, program.entry);
        let mut start = 0;
        // `pc == code_len` is a sentinel past the end of `leader`; an iterator
        // over `leader` alone would drop the closing flush of the last block.
        #[allow(clippy::needless_range_loop)]
        for pc in 1..=code_len {
            if pc == code_len || leader[pc] {
                let block = lower_block(&decoded, start, pc, &mut stats, &mut units);
                stats.blocks += 1;
                stats.insts += block.len() as u64;
                block_at[start..pc].fill(blocks.len() as u32);
                blocks.push(block);
                start = pc;
            }
        }

        BlockTable {
            blocks,
            units,
            block_at,
            decoded,
            code_len,
            stats,
        }
    }

    /// The main-code block starting at `pc`.
    ///
    /// Callers guarantee `pc < code_len` (the engine checks the range
    /// before looking up the block) and that `pc` is a leader — control
    /// transfers only ever target leaders, which is what makes block
    /// dispatch sound.
    #[inline]
    pub fn main_block(&self, pc: usize) -> &DecodedBlock {
        let b = &self.blocks[self.block_at[pc] as usize];
        debug_assert_eq!(b.start, pc, "control transfer into the middle of a block");
        b
    }

    /// A block's dispatch units, in program order.
    #[inline]
    pub fn units(&self, block: &DecodedBlock) -> &[BlockInst] {
        &self.units[block.units.0 as usize..block.units.1 as usize]
    }

    /// The full predecoded stream the table was lowered from.
    pub fn decoded(&self) -> &[DecodedInst] {
        &self.decoded
    }

    /// Main-code length the table was built with.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// Fusion statistics of the lowering.
    pub fn stats(&self) -> &FusionStats {
        &self.stats
    }
}

/// Recognises a fusable adjacent pair. `b` retires immediately after `a`
/// within the same block; handlers execute both halves in full program
/// order, so fusion is transparent to architectural and energy state.
fn fuse_pair(a: &DecodedInst, b: &DecodedInst) -> Option<Fusion> {
    let is_alu = |d: &DecodedInst| matches!(d.op, DecodedOp::Alu { .. } | DecodedOp::Alui { .. });
    if is_alu(a) && matches!(b.op, DecodedOp::Branch { .. }) {
        return Some(Fusion::CmpBranch);
    }
    if matches!(a.op, DecodedOp::Load { .. }) && is_alu(b) {
        return Some(Fusion::LoadAlu);
    }
    if matches!(a.op, DecodedOp::Alui { .. }) && matches!(b.op, DecodedOp::Store { .. }) {
        return Some(Fusion::AluiStore);
    }
    if matches!(a.op, DecodedOp::Li { .. }) && is_alu(b) {
        return Some(Fusion::LiAlu);
    }
    None
}

fn lower_block(
    decoded: &[DecodedInst],
    start: usize,
    end: usize,
    stats: &mut FusionStats,
    units: &mut Vec<BlockInst>,
) -> DecodedBlock {
    let first_unit = units.len() as u32;
    let mut pc = start;
    while pc < end {
        let d = &decoded[pc];
        let fused = if pc + 1 < end {
            fuse_pair(d, &decoded[pc + 1])
        } else {
            None
        };
        if let Some(f) = fused {
            stats.fused[Fusion::ALL
                .iter()
                .position(|&k| k == f)
                .expect("ALL is total")] += 1;
            units.push(BlockInst {
                pc: pc as u32,
                fused: Some(f),
            });
            pc += 2;
        } else {
            units.push(BlockInst {
                pc: pc as u32,
                fused: None,
            });
            pc += 1;
        }
    }
    DecodedBlock {
        start,
        end,
        units: (first_unit, units.len() as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{AluOp, BranchCond, Instruction, ProgramBuilder, Reg};

    fn table_of(insts: Vec<Instruction>) -> BlockTable {
        let mut p = Program::new("block-test");
        p.code_len = insts.len();
        p.instructions = insts;
        BlockTable::build(&p)
    }

    fn alu(dst: u8) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            dst: Reg(dst),
            lhs: Reg(0),
            rhs: Reg(0),
        }
    }

    fn branch(target: usize) -> Instruction {
        Instruction::Branch {
            cond: BranchCond::Eq,
            lhs: Reg(0),
            rhs: Reg(0),
            target,
        }
    }

    #[test]
    fn straight_line_lowers_to_one_block_with_fusion() {
        // li r1; alu r2 (LiAlu pair); halt
        let t = table_of(vec![
            Instruction::Li {
                dst: Reg(1),
                imm: 1,
            },
            alu(2),
            Instruction::Halt,
        ]);
        assert_eq!(t.stats().blocks, 1);
        assert_eq!(t.stats().fused_of(Fusion::LiAlu), 1);
        let b = t.main_block(0);
        assert_eq!((b.start, b.end), (0, 3));
        let units = t.units(b);
        assert_eq!(units.len(), 2, "pair + halt");
        assert_eq!(
            units[0],
            BlockInst {
                pc: 0,
                fused: Some(Fusion::LiAlu)
            }
        );
        assert_eq!(units[1], BlockInst { pc: 2, fused: None });
    }

    #[test]
    fn cmp_branch_fuses_only_at_block_end() {
        // 0: alu, 1: branch→0 | 2: halt
        let t = table_of(vec![alu(1), branch(0), Instruction::Halt]);
        assert_eq!(t.stats().blocks, 2);
        assert_eq!(t.stats().fused_of(Fusion::CmpBranch), 1);
        let b = t.main_block(0);
        let units = t.units(b);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].fused, Some(Fusion::CmpBranch));
    }

    #[test]
    fn fusion_never_crosses_a_leader() {
        // 0: branch→2 | 1: li (own block: 2 is a leader) | 2: alu target
        let t = table_of(vec![
            branch(2),
            Instruction::Li {
                dst: Reg(1),
                imm: 7,
            },
            alu(2),
            Instruction::Halt,
        ]);
        // li at 1 and alu at 2 are adjacent but in different blocks
        assert_eq!(t.stats().fused_of(Fusion::LiAlu), 0);
        assert_eq!(t.units(t.main_block(1)).len(), 1);
        assert_eq!(t.units(t.main_block(2)).len(), 2, "alu; halt unfused");
    }

    #[test]
    fn self_branching_single_instruction_block() {
        let t = table_of(vec![branch(0), Instruction::Halt]);
        let b = t.main_block(0);
        assert_eq!((b.start, b.end), (0, 1));
        assert_eq!(t.units(b), [BlockInst { pc: 0, fused: None }]);
    }

    #[test]
    fn load_store_pairs_fuse() {
        // load r2; alu r3 (LoadAlu) ; alui r4; store (AluiStore); halt
        let t = table_of(vec![
            Instruction::Load {
                dst: Reg(2),
                base: Reg(1),
                offset: 0,
            },
            alu(3),
            Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(4),
                src: Reg(3),
                imm: 1,
            },
            Instruction::Store {
                src: Reg(3),
                base: Reg(4),
                offset: 0,
            },
            Instruction::Halt,
        ]);
        assert_eq!(t.stats().fused_of(Fusion::LoadAlu), 1);
        assert_eq!(t.stats().fused_of(Fusion::AluiStore), 1);
        assert_eq!(t.stats().dispatch_units(), 3);
        assert!((t.stats().avg_block_len() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn block_partition_matches_cfg_blocks() {
        let mut b = ProgramBuilder::new("partition");
        b.li(Reg(1), 0);
        b.li(Reg(2), 10);
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(1), Reg(2), done);
        b.alui(AluOp::Add, Reg(1), Reg(1), 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p = b.finish().unwrap();
        let t = BlockTable::build(&p);
        let cfg = crate::Cfg::build(t.decoded(), p.code_len, p.entry);
        assert_eq!(t.stats().blocks, cfg.blocks.len() as u64);
        for b in &cfg.blocks {
            let block = t.main_block(b.start);
            assert_eq!(
                (block.start, block.end),
                (b.start, b.end),
                "one leader computation, one partition"
            );
        }
    }
}
