//! Forward interval analysis over the main-code CFG.
//!
//! Computes, for every reachable basic block, an interval per architectural
//! register at block entry. Registers start at `[0, 0]` (the machine zeroes
//! the file), loop heads widen to guarantee termination, and every CFG edge
//! leaving a conditional branch refines the compared registers — the
//! refinement is what keeps loop-index-derived addresses bounded after the
//! head has widened to `[0, u64::MAX]`.

use amnesiac_cfg::Cfg;
use amnesiac_isa::{DecodedInst, DecodedOp, NUM_REGS};

use crate::domain::Interval;

/// Per-block register intervals at block entry (`None` = unreachable).
#[derive(Debug, Clone)]
pub struct ValueAnalysis {
    entry: Vec<Option<Vec<Interval>>>,
}

/// Applies one instruction to a register state. Sources that are `None`
/// never contribute to the result, so only present operands are read.
pub(crate) fn transfer(d: &DecodedInst, state: &mut [Interval]) {
    let src = |state: &[Interval], j: usize| {
        d.srcs[j]
            .map(|r| state[r.index()])
            .unwrap_or(Interval::constant(0))
    };
    let out = match d.op {
        DecodedOp::Li { imm, .. } => Some(Interval::constant(imm)),
        DecodedOp::Alu { op, .. } => Some(Interval::alu(op, src(state, 0), src(state, 1))),
        DecodedOp::Alui { op, imm, .. } => {
            Some(Interval::alu(op, src(state, 0), Interval::constant(imm)))
        }
        // fp values are tracked as opaque bit patterns
        DecodedOp::Fpu { .. }
        | DecodedOp::FpuUn { .. }
        | DecodedOp::Fma { .. }
        | DecodedOp::Cvt { .. } => Some(Interval::TOP),
        DecodedOp::Load { .. } | DecodedOp::Rcmp { .. } => Some(Interval::TOP),
        DecodedOp::Store { .. }
        | DecodedOp::Branch { .. }
        | DecodedOp::Jump { .. }
        | DecodedOp::Halt
        | DecodedOp::Rtn
        | DecodedOp::Rec { .. } => None,
    };
    if let (Some(v), Some(dst)) = (out, d.dst()) {
        state[dst.index()] = v;
    }
}

/// Refines `state` for the edge `block -> succ`; returns `false` when the
/// branch outcome required by the edge is infeasible under `state`.
fn refine_edge(
    decoded: &[DecodedInst],
    cfg: &Cfg,
    block: usize,
    succ: usize,
    state: &mut [Interval],
) -> bool {
    let last = cfg.blocks[block].end - 1;
    let DecodedOp::Branch { cond, target } = decoded[last].op else {
        return true;
    };
    let d = &decoded[last];
    let (Some(lr), Some(rr)) = (d.srcs[0], d.srcs[1]) else {
        return true;
    };
    if lr == rr {
        // comparing a register with itself carries no per-register info
        return true;
    }
    let taken_block = cfg.block_of_pc(target);
    let fall_block = cfg.block_of_pc(last + 1);
    // when both outcomes land on the same block the edge proves nothing
    if taken_block == fall_block {
        return true;
    }
    let taken = if Some(succ) == taken_block {
        true
    } else if Some(succ) == fall_block {
        false
    } else {
        return true;
    };
    let (nl, nr) = Interval::refine(cond, taken, state[lr.index()], state[rr.index()]);
    if nl == Interval::Bot || nr == Interval::Bot {
        return false;
    }
    state[lr.index()] = nl;
    state[rr.index()] = nr;
    true
}

impl ValueAnalysis {
    /// Runs the analysis to fixpoint over the main-code CFG.
    pub fn run(decoded: &[DecodedInst], cfg: &Cfg) -> ValueAnalysis {
        let n = cfg.len();
        let mut entry: Vec<Option<Vec<Interval>>> = vec![None; n];
        let Some(e) = cfg.entry_block else {
            return ValueAnalysis { entry };
        };
        entry[e] = Some(vec![Interval::constant(0); NUM_REGS]);
        let heads: Vec<usize> = cfg.loop_heads();

        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo() {
                let Some(state) = entry[b].clone() else {
                    continue;
                };
                // exit state of the block
                let mut exit = state;
                for pc in cfg.blocks[b].start..cfg.blocks[b].end {
                    transfer(&decoded[pc], &mut exit);
                }
                for &s in &cfg.blocks[b].succs {
                    let mut edge = exit.clone();
                    if !refine_edge(decoded, cfg, b, s, &mut edge) {
                        continue;
                    }
                    let widen_here = heads.contains(&s);
                    let next = match &entry[s] {
                        None => edge,
                        Some(old) => {
                            let joined: Vec<Interval> = old
                                .iter()
                                .zip(edge.iter())
                                .map(|(&o, &e)| o.join(e))
                                .collect();
                            if widen_here {
                                old.iter()
                                    .zip(joined.iter())
                                    .map(|(&o, &j)| o.widen(j))
                                    .collect()
                            } else {
                                joined
                            }
                        }
                    };
                    if entry[s].as_deref() != Some(&next[..]) {
                        entry[s] = Some(next);
                        changed = true;
                    }
                }
            }
        }
        ValueAnalysis { entry }
    }

    /// Register intervals at block entry (`None` if unreachable).
    pub fn block_entry(&self, block: usize) -> Option<&[Interval]> {
        self.entry.get(block).and_then(|s| s.as_deref())
    }

    /// Register intervals immediately *before* `pc` executes, or `None` if
    /// `pc` is unreachable or outside the main code.
    pub fn state_at(&self, decoded: &[DecodedInst], cfg: &Cfg, pc: usize) -> Option<Vec<Interval>> {
        let b = cfg.block_of_pc(pc)?;
        let mut state = self.entry.get(b)?.clone()?;
        for p in cfg.blocks[b].start..pc {
            transfer(&decoded[p], &mut state);
        }
        Some(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{predecode, AluOp, BranchCond, ProgramBuilder, Reg};

    /// for i in 0..50 { tmp[i] = 7*i + 13 } — the pipeline's fill loop.
    fn fill_loop() -> (Vec<DecodedInst>, Cfg, usize, usize) {
        let mut b = ProgramBuilder::new("t");
        let tmp = b.alloc_zeroed(50);
        b.li(Reg(1), tmp);
        b.li(Reg(2), 0);
        b.li(Reg(3), 50);
        b.li(Reg(4), 7);
        b.li(Reg(5), 13);
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), done);
        b.alu(AluOp::Mul, Reg(6), Reg(4), Reg(2));
        b.alu(AluOp::Add, Reg(6), Reg(6), Reg(5));
        let addr_pc = b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        let store_pc = b.store(Reg(6), Reg(7), 0);
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        (decoded, cfg, addr_pc, store_pc)
    }

    #[test]
    fn loop_body_index_is_refined_after_widening() {
        let (decoded, cfg, addr_pc, store_pc) = fill_loop();
        let va = ValueAnalysis::run(&decoded, &cfg);
        // inside the body, the guard bounds i to [0, 49] even though the
        // widened loop head knows only [0, u64::MAX]
        let at_addr = va.state_at(&decoded, &cfg, addr_pc).unwrap();
        assert_eq!(at_addr[2], Interval::Range(0, 49), "i refined by the guard");
        assert_eq!(at_addr[4].as_const(), Some(7));
        // the store address r7 = tmp + i stays inside the array
        let at_store = va.state_at(&decoded, &cfg, store_pc).unwrap();
        let Interval::Range(lo, hi) = at_store[7] else {
            panic!("addr must be bounded")
        };
        assert_eq!(hi - lo, 49, "address range spans exactly the array");
        // the stored value 7*i + 13 is bounded too
        assert_eq!(at_store[6], Interval::Range(13, 7 * 49 + 13));
    }

    #[test]
    fn unreachable_block_has_no_state() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg(1), 1);
        b.halt();
        b.li(Reg(2), 2); // dead
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        let va = ValueAnalysis::run(&decoded, &cfg);
        assert!(va.state_at(&decoded, &cfg, 0).is_some());
        assert!(va.state_at(&decoded, &cfg, 2).is_none());
    }

    #[test]
    fn registers_start_at_zero() {
        let mut b = ProgramBuilder::new("t");
        let pc = b.alui(AluOp::Add, Reg(1), Reg(9), 5);
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        let va = ValueAnalysis::run(&decoded, &cfg);
        let s = va.state_at(&decoded, &cfg, pc).unwrap();
        assert_eq!(s[9].as_const(), Some(0));
        let after = va.state_at(&decoded, &cfg, pc + 1).unwrap();
        assert_eq!(after[1].as_const(), Some(5));
    }
}
