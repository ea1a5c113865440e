//! Backward liveness over architectural registers (main code) and `SFile`
//! slots (slice bodies).
//!
//! Register liveness is a classic bit-vector dataflow over the CFG with a
//! `u64` mask per block (`NUM_REGS == 64`). Slice liveness is simpler —
//! bodies are straight-line — and yields the two facts the verifier wants:
//! which producers are dead weight, and the minimal number of concurrently
//! live `SFile` slots any renamer would need.

use amnesiac_cfg::Cfg;
use amnesiac_isa::{DecodedInst, OperandSource, SliceMeta, NUM_REGS};

const _: () = assert!(NUM_REGS == 64, "liveness masks are u64");

/// Register-liveness masks per basic block.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_out: Vec<u64>,
}

/// `(use_mask, def_mask)` of one instruction.
fn use_def(d: &DecodedInst) -> (u64, u64) {
    let mut uses = 0u64;
    for s in d.srcs.iter().flatten() {
        uses |= 1 << s.index();
    }
    let def = d.dst().map(|r| 1 << r.index()).unwrap_or(0);
    (uses, def)
}

impl Liveness {
    /// Runs backward liveness to fixpoint over the main-code CFG.
    pub fn run(decoded: &[DecodedInst], cfg: &Cfg) -> Liveness {
        let n = cfg.len();
        let mut live_in = vec![0u64; n];
        let mut live_out = vec![0u64; n];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().rev() {
                let mut out = 0u64;
                for &s in &cfg.blocks[b].succs {
                    out |= live_in[s];
                }
                live_out[b] = out;
                let mut live = out;
                for pc in (cfg.blocks[b].start..cfg.blocks[b].end).rev() {
                    let (uses, def) = use_def(&decoded[pc]);
                    live = (live & !def) | uses;
                }
                if live_in[b] != live {
                    live_in[b] = live;
                    changed = true;
                }
            }
        }
        Liveness { live_out }
    }

    /// Registers live immediately *before* `pc` executes, as a bit mask.
    pub fn live_before(&self, decoded: &[DecodedInst], cfg: &Cfg, pc: usize) -> Option<u64> {
        let b = cfg.block_of_pc(pc)?;
        let mut live = *self.live_out.get(b)?;
        for p in (pc..cfg.blocks[b].end).rev() {
            let (uses, def) = use_def(&decoded[p]);
            live = (live & !def) | uses;
        }
        Some(live)
    }

    /// Registers live at block exit.
    pub fn block_out(&self, block: usize) -> Option<u64> {
        self.live_out.get(block).copied()
    }
}

/// Liveness facts about one slice body, derived from its operand plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceLiveness {
    /// Slice-relative indices of compute instructions whose value is never
    /// consumed — not by any later `SFile` operand and not the root.
    pub dead_producers: Vec<u16>,
    /// The minimal number of concurrently live `SFile` slots: the peak, over
    /// all points of the body, of values already produced and still awaiting
    /// a later `SFile` read (or the final root copy-out).
    pub peak_sfile: usize,
}

impl SliceLiveness {
    /// Analyzes a slice body via its plans (bodies are straight-line, so no
    /// fixpoint is needed).
    pub fn analyze(meta: &SliceMeta) -> SliceLiveness {
        let n = meta.compute_len();
        if n == 0 {
            return SliceLiveness {
                dead_producers: Vec::new(),
                peak_sfile: 0,
            };
        }
        // last_use[p] = body index of the last SFile read of producer p
        let mut last_use: Vec<Option<usize>> = vec![None; n];
        for (k, plan) in meta.plans.iter().enumerate() {
            for src in plan.sources.iter().flatten() {
                if let OperandSource::SFile { producer } = src {
                    let p = *producer as usize;
                    if p < n {
                        last_use[p] = Some(k);
                    }
                }
            }
        }
        let root = n - 1; // the root's value is retired by the RCMP
        let dead_producers: Vec<u16> = (0..n)
            .filter(|&p| p != root && last_use[p].is_none())
            .map(|p| p as u16)
            .collect();
        // peak concurrently live values: producer p is live on the half-open
        // interval (p, last_use[p]] — and the root to the end of the body
        let mut peak = 0usize;
        for k in 0..n {
            let live = (0..=k)
                .filter(|&p| {
                    if p == root {
                        return true;
                    }
                    matches!(last_use[p], Some(u) if u > k)
                })
                .count();
            peak = peak.max(live);
        }
        SliceLiveness {
            dead_producers,
            peak_sfile: peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{predecode, AluOp, BranchCond, OperandPlan, ProgramBuilder, Reg, SliceId};

    #[test]
    fn straight_line_liveness() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg(1), 10); // used by the add
        b.li(Reg(2), 20); // dead: overwritten before any use
        b.li(Reg(2), 30);
        let add = b.alu(AluOp::Add, Reg(3), Reg(1), Reg(2));
        let store = b.store(Reg(3), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        let lv = Liveness::run(&decoded, &cfg);
        let before_add = lv.live_before(&decoded, &cfg, add).unwrap();
        assert_eq!(before_add & (1 << 1), 1 << 1, "r1 live into the add");
        assert_eq!(before_add & (1 << 2), 1 << 2, "r2 live into the add");
        let before_store = lv.live_before(&decoded, &cfg, store).unwrap();
        assert_eq!(before_store & (1 << 3), 1 << 3);
        // after the first li, r2's first value is dead
        let after_first = lv.live_before(&decoded, &cfg, 1).unwrap();
        assert_eq!(after_first & (1 << 2), 0, "overwritten value is dead");
    }

    #[test]
    fn loop_carried_register_stays_live() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg(2), 0);
        b.li(Reg(3), 9);
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        let guard = b.branch(BranchCond::Geu, Reg(2), Reg(3), done);
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        let lv = Liveness::run(&decoded, &cfg);
        let at_guard = lv.live_before(&decoded, &cfg, guard).unwrap();
        assert_eq!(at_guard & (1 << 2), 1 << 2, "the counter is loop-carried");
        assert_eq!(at_guard & (1 << 3), 1 << 3, "so is the bound");
    }

    fn meta_with(plans: Vec<OperandPlan>) -> SliceMeta {
        SliceMeta {
            id: SliceId(0),
            rcmp_pc: 0,
            entry: 0,
            len: plans.len() + 1,
            root_reg: Reg(1),
            plans,
            leaves: Vec::new(),
            has_nonrecomputable: false,
            est_recompute_nj: 0.0,
            est_load_nj: 0.0,
            height: 0,
        }
    }

    fn sfile(p: u16) -> Option<OperandSource> {
        Some(OperandSource::SFile { producer: p })
    }

    #[test]
    fn dead_producer_and_peak() {
        // 0: leaf (consumed by 2), 1: leaf (dead), 2: root reads producer 0
        let plans = vec![
            OperandPlan::empty(),
            OperandPlan::empty(),
            OperandPlan {
                sources: [sfile(0), Some(OperandSource::LiveReg), None],
            },
        ];
        let sl = SliceLiveness::analyze(&meta_with(plans));
        assert_eq!(sl.dead_producers, vec![1]);
        // at index 1: producer 0 awaits its read and producer 1 is dead on
        // arrival; at index 2 only the root is live
        assert_eq!(sl.peak_sfile, 1);
    }

    #[test]
    fn chain_has_unit_peak_and_no_dead() {
        let plans = vec![
            OperandPlan::empty(),
            OperandPlan {
                sources: [sfile(0), None, None],
            },
            OperandPlan {
                sources: [sfile(1), None, None],
            },
        ];
        let sl = SliceLiveness::analyze(&meta_with(plans));
        assert!(sl.dead_producers.is_empty());
        assert_eq!(sl.peak_sfile, 1, "a pure chain needs one slot at a time");
    }

    #[test]
    fn wide_tree_peaks_at_fanin() {
        // two leaves joined by the root
        let plans = vec![
            OperandPlan::empty(),
            OperandPlan::empty(),
            OperandPlan {
                sources: [sfile(0), sfile(1), None],
            },
        ];
        let sl = SliceLiveness::analyze(&meta_with(plans));
        assert!(sl.dead_producers.is_empty());
        assert_eq!(sl.peak_sfile, 2);
    }
}
