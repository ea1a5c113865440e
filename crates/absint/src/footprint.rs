//! Memory-footprint analysis: interval bounds on every load, store, and
//! `RCMP` address in the main code, plus a conservative bound on the value
//! a given address range can hold.
//!
//! Address bounds come from the interval analysis (`base + offset` with the
//! ISA's wrapping rule), so a guarded loop index yields a tight per-array
//! range. The loaded-value bound joins: the values of every store whose
//! address range intersects, the initial image values in range, and `0`
//! whenever some address in range may be uninitialised.

use amnesiac_cfg::Cfg;
use amnesiac_isa::{DecodedInst, DecodedOp, Program};

use crate::domain::Interval;
use crate::values::{transfer, ValueAnalysis};

/// Kind of a memory access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A `Load` instruction.
    Load,
    /// A `Store` instruction.
    Store,
    /// An `RCMP` (amnesic fused branch+load).
    Rcmp,
}

/// One static memory access with its interval bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Main-code pc of the instruction.
    pub pc: usize,
    /// What kind of access it is.
    pub kind: AccessKind,
    /// Bound on the effective word address.
    pub addr: Interval,
    /// Bound on the stored value (stores only; `Bot` otherwise).
    pub value: Interval,
}

/// All reachable memory accesses of the main code, in pc order.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// The access sites.
    pub accesses: Vec<Access>,
}

impl Footprint {
    /// Collects access bounds for every reachable main-code instruction.
    pub fn analyze(decoded: &[DecodedInst], cfg: &Cfg, values: &ValueAnalysis) -> Footprint {
        let mut accesses = Vec::new();
        for b in 0..cfg.len() {
            let Some(entry) = values.block_entry(b) else {
                continue;
            };
            let mut state = entry.to_vec();
            for pc in cfg.blocks[b].start..cfg.blocks[b].end {
                let d = &decoded[pc];
                let src = |j: usize| {
                    d.srcs[j]
                        .map(|r| state[r.index()])
                        .unwrap_or(Interval::constant(0))
                };
                match d.op {
                    DecodedOp::Load { offset, .. } => accesses.push(Access {
                        pc,
                        kind: AccessKind::Load,
                        addr: src(0).wrapping_add_const(offset as u64),
                        value: Interval::Bot,
                    }),
                    DecodedOp::Rcmp { offset, .. } => accesses.push(Access {
                        pc,
                        kind: AccessKind::Rcmp,
                        addr: src(0).wrapping_add_const(offset as u64),
                        value: Interval::Bot,
                    }),
                    DecodedOp::Store { offset } => accesses.push(Access {
                        pc,
                        kind: AccessKind::Store,
                        addr: src(1).wrapping_add_const(offset as u64),
                        value: src(0),
                    }),
                    _ => {}
                }
                transfer(d, &mut state);
            }
        }
        accesses.sort_by_key(|a| a.pc);
        Footprint { accesses }
    }

    /// The access record at `pc`, if it is a reachable memory instruction.
    pub fn at(&self, pc: usize) -> Option<&Access> {
        self.accesses
            .binary_search_by_key(&pc, |a| a.pc)
            .ok()
            .map(|i| &self.accesses[i])
    }

    /// Store sites whose address range intersects `addr`.
    pub fn aliasing_stores(&self, addr: Interval) -> Vec<&Access> {
        self.accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Store && a.addr.intersects(addr))
            .collect()
    }

    /// A sound bound on any value a load of an address in `addr` can
    /// observe: the join of all intersecting stores' value bounds with the
    /// initial-image contribution of the range.
    pub fn loaded_value_interval(&self, addr: Interval, program: &Program) -> Interval {
        let mut out = Interval::Bot;
        for s in self.aliasing_stores(addr) {
            out = out.join(s.value);
        }
        out.join(initial_value_interval(addr, program))
    }
}

/// Bound on the *initial* contents of the addresses in `addr`: the join of
/// the image words in range, plus `0` if any address in range may be
/// uninitialised (uninitialised words read as zero).
pub fn initial_value_interval(addr: Interval, program: &Program) -> Interval {
    let Interval::Range(lo, hi) = addr else {
        return Interval::Bot;
    };
    let mut out = Interval::Bot;
    let mut covered = 0u128;
    for (a, v) in program.data.iter() {
        if a >= lo && a <= hi {
            out = out.join(Interval::constant(v));
            covered += 1;
        }
    }
    let width = (hi - lo) as u128 + 1;
    if covered < width {
        out = out.join(Interval::constant(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{predecode, AluOp, BranchCond, ProgramBuilder, Reg};

    fn analyzed(p: &Program) -> (Vec<DecodedInst>, Cfg, ValueAnalysis) {
        let decoded = predecode(p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        let va = ValueAnalysis::run(&decoded, &cfg);
        (decoded, cfg, va)
    }

    #[test]
    fn loop_store_footprint_spans_the_array() {
        let mut b = ProgramBuilder::new("t");
        let tmp = b.alloc_zeroed(50);
        b.li(Reg(1), tmp);
        b.li(Reg(2), 0);
        b.li(Reg(3), 50);
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(2), Reg(3), done);
        b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        let store_pc = b.store(Reg(2), Reg(7), 0);
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p = b.finish().unwrap();
        let (decoded, cfg, va) = analyzed(&p);
        let fp = Footprint::analyze(&decoded, &cfg, &va);
        let s = fp.at(store_pc).unwrap();
        assert_eq!(s.kind, AccessKind::Store);
        assert_eq!(s.addr, Interval::Range(tmp, tmp + 49));
        assert_eq!(s.value, Interval::Range(0, 49));
    }

    #[test]
    fn loaded_value_joins_stores_and_init() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 10);
        b.store(Reg(2), Reg(1), 0);
        let load_pc = b.load(Reg(3), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let (decoded, cfg, va) = analyzed(&p);
        let fp = Footprint::analyze(&decoded, &cfg, &va);
        let l = fp.at(load_pc).unwrap();
        assert_eq!(l.addr.as_const(), Some(cell));
        // flow-insensitive: the store's 10 joined with the possibly-unwritten
        // initial 0
        let v = fp.loaded_value_interval(l.addr, &p);
        assert_eq!(v, Interval::Range(0, 10));
    }

    #[test]
    fn initialised_data_contributes_its_values() {
        let mut b = ProgramBuilder::new("t");
        let input = b.alloc_data(&[5, 9, 7]);
        b.li(Reg(1), input);
        let load_pc = b.load(Reg(2), Reg(1), 1);
        b.halt();
        let p = b.finish().unwrap();
        let (decoded, cfg, va) = analyzed(&p);
        let fp = Footprint::analyze(&decoded, &cfg, &va);
        let l = fp.at(load_pc).unwrap();
        assert_eq!(l.addr.as_const(), Some(input + 1));
        // the single fully-initialised word: exactly [9, 9]
        assert_eq!(fp.loaded_value_interval(l.addr, &p), Interval::constant(9));
        // a range spilling past the image picks up the implicit zero
        let wide = Interval::Range(input, input + 3);
        assert_eq!(fp.loaded_value_interval(wide, &p), Interval::Range(0, 9));
    }

    #[test]
    fn disjoint_store_does_not_alias() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_zeroed(1);
        let c = b.alloc_zeroed(1);
        b.li(Reg(1), a);
        b.li(Reg(2), c);
        b.li(Reg(3), 42);
        b.store(Reg(3), Reg(2), 0);
        let load_pc = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let (decoded, cfg, va) = analyzed(&p);
        let fp = Footprint::analyze(&decoded, &cfg, &va);
        let l = fp.at(load_pc).unwrap();
        assert!(fp.aliasing_stores(l.addr).is_empty());
        assert_eq!(fp.loaded_value_interval(l.addr, &p), Interval::constant(0));
    }
}
