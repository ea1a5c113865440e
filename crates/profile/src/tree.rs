//! Canonical per-load-site producer trees.
//!
//! A load site's first dynamic instance builds its tree from the provenance
//! arena. Every later instance is folded in by one walk over the canonical
//! tree and the arena together: identical subtrees are kept, differing
//! subtrees are pruned to checkpointable operands, and per-operand liveness
//! flags accumulate (`always_live` holds only if the operand's register
//! still held the operand value at *every* dynamic instance of the load).
//! The walk allocates only where an `unknown` canonical operand adopts the
//! instance's subtree, so a stable site costs no allocation per load.

use amnesiac_isa::{Instruction, Reg, NUM_REGS};

use crate::provenance::{Arena, Node, NIL};

/// Maximum height of a site's tree. The compiler's own height cap is
/// lower; this bounds the per-load walk.
pub const EXTRACT_DEPTH_CAP: u32 = 48;

/// One source operand of a [`ProvNode`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProvOperand {
    /// Architectural register the parent instruction reads.
    pub reg: Reg,
    /// `true` while the register has held the operand value at the load,
    /// for every observed instance — the paper's live-register leaf inputs
    /// (§2.2), which need no `Hist` buffering.
    pub always_live: bool,
    /// Producer subtree, when the operand is recomputable and its shape is
    /// stable across instances.
    pub child: Option<Box<ProvNode>>,
    /// `true` when `child` is `None` only because the provenance tracker's
    /// depth cap dropped the subtree for this operand (an artifact), rather
    /// than the producer being genuinely absent or divergent. Unknown
    /// operands do not veto a known canonical subtree during folding — the
    /// compiler's validation replay remains the correctness backstop.
    pub unknown: bool,
    /// `true` while, at every observed load instance, the parent
    /// instruction's *most recent* dynamic execution used exactly this
    /// operand value — i.e. a `REC` checkpoint (which always holds the
    /// latest execution's operands, §3.1.2) would deliver the right value.
    /// Operands that are neither live nor checkpoint-fresh cannot be `Hist`
    /// leaves; the compiler must expand their producer into the slice.
    pub checkpoint_fresh: bool,
}

/// A node of a canonical producer tree (the raw material of an RSlice).
#[derive(Debug, Clone, PartialEq)]
pub struct ProvNode {
    /// Static pc of the producer in the main code.
    pub pc: usize,
    /// The producer instruction (always a compute instruction; loads are
    /// seen through when the tree is built).
    pub inst: Instruction,
    /// Source operands, aligned with [`Instruction::srcs`].
    pub operands: [Option<ProvOperand>; 3],
}

/// The dynamic context of one load instance: the provenance arena and the
/// machine state at the load (the anticipated recomputation point).
pub(crate) struct Instance<'a> {
    /// The provenance arena the instance's producers live in.
    pub arena: &'a Arena,
    /// The program's instructions, indexed by pc.
    pub code: &'a [Instruction],
    /// The architectural register file at the load, for liveness flags.
    pub regs: &'a [u64; NUM_REGS],
    /// Dense per-pc table of each compute instruction's most recent operand
    /// values (`None` where the pc never executed), for freshness flags.
    pub last_exec: &'a [Option<[u64; 3]>],
}

/// What one instance says about one operand of a producer node.
struct Observed {
    live: bool,
    fresh: bool,
    unknown: bool,
    /// The operand's compute producer, [`NIL`] when absent or unknown.
    child: u32,
}

impl Instance<'_> {
    /// Observes operand `j` of `node`, a producer at `depth` in the tree.
    fn observe(&self, node: &Node, j: usize, reg: Reg, depth: u32) -> Observed {
        let unknown = node.truncated() || depth + 1 >= EXTRACT_DEPTH_CAP;
        let value = node.src_values[j];
        Observed {
            live: self.regs[reg.index()] == value,
            fresh: self
                .last_exec
                .get(node.pc as usize)
                .copied()
                .flatten()
                .is_some_and(|vals| vals[j] == value),
            unknown,
            child: if unknown {
                NIL
            } else {
                self.arena.resolve_compute(node.srcs[j])
            },
        }
    }
}

impl ProvNode {
    /// Builds the tree of a site's first instance, rooted at the compute
    /// producer `root` (an arena index, never [`NIL`]) at `depth`.
    pub(crate) fn first_instance(root: u32, depth: u32, instance: &Instance<'_>) -> ProvNode {
        let node = instance.arena.get(root);
        let pc = node.pc as usize;
        let inst = &instance.code[pc];
        let mut operands: [Option<ProvOperand>; 3] = [None, None, None];
        for (j, reg) in inst.srcs().into_iter().enumerate() {
            let Some(reg) = reg else { continue };
            let seen = instance.observe(node, j, reg, depth);
            operands[j] = Some(ProvOperand {
                reg,
                always_live: seen.live,
                child: (seen.child != NIL)
                    .then(|| Box::new(Self::first_instance(seen.child, depth + 1, instance))),
                unknown: seen.unknown,
                checkpoint_fresh: seen.fresh,
            });
        }
        ProvNode {
            pc,
            inst: inst.clone(),
            operands,
        }
    }

    /// Folds another instance, rooted at the compute producer `root` at
    /// `depth`, into this canonical tree.
    ///
    /// Returns `false` when the *root* producers differ — the site cannot
    /// be recomputed with a single embedded slice and must be marked
    /// unstable. Differences below the root only prune the affected
    /// operand's subtree. Producers are compared by pc alone: equal pcs are
    /// equal instructions, so the operand shapes line up.
    pub(crate) fn fold_instance(&mut self, root: u32, depth: u32, instance: &Instance<'_>) -> bool {
        let node = instance.arena.get(root);
        if self.pc != node.pc as usize {
            return false;
        }
        for (j, operand) in self.operands.iter_mut().enumerate() {
            let Some(mine) = operand else { continue };
            let seen = instance.observe(node, j, mine.reg, depth);
            mine.always_live &= seen.live;
            mine.checkpoint_fresh &= seen.fresh;
            let keep_child = match mine.child.as_deref_mut() {
                Some(canon) if seen.child != NIL => {
                    canon.fold_instance(seen.child, depth + 1, instance)
                }
                // the instance didn't record the subtree: keep the canonical
                // one (validated later) only if that was a cap artifact
                Some(_) => seen.unknown,
                None => {
                    // the canonical side was a truncation artifact: adopt
                    // the instance's subtree (liveness/freshness flags
                    // re-accumulate from here; the validation replay
                    // remains the correctness backstop)
                    if mine.unknown && seen.child != NIL {
                        mine.child = Some(Box::new(Self::first_instance(
                            seen.child,
                            depth + 1,
                            instance,
                        )));
                    }
                    true // otherwise semantically absent: stays pruned
                }
            };
            if !keep_child {
                mine.child = None;
            }
            // a semantic absence in either instance is sticky
            if !seen.unknown && seen.child == NIL {
                mine.unknown = false;
            }
        }
        true
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self
            .operands
            .iter()
            .flatten()
            .filter_map(|o| o.child.as_ref())
            .map(|c| c.size())
            .sum::<usize>()
    }

    /// Height of the tree (a lone root has height 0), the paper's `h`.
    pub fn height(&self) -> u32 {
        self.operands
            .iter()
            .flatten()
            .filter_map(|o| o.child.as_ref())
            .map(|c| 1 + c.height())
            .max()
            .unwrap_or(0)
    }

    /// Visits nodes in post-order (children before parents) — the order in
    /// which a slice body must execute (data flows leaves → root, Fig. 1).
    pub fn post_order<'a>(&'a self, visit: &mut impl FnMut(&'a ProvNode)) {
        for operand in self.operands.iter().flatten() {
            if let Some(child) = &operand.child {
                child.post_order(visit);
            }
        }
        visit(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::AluOp;

    fn li(dst: u8) -> Instruction {
        Instruction::Li {
            dst: Reg(dst),
            imm: 0,
        }
    }

    fn inc(dst: u8, src: u8) -> Instruction {
        Instruction::Alui {
            op: AluOp::Add,
            dst: Reg(dst),
            src: Reg(src),
            imm: 1,
        }
    }

    fn add(dst: u8, lhs: u8, rhs: u8) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            dst: Reg(dst),
            lhs: Reg(lhs),
            rhs: Reg(rhs),
        }
    }

    /// An arena plus the machine state a load instance observes.
    struct Fixture {
        arena: Arena,
        code: Vec<Instruction>,
        regs: [u64; NUM_REGS],
        last_exec: Vec<Option<[u64; 3]>>,
    }

    impl Fixture {
        /// pcs: 0 `li r1`, 1 `li r2`, 2 `li r1`, 3 `r3 = r1+1`,
        /// 4 `r4 = r2+1`, 5 and 6 `r5 = r3+r4`, 7 `r1 = r1+1`.
        fn new() -> Self {
            let code = vec![
                li(1),
                li(2),
                li(1),
                inc(3, 1),
                inc(4, 2),
                add(5, 3, 4),
                add(5, 3, 4),
                inc(1, 1),
            ];
            let last_exec = vec![None; code.len()];
            Fixture {
                arena: Arena::default(),
                code,
                regs: [0; NUM_REGS],
                last_exec,
            }
        }

        /// Retires `pc` over operand producers `srcs`, as the tracker does.
        fn exec(&mut self, pc: usize, srcs: [u32; 3], src_values: [u64; 3]) -> u32 {
            self.last_exec[pc] = Some(src_values);
            self.arena.compute(pc, srcs, src_values)
        }

        fn instance(&self) -> Instance<'_> {
            Instance {
                arena: &self.arena,
                code: &self.code,
                regs: &self.regs,
                last_exec: &self.last_exec,
            }
        }

        fn first(&self, root: u32) -> ProvNode {
            ProvNode::first_instance(root, 0, &self.instance())
        }

        fn fold(&self, canon: &mut ProvNode, root: u32) -> bool {
            canon.fold_instance(root, 0, &self.instance())
        }

        /// `r5 = (r1+1) + (r2+1)` over `li r1` at `left_li`: the left
        /// producer's operand is `r1 = 10`, the right's `r2 = 20`.
        fn diamond(&mut self, left_li: usize) -> u32 {
            let l = self.exec(left_li, [NIL; 3], [0; 3]);
            let r = self.exec(1, [NIL; 3], [0; 3]);
            let a = self.exec(3, [l, NIL, NIL], [10, 0, 0]);
            let b = self.exec(4, [r, NIL, NIL], [20, 0, 0]);
            self.exec(5, [a, b, NIL], [11, 21, 0])
        }
    }

    fn op(node: &ProvNode, j: usize) -> &ProvOperand {
        node.operands[j].as_ref().expect("operand present")
    }

    fn child(node: &ProvNode, j: usize) -> &ProvNode {
        op(node, j).child.as_deref().expect("child present")
    }

    #[test]
    fn first_instance_follows_the_arena() {
        let mut f = Fixture::new();
        f.regs[1] = 10;
        let root = f.diamond(0);
        let tree = f.first(root);
        assert_eq!(tree.pc, 5);
        assert_eq!(tree.inst, f.code[5], "the instruction comes from the code");
        assert_eq!((tree.size(), tree.height()), (5, 2));
        assert!(op(&tree, 0).checkpoint_fresh);
        assert!(op(child(&tree, 0), 0).always_live, "r1 holds 10");
        assert!(!op(child(&tree, 1), 0).always_live, "r2 does not hold 20");
        let mut pcs = Vec::new();
        tree.post_order(&mut |n| pcs.push(n.pc));
        assert_eq!(pcs, vec![0, 3, 1, 4, 5], "leaves first");
    }

    #[test]
    fn folding_the_same_shape_keeps_it() {
        let mut f = Fixture::new();
        let first = f.diamond(0);
        let mut tree = f.first(first);
        let again = f.diamond(0);
        assert!(f.fold(&mut tree, again));
        assert_eq!(tree, f.first(again), "nothing to prune or clear");
    }

    #[test]
    fn root_mismatch_is_unstable() {
        let mut f = Fixture::new();
        let root = f.diamond(0);
        let mut tree = f.first(root);
        let other = f.exec(6, [NIL; 3], [0; 3]);
        assert!(!f.fold(&mut tree, other), "pc 6 is not pc 5");
    }

    #[test]
    fn differing_subtrees_are_pruned() {
        let mut f = Fixture::new();
        let first = f.diamond(0);
        let mut tree = f.first(first);
        let second = f.diamond(2); // r1 now comes from pc 2
        assert!(f.fold(&mut tree, second));
        assert!(op(child(&tree, 0), 0).child.is_none(), "left leaf pruned");
        assert!(op(child(&tree, 1), 0).child.is_some(), "right leaf kept");
        assert_eq!(tree.size(), 4);
    }

    #[test]
    fn liveness_and_freshness_accumulate_conjunctively() {
        let mut f = Fixture::new();
        f.regs[1] = 10;
        f.regs[2] = 20;
        let first = f.diamond(0);
        let mut tree = f.first(first);
        assert!(op(child(&tree, 0), 0).always_live);
        assert!(op(child(&tree, 1), 0).always_live);
        f.regs[1] = 99;
        let second = f.diamond(0);
        // pc 3 re-runs with another operand: the second instance's value is
        // stale for a checkpoint of the first
        f.last_exec[3] = Some([12, 0, 0]);
        assert!(f.fold(&mut tree, second));
        let left = op(child(&tree, 0), 0);
        assert!(!left.always_live && !left.checkpoint_fresh);
        let right = op(child(&tree, 1), 0);
        assert!(right.always_live && right.checkpoint_fresh);
        f.regs[1] = 10;
        f.last_exec[3] = Some([10, 0, 0]);
        assert!(f.fold(&mut tree, second));
        assert!(
            !op(child(&tree, 0), 0).always_live,
            "once false, stays false"
        );
    }

    #[test]
    fn a_missing_child_prunes_and_clears_unknown() {
        let mut f = Fixture::new();
        let first = f.diamond(0);
        let mut tree = f.first(first);
        let a = f.arena.get(first).srcs[0];
        let untracked = f.exec(5, [a, NIL, NIL], [11, 21, 0]);
        assert!(f.fold(&mut tree, untracked));
        assert!(op(&tree, 1).child.is_none() && !op(&tree, 1).unknown);
        assert!(op(&tree, 0).child.is_some());
    }

    #[test]
    fn unknown_operands_adopt_then_absence_sticks() {
        let mut f = Fixture::new();
        let seed = f.exec(0, [NIL; 3], [0; 3]);
        let rec1 = f.exec(7, [seed, NIL, NIL], [0, 0, 0]);
        // a self-recurrence over a childful node keeps a truncated clone
        let rec2 = f.exec(7, [rec1, NIL, NIL], [1, 0, 0]);
        let clone = f.arena.get(rec2).srcs[0];
        assert!(f.arena.get(clone).truncated());
        let mut tree = f.first(clone);
        assert!(op(&tree, 0).unknown && op(&tree, 0).child.is_none());

        // an instance that knows the producer: adopted, still unknown
        assert!(f.fold(&mut tree, rec1));
        assert_eq!(child(&tree, 0).pc, 0);
        assert!(op(&tree, 0).unknown);

        // an instance with no producer at all: pruned, and sticky
        let rec0 = f.exec(7, [NIL; 3], [0; 3]);
        assert!(f.fold(&mut tree, rec0));
        assert!(op(&tree, 0).child.is_none() && !op(&tree, 0).unknown);
        assert!(f.fold(&mut tree, rec1));
        assert!(op(&tree, 0).child.is_none(), "semantic absence is sticky");
    }

    #[test]
    fn an_unknown_instance_operand_keeps_the_canonical_subtree() {
        let mut f = Fixture::new();
        let seed = f.exec(0, [NIL; 3], [0; 3]);
        let rec1 = f.exec(7, [seed, NIL, NIL], [0, 0, 0]);
        let mut tree = f.first(rec1);
        let rec2 = f.exec(7, [rec1, NIL, NIL], [1, 0, 0]);
        let clone = f.arena.get(rec2).srcs[0];
        assert!(f.fold(&mut tree, clone));
        assert_eq!(child(&tree, 0).pc, 0, "an artifact does not veto");
        assert!(!op(&tree, 0).unknown);
    }

    #[test]
    fn trees_stop_at_the_extract_depth_cap() {
        let mut f = Fixture::new();
        f.code = (0..60).map(|_| inc(1, 1)).collect();
        f.last_exec = vec![None; 60];
        let mut node = NIL;
        for pc in 0..60 {
            let next = f.exec(pc, [node, NIL, NIL], [0; 3]);
            f.arena.release(node);
            node = next;
        }
        let tree = f.first(node);
        assert_eq!(tree.height(), EXTRACT_DEPTH_CAP - 1);
        let mut deepest = &tree;
        while let Some(next) = op(deepest, 0).child.as_deref() {
            deepest = next;
        }
        assert!(op(deepest, 0).unknown, "cut by the cap, not absent");
    }
}
