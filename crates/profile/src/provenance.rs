//! The dynamic provenance arena: which instruction produced each live value,
//! and from which operand values.
//!
//! Nodes are `Copy` records in one `Vec`, linked by `u32` slot indices with
//! [`NIL`] for "no producer". Each node counts the references it receives
//! from the tracker's roots (register and memory cells) and from other
//! nodes; a node whose count drops to zero goes on an intrusive free list,
//! and its children are released through an explicit worklist, so a release
//! never recurses and a retirement reuses freed slots before growing the
//! arena.
//!
//! Nodes are depth-capped: when a new node would exceed
//! [`TRACK_DEPTH_CAP`], its deep operands are replaced by shallow clones,
//! bounding both memory and later tree-building work. The amnesic compiler
//! caps slice height far below this anyway (§3.4: tall slices cannot be
//! energy-efficient).
//!
//! A node keeps only what tree building reads: the producer's pc (the
//! instruction itself is `program.instructions[pc]`), its operand values
//! and its operand links.
//!
//! # Index width
//!
//! Slot indices are `u32`. The arena never holds more slots than nodes were
//! live at once, and each retirement allocates at most
//! [`MAX_NODES_PER_RETIREMENT`] nodes, so a run needs at most
//! `4 × CoreConfig::max_instructions` slots: 800 M under the default
//! 200 M-instruction fuse, well below `u32::MAX` (4.29 G). The conversion
//! is checked all the same: an allocation that finds no index below
//! [`NIL`] returns [`NIL`], so the value is tracked as having no producer
//! rather than aliasing another slot. A pc that does not fit a `u32` is
//! treated the same way.

/// Maximum provenance depth retained while tracking.
pub const TRACK_DEPTH_CAP: u32 = 64;

/// The null link: an untracked or cut operand, an empty root, the end of
/// the free list.
pub const NIL: u32 = u32::MAX;

/// Nodes one retirement can allocate: a compute node plus one shallow
/// clone per source operand (a load allocates at most two).
pub const MAX_NODES_PER_RETIREMENT: u64 = 4;

const LOAD: u8 = 1;
const TRUNCATED: u8 = 2;

/// One node of the provenance DAG.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// Operand values at production time ([`amnesiac_isa::Instruction::srcs`]
    /// order; zero for loads).
    pub src_values: [u64; 3],
    /// Provenance of each source operand, [`NIL`] when untracked
    /// (never-written register) or depth-cut. A load keeps the provenance
    /// of the stored value it observed in `srcs[0]` — slices see *through*
    /// loads. On the free list, `srcs[0]` links to the next free slot.
    pub srcs: [u32; 3],
    /// Static pc of the producing instruction.
    pub pc: u32,
    refs: u32,
    /// Longest path to a leaf below this node (`< TRACK_DEPTH_CAP`).
    pub depth: u8,
    flags: u8,
}

impl Node {
    /// `true` for a load's pass-through node.
    pub fn is_load(&self) -> bool {
        self.flags & LOAD != 0
    }

    /// `true` if this node's children were dropped by the depth cap — its
    /// operand producers are *unknown* (a tracking artifact), not absent.
    pub fn truncated(&self) -> bool {
        self.flags & TRUNCATED != 0
    }
}

/// The slot index for an arena of `len` slots, if one is left below [`NIL`].
fn slot_index(len: usize) -> Option<u32> {
    u32::try_from(len).ok().filter(|&index| index != NIL)
}

/// Reference-counted provenance nodes in one free-listed `Vec`.
#[derive(Debug)]
pub struct Arena {
    nodes: Vec<Node>,
    /// Head of the free list threaded through `srcs[0]`.
    free: u32,
    /// Slots whose nodes await release of their children.
    worklist: Vec<u32>,
    live: u64,
    peak_live: u64,
    allocated: u64,
}

impl Default for Arena {
    fn default() -> Self {
        Arena {
            nodes: Vec::new(),
            free: NIL,
            worklist: Vec::new(),
            live: 0,
            peak_live: 0,
            allocated: 0,
        }
    }
}

impl Arena {
    /// The node in slot `index` (never [`NIL`]).
    pub fn get(&self, index: u32) -> &Node {
        &self.nodes[index as usize]
    }

    /// Nodes live now.
    #[cfg(test)]
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Most nodes live at once over the arena's lifetime.
    pub fn peak_live(&self) -> u64 {
        self.peak_live
    }

    /// Nodes allocated over the arena's lifetime.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Takes one more reference to `index` (a no-op on [`NIL`]).
    pub fn retain(&mut self, index: u32) {
        if index != NIL {
            self.nodes[index as usize].refs += 1;
        }
    }

    /// Drops one reference to `index` (a no-op on [`NIL`]), freeing every
    /// node that becomes unreachable.
    pub fn release(&mut self, index: u32) {
        if index == NIL {
            return;
        }
        // fast path: the node stays live, the worklist is not touched
        let node = &mut self.nodes[index as usize];
        if node.refs > 1 {
            node.refs -= 1;
            return;
        }
        self.worklist.push(index);
        while let Some(index) = self.worklist.pop() {
            let node = &mut self.nodes[index as usize];
            node.refs -= 1;
            if node.refs == 0 {
                let srcs = node.srcs;
                node.srcs[0] = self.free;
                self.free = index;
                self.live -= 1;
                self.worklist.extend(srcs.into_iter().filter(|&s| s != NIL));
            }
        }
    }

    /// Stores `node` with one reference, in a freed slot when there is one.
    /// Returns [`NIL`] when no index below [`NIL`] is left (see the
    /// module's *Index width*).
    fn alloc(&mut self, node: Node) -> u32 {
        let index = if self.free != NIL {
            let index = self.free;
            self.free = self.nodes[index as usize].srcs[0];
            self.nodes[index as usize] = node;
            index
        } else {
            let Some(index) = slot_index(self.nodes.len()) else {
                return NIL;
            };
            self.nodes.push(node);
            index
        };
        self.allocated += 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        index
    }

    /// A copy of node `index` with its children dropped (depth 0).
    fn shallow_clone(&mut self, index: u32) -> u32 {
        let node = self.nodes[index as usize];
        self.alloc(Node {
            srcs: [NIL; 3],
            refs: 1,
            depth: 0,
            flags: node.flags | TRUNCATED,
            ..node
        })
    }

    /// Builds a compute node over the operand provenance `srcs` (borrowed
    /// from the caller's roots; the node takes its own references).
    ///
    /// Children that would push the node past the depth cap are replaced
    /// by *shallow clones* (the child node without its own children): the
    /// immediate producer structure survives — essential for stable tree
    /// shapes across loop iterations whose induction-variable chains grow
    /// without bound — while memory stays bounded.
    pub fn compute(&mut self, pc: usize, srcs: [u32; 3], src_values: [u64; 3]) -> u32 {
        let Ok(pc) = u32::try_from(pc) else {
            return NIL;
        };
        let mut node = Node {
            src_values,
            srcs: [NIL; 3],
            pc,
            refs: 1,
            depth: 0,
            flags: 0,
        };
        for (slot, &child) in node.srcs.iter_mut().zip(&srcs) {
            if child == NIL {
                continue;
            }
            let kid = self.nodes[child as usize];
            // self-recurrences (loop counters `i ← i+1`, accumulators) grow
            // without bound and are never recomputable as chains — the
            // tree walk prunes them anyway. Cut them at one level so they
            // cannot blow the depth cap and truncate unrelated structure
            // around them. Equal pcs are equal instructions.
            let kept_depth = if kid.pc == pc {
                (kid.srcs == [NIL; 3]).then_some(1)
            } else {
                (u32::from(kid.depth) + 1 < TRACK_DEPTH_CAP).then_some(kid.depth + 1)
            };
            *slot = match kept_depth {
                Some(depth) => {
                    node.depth = node.depth.max(depth);
                    self.retain(child);
                    child
                }
                None => {
                    node.depth = node.depth.max(1);
                    self.shallow_clone(child)
                }
            };
        }
        let index = self.alloc(node);
        if index == NIL {
            for child in node.srcs {
                self.release(child);
            }
        }
        index
    }

    /// Builds a load node passing through to `source`, the provenance of
    /// the stored value the load observed (borrowed, as in
    /// [`Arena::compute`]). Loads add no slice depth.
    pub fn load(&mut self, pc: usize, source: u32) -> u32 {
        let Ok(pc) = u32::try_from(pc) else {
            return NIL;
        };
        let mut node = Node {
            src_values: [0; 3],
            srcs: [NIL; 3],
            pc,
            refs: 1,
            depth: 0,
            flags: LOAD,
        };
        if source != NIL {
            let depth = self.nodes[source as usize].depth;
            if u32::from(depth) + 1 >= TRACK_DEPTH_CAP {
                node.srcs[0] = self.shallow_clone(source);
            } else {
                self.retain(source);
                node.srcs[0] = source;
                node.depth = depth;
            }
        }
        let index = self.alloc(node);
        if index == NIL {
            self.release(node.srcs[0]);
        }
        index
    }

    /// Follows load pass-through links from `index` to the nearest compute
    /// producer; [`NIL`] if none survives the depth cap.
    pub fn resolve_compute(&self, mut index: u32) -> u32 {
        while index != NIL {
            let node = &self.nodes[index as usize];
            if !node.is_load() {
                return index;
            }
            index = node.srcs[0];
        }
        NIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_sim::CoreConfig;

    fn li(arena: &mut Arena, pc: usize) -> u32 {
        arena.compute(pc, [NIL; 3], [0; 3])
    }

    #[test]
    fn depth_grows_with_chains() {
        let mut arena = Arena::default();
        let a = li(&mut arena, 0);
        assert_eq!(arena.get(a).depth, 0);
        let b = arena.compute(1, [a, a, NIL], [0; 3]);
        assert_eq!(arena.get(b).depth, 1);
        let c = arena.compute(2, [b, a, NIL], [0; 3]);
        assert_eq!(arena.get(c).depth, 2);
    }

    #[test]
    fn chains_are_cut_at_the_cap_by_shallow_clones() {
        let mut arena = Arena::default();
        let mut node = li(&mut arena, 0);
        for pc in 1..100 {
            let next = arena.compute(pc, [node, node, NIL], [0; 3]);
            arena.release(node);
            node = next;
        }
        assert!(u32::from(arena.get(node).depth) < TRACK_DEPTH_CAP);
        // the deep end was cut: walking down bottoms out at a truncated node
        let mut walked = 0;
        let mut cur = node;
        while arena.get(cur).srcs[0] != NIL {
            cur = arena.get(cur).srcs[0];
            walked += 1;
            assert!(walked <= TRACK_DEPTH_CAP, "walk must terminate");
        }
        assert!(arena.get(cur).truncated());
        arena.release(node);
        assert_eq!(arena.live(), 0, "the whole chain is freed");
    }

    #[test]
    fn self_recurrence_is_cut_at_one_level() {
        let mut arena = Arena::default();
        let seed = li(&mut arena, 0);
        let first = arena.compute(1, [seed, NIL, NIL], [0; 3]);
        // same pc over a childful node: a shallow clone, depth 1
        let second = arena.compute(1, [first, NIL, NIL], [0; 3]);
        let child = arena.get(second).srcs[0];
        assert_ne!(child, first);
        assert!(arena.get(child).truncated());
        assert_eq!(arena.get(second).depth, 1);
        // same pc over a childless node: the node itself is kept
        let third = arena.compute(1, [child, NIL, NIL], [0; 3]);
        assert_eq!(arena.get(third).srcs[0], child);
    }

    #[test]
    fn load_nodes_pass_through_to_compute() {
        let mut arena = Arena::default();
        let producer = li(&mut arena, 0);
        let ld1 = arena.load(1, producer);
        let ld2 = arena.load(2, ld1);
        assert_eq!(arena.resolve_compute(ld2), producer);
        assert_eq!(arena.get(ld2).depth, arena.get(producer).depth, "free");
    }

    #[test]
    fn untracked_load_resolves_to_nil() {
        let mut arena = Arena::default();
        let ld = arena.load(1, NIL);
        assert_eq!(arena.resolve_compute(ld), NIL);
    }

    #[test]
    fn shallow_clones_keep_the_node_but_not_its_children() {
        let mut arena = Arena::default();
        let producer = li(&mut arena, 0);
        let compute = arena.compute(1, [producer, NIL, NIL], [7, 0, 0]);
        let ld = arena.load(2, compute);

        let compute_clone = arena.shallow_clone(compute);
        let node = *arena.get(compute_clone);
        assert!(node.truncated() && !node.is_load());
        assert_eq!(
            (node.pc, node.src_values, node.srcs),
            (1, [7, 0, 0], [NIL; 3])
        );
        assert_eq!(
            arena.resolve_compute(compute_clone),
            compute_clone,
            "a truncated compute node still resolves"
        );

        let load_clone = arena.shallow_clone(ld);
        assert!(arena.get(load_clone).is_load() && arena.get(load_clone).truncated());
        assert_eq!(
            arena.resolve_compute(load_clone),
            NIL,
            "a truncated load node resolves to nothing"
        );
    }

    #[test]
    fn a_load_at_the_cap_wraps_a_shallow_clone() {
        let mut arena = Arena::default();
        let mut deep = li(&mut arena, 0);
        for pc in 1..TRACK_DEPTH_CAP as usize {
            let next = arena.compute(pc, [deep, NIL, NIL], [0; 3]);
            arena.release(deep);
            deep = next;
        }
        assert_eq!(u32::from(arena.get(deep).depth), TRACK_DEPTH_CAP - 1);
        let ld = arena.load(100, deep);
        let clone = arena.get(ld).srcs[0];
        assert_ne!(clone, deep);
        assert!(arena.get(clone).truncated());
        assert_eq!(arena.get(ld).depth, 0);
        assert_eq!(arena.resolve_compute(ld), clone);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut arena = Arena::default();
        let a = li(&mut arena, 0);
        let b = arena.compute(1, [a, NIL, NIL], [0; 3]);
        arena.release(a); // still referenced by b
        assert_eq!(arena.live(), 2);
        arena.release(b); // frees b, then a through the worklist
        assert_eq!(arena.live(), 0);
        let c = li(&mut arena, 2);
        let d = li(&mut arena, 3);
        let mut reused = [c, d];
        reused.sort_unstable();
        assert_eq!(reused, [0, 1], "no slot past the two freed ones");
        assert_eq!(arena.allocated(), 4);
        assert_eq!(arena.peak_live(), 2);
    }

    #[test]
    fn slot_indices_never_wrap() {
        assert_eq!(slot_index(0), Some(0));
        assert_eq!(slot_index(NIL as usize - 1), Some(NIL - 1));
        assert_eq!(slot_index(NIL as usize), None, "NIL is not a slot");
        assert_eq!(slot_index(usize::MAX), None);
    }

    #[test]
    fn default_fuse_fits_the_index_width() {
        let bound = CoreConfig::default().max_instructions * MAX_NODES_PER_RETIREMENT;
        assert!(bound < u64::from(NIL), "{bound} slots would not fit u32");
    }
}
