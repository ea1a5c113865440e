//! Symbolic value-flow over the main code: hash-consed expressions with
//! per-`(block, reg)` join tokens.
//!
//! Every register at every block entry gets an expression over constants,
//! opaque *tokens*, and pure operators. A token stands for a value the
//! analysis cannot (or chooses not to) expand: the result of a load, or the
//! merged value at a join point. Two occurrences of the same expression at
//! the same program point denote the same runtime value; across program
//! points a token's value may differ (the equivalence prover accounts for
//! that with explicit unification, see `equiv`).

use std::collections::HashMap;

use amnesiac_cfg::Cfg;
use amnesiac_isa::{AluOp, CvtKind, DecodedInst, DecodedOp, FpOp, FpUnOp, NUM_REGS};

/// Index of a hash-consed expression node in an [`ExprArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

/// Opaque non-integer pure operators (bit-level fp and conversions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PureKind {
    /// Binary fp operation.
    Fpu(FpOp),
    /// Unary fp operation.
    FpuUn(FpUnOp),
    /// Fused multiply-add.
    Fma,
    /// Int/fp conversion.
    Cvt(CvtKind),
}

/// A hash-consed expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// A compile-time constant.
    Const(u64),
    /// The merged (loop-carried or path-dependent) value of `reg` at the
    /// entry of `block`.
    Join {
        /// The block whose entry merges the value.
        block: u32,
        /// The merged register.
        reg: u8,
    },
    /// The value most recently produced by the `Load`/`RCMP` at `pc`.
    Load {
        /// Main-code pc of the loading instruction.
        pc: u32,
    },
    /// An integer ALU application.
    Alu {
        /// The operation.
        op: AluOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// An opaque pure operator application (fp / conversion).
    Pure {
        /// Which operator.
        kind: PureKind,
        /// Operands (unused trail as `Const(0)`).
        args: [ExprId; 3],
    },
}

/// Hash-consing arena: structurally equal expressions share one id, so
/// syntactic equality is id equality.
#[derive(Debug, Default)]
pub struct ExprArena {
    nodes: Vec<Node>,
    index: HashMap<Node, ExprId>,
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> ExprArena {
        ExprArena::default()
    }

    /// Interns a node verbatim.
    pub fn intern(&mut self, node: Node) -> ExprId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.index.insert(node, id);
        id
    }

    /// The node behind an id.
    pub fn node(&self, id: ExprId) -> Node {
        self.nodes[id.0 as usize]
    }

    /// Interns a constant.
    pub fn constant(&mut self, v: u64) -> ExprId {
        self.intern(Node::Const(v))
    }

    /// Interns an ALU application with light canonicalisation: constants
    /// fold, and additive/multiplicative identities vanish. Folding mirrors
    /// [`AluOp::apply`] exactly, so a canonical form is still value-exact.
    pub fn alu(&mut self, op: AluOp, lhs: ExprId, rhs: ExprId) -> ExprId {
        if let (Node::Const(a), Node::Const(b)) = (self.node(lhs), self.node(rhs)) {
            return self.constant(op.apply(a, b));
        }
        match (op, self.node(lhs), self.node(rhs)) {
            (AluOp::Add, Node::Const(0), _) => rhs,
            (
                AluOp::Add | AluOp::Sub | AluOp::Xor | AluOp::Or | AluOp::Shl | AluOp::Shr,
                _,
                Node::Const(0),
            ) => lhs,
            (AluOp::Mul, Node::Const(1), _) => rhs,
            (AluOp::Mul | AluOp::Div, _, Node::Const(1)) => lhs,
            (AluOp::Mul | AluOp::And, _, Node::Const(0)) => self.constant(0),
            (AluOp::Mul | AluOp::And, Node::Const(0), _) => self.constant(0),
            _ => self.intern(Node::Alu { op, lhs, rhs }),
        }
    }

    /// Interns a pure (fp/conversion) application, folding all-const args.
    pub fn pure(&mut self, kind: PureKind, args: [ExprId; 3]) -> ExprId {
        let consts: Vec<Option<u64>> = args
            .iter()
            .map(|&a| match self.node(a) {
                Node::Const(v) => Some(v),
                _ => None,
            })
            .collect();
        if let (Some(a), Some(b), Some(c)) = (consts[0], consts[1], consts[2]) {
            let v = match kind {
                PureKind::Fpu(op) => op.apply(a, b),
                PureKind::FpuUn(op) => op.apply(a),
                PureKind::Cvt(k) => k.apply(a),
                PureKind::Fma => {
                    let (x, y, z) = (f64::from_bits(a), f64::from_bits(b), f64::from_bits(c));
                    x.mul_add(y, z).to_bits()
                }
            };
            return self.constant(v);
        }
        self.intern(Node::Pure { kind, args })
    }

    /// `true` if the expression contains any token (Join or Load) node.
    pub fn has_token(&self, id: ExprId) -> bool {
        match self.node(id) {
            Node::Const(_) => false,
            Node::Join { .. } | Node::Load { .. } => true,
            Node::Alu { lhs, rhs, .. } => self.has_token(lhs) || self.has_token(rhs),
            Node::Pure { args, .. } => args.iter().any(|&a| self.has_token(a)),
        }
    }

    /// Collects the distinct token ids occurring in the expression.
    pub fn tokens(&self, id: ExprId) -> Vec<ExprId> {
        let mut out = Vec::new();
        self.collect_tokens(id, &mut out);
        out
    }

    fn collect_tokens(&self, id: ExprId, out: &mut Vec<ExprId>) {
        match self.node(id) {
            Node::Const(_) => {}
            Node::Join { .. } | Node::Load { .. } => {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
            Node::Alu { lhs, rhs, .. } => {
                self.collect_tokens(lhs, out);
                self.collect_tokens(rhs, out);
            }
            Node::Pure { args, .. } => {
                for a in args {
                    self.collect_tokens(a, out);
                }
            }
        }
    }

    /// Rewrites every token of `id` that `bindings` maps, leaving the
    /// replacement expressions untouched (no recursive rewriting inside
    /// them).
    pub fn substitute(&mut self, id: ExprId, bindings: &HashMap<ExprId, ExprId>) -> ExprId {
        if let Some(&r) = bindings.get(&id) {
            return r;
        }
        match self.node(id) {
            Node::Const(_) | Node::Join { .. } | Node::Load { .. } => id,
            Node::Alu { op, lhs, rhs } => {
                let l = self.substitute(lhs, bindings);
                let r = self.substitute(rhs, bindings);
                self.alu(op, l, r)
            }
            Node::Pure { kind, args } => {
                let a = args.map(|x| self.substitute(x, bindings));
                self.pure(kind, a)
            }
        }
    }
}

/// Symbolic register states per block, over a shared arena.
#[derive(Debug)]
pub struct SymbolicAnalysis {
    /// The expression arena (shared with downstream consumers).
    pub arena: ExprArena,
    entry: Vec<Option<Vec<ExprId>>>,
    /// Final incoming expressions per tokenized `(block, reg)` join:
    /// `(pred_block, expr at pred exit)`.
    join_inputs: HashMap<(u32, u8), Vec<(usize, ExprId)>>,
}

/// Applies one instruction symbolically.
fn sym_transfer(arena: &mut ExprArena, pc: usize, d: &DecodedInst, state: &mut [ExprId]) {
    let src = |arena: &mut ExprArena, state: &[ExprId], j: usize| {
        d.srcs[j]
            .map(|r| state[r.index()])
            .unwrap_or_else(|| arena.constant(0))
    };
    let out = match d.op {
        DecodedOp::Li { imm, .. } => Some(arena.constant(imm)),
        DecodedOp::Alu { op, .. } => {
            let a = src(arena, state, 0);
            let b = src(arena, state, 1);
            Some(arena.alu(op, a, b))
        }
        DecodedOp::Alui { op, imm, .. } => {
            let a = src(arena, state, 0);
            let b = arena.constant(imm);
            Some(arena.alu(op, a, b))
        }
        DecodedOp::Fpu { op, .. } => {
            let a = src(arena, state, 0);
            let b = src(arena, state, 1);
            let z = arena.constant(0);
            Some(arena.pure(PureKind::Fpu(op), [a, b, z]))
        }
        DecodedOp::FpuUn { op, .. } => {
            let a = src(arena, state, 0);
            let z = arena.constant(0);
            Some(arena.pure(PureKind::FpuUn(op), [a, z, z]))
        }
        DecodedOp::Fma { .. } => {
            let a = src(arena, state, 0);
            let b = src(arena, state, 1);
            let c = src(arena, state, 2);
            Some(arena.pure(PureKind::Fma, [a, b, c]))
        }
        DecodedOp::Cvt { kind, .. } => {
            let a = src(arena, state, 0);
            let z = arena.constant(0);
            Some(arena.pure(PureKind::Cvt(kind), [a, z, z]))
        }
        DecodedOp::Load { .. } | DecodedOp::Rcmp { .. } => {
            Some(arena.intern(Node::Load { pc: pc as u32 }))
        }
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

impl SymbolicAnalysis {
    /// Runs the symbolic flow to fixpoint.
    ///
    /// Join rule: a `(block, reg)` whose incoming expressions ever disagree
    /// is *tokenized* — its entry becomes `Join { block, reg }` — and stays
    /// tokenized (the decision is sticky, which bounds the iteration count).
    /// As a belt against pathological non-termination of the expression
    /// propagation itself, any entry still changing after `blocks + 8`
    /// passes is force-tokenized.
    pub fn run(decoded: &[DecodedInst], cfg: &Cfg) -> SymbolicAnalysis {
        let n = cfg.len();
        let mut arena = ExprArena::new();
        let mut entry: Vec<Option<Vec<ExprId>>> = vec![None; n];
        let mut exit: Vec<Option<Vec<ExprId>>> = vec![None; n];
        let mut tokenized: HashMap<(u32, u8), bool> = HashMap::new();
        let mut join_inputs = HashMap::new();
        let Some(e) = cfg.entry_block else {
            return SymbolicAnalysis {
                arena,
                entry,
                join_inputs,
            };
        };
        let zero = arena.constant(0);
        entry[e] = Some(vec![zero; NUM_REGS]);

        let max_soft_iters = n + 8;
        let mut iters = 0usize;
        loop {
            iters += 1;
            let mut changed = false;
            for &b in cfg.rpo() {
                // merge predecessors (the entry block keeps its initial state)
                if b != e {
                    let preds: Vec<(usize, ExprId)> = Vec::new();
                    let mut incoming: Vec<Vec<(usize, ExprId)>> = vec![preds; NUM_REGS];
                    let mut any = false;
                    for &p in &cfg.blocks[b].preds {
                        if let Some(px) = &exit[p] {
                            any = true;
                            for r in 0..NUM_REGS {
                                incoming[r].push((p, px[r]));
                            }
                        }
                    }
                    if !any {
                        continue;
                    }
                    let mut merged = vec![zero; NUM_REGS];
                    for (r, inc) in incoming.iter().enumerate() {
                        let key = (b as u32, r as u8);
                        let force = iters > max_soft_iters;
                        let agree = inc.windows(2).all(|w| w[0].1 == w[1].1);
                        let already = tokenized.get(&key).copied().unwrap_or(false);
                        if already || !agree || (force && entry[b].is_some()) {
                            tokenized.insert(key, true);
                            merged[r] = arena.intern(Node::Join {
                                block: b as u32,
                                reg: r as u8,
                            });
                            join_inputs.insert(key, inc.clone());
                        } else {
                            merged[r] = inc[0].1;
                        }
                    }
                    if entry[b].as_deref() != Some(&merged[..]) {
                        entry[b] = Some(merged);
                        changed = true;
                    }
                }
                // transfer the block
                if let Some(state) = entry[b].clone() {
                    let mut out = state;
                    for pc in cfg.blocks[b].start..cfg.blocks[b].end {
                        sym_transfer(&mut arena, pc, &decoded[pc], &mut out);
                    }
                    if exit[b].as_deref() != Some(&out[..]) {
                        exit[b] = Some(out);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // keep only join inputs of actually-tokenized registers
        join_inputs.retain(|k, _| tokenized.get(k).copied().unwrap_or(false));
        SymbolicAnalysis {
            arena,
            entry,
            join_inputs,
        }
    }

    /// Symbolic register state immediately before `pc` executes.
    pub fn state_at(
        &mut self,
        decoded: &[DecodedInst],
        cfg: &Cfg,
        pc: usize,
    ) -> Option<Vec<ExprId>> {
        let b = cfg.block_of_pc(pc)?;
        let mut state = self.entry.get(b)?.clone()?;
        for p in cfg.blocks[b].start..pc {
            sym_transfer(&mut self.arena, p, &decoded[p], &mut state);
        }
        Some(state)
    }

    /// The final incoming `(pred_block, expr)` list of a tokenized join, or
    /// `None` if `(block, reg)` was never tokenized.
    pub fn join_inputs(&self, block: usize, reg: u8) -> Option<&[(usize, ExprId)]> {
        self.join_inputs
            .get(&(block as u32, reg))
            .map(|v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{predecode, AluOp, BranchCond, ProgramBuilder, Reg};

    #[test]
    fn arena_hash_conses_and_folds() {
        let mut a = ExprArena::new();
        let c2 = a.constant(2);
        let c3 = a.constant(3);
        let s1 = a.alu(AluOp::Add, c2, c3);
        assert_eq!(a.node(s1), Node::Const(5), "const folding");
        let t = a.intern(Node::Load { pc: 4 });
        let e1 = a.alu(AluOp::Mul, c2, t);
        let e2 = a.alu(AluOp::Mul, c2, t);
        assert_eq!(e1, e2, "hash consing");
        let z = a.constant(0);
        assert_eq!(a.alu(AluOp::Add, t, z), t, "x + 0 = x");
        assert_eq!(a.alu(AluOp::Mul, t, z), z, "x * 0 = 0");
        assert!(a.has_token(e1));
        assert!(!a.has_token(s1));
        assert_eq!(a.tokens(e1), vec![t]);
    }

    #[test]
    fn substitute_rewrites_only_mapped_tokens() {
        let mut a = ExprArena::new();
        let t1 = a.intern(Node::Load { pc: 1 });
        let t2 = a.intern(Node::Load { pc: 2 });
        let c7 = a.constant(7);
        let e = a.alu(AluOp::Add, t1, t2);
        let mut bind = HashMap::new();
        bind.insert(t1, c7);
        let r = a.substitute(e, &bind);
        let expect = a.alu(AluOp::Add, c7, t2);
        assert_eq!(r, expect);
    }

    /// The fill loop: i joins at the head into a token whose back-edge
    /// input is `i + 1` and whose preheader input is `0`.
    #[test]
    fn loop_index_tokenizes_with_affine_inputs() {
        let mut b = ProgramBuilder::new("t");
        let tmp = b.alloc_zeroed(50);
        b.li(Reg(1), tmp);
        b.li(Reg(2), 0);
        b.li(Reg(3), 50);
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        let guard = b.branch(BranchCond::Geu, Reg(2), Reg(3), done);
        let addr_pc = b.alu(AluOp::Add, Reg(7), Reg(1), Reg(2));
        b.store(Reg(2), Reg(7), 0);
        b.alui(AluOp::Add, Reg(2), Reg(2), 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        let mut sym = SymbolicAnalysis::run(&decoded, &cfg);

        let head = cfg.block_of_pc(guard).unwrap();
        let at_addr = sym.state_at(&decoded, &cfg, addr_pc).unwrap();
        let tok = sym.arena.intern(Node::Join {
            block: head as u32,
            reg: 2,
        });
        assert_eq!(at_addr[2], tok, "the loop index is the head's join token");
        // base pointer stays a constant through the loop
        assert_eq!(sym.arena.node(at_addr[1]), Node::Const(tmp));
        // the join saw Const(0) from the preheader and token+1 from the
        // back edge
        let inputs = sym.join_inputs(head, 2).unwrap().to_vec();
        assert_eq!(inputs.len(), 2);
        let exprs: Vec<Node> = inputs.iter().map(|&(_, e)| sym.arena.node(e)).collect();
        assert!(
            exprs.contains(&Node::Const(0)),
            "preheader input: {exprs:?}"
        );
        let one = sym.arena.constant(1);
        let bumped = sym.arena.alu(AluOp::Add, tok, one);
        assert!(
            inputs.iter().any(|&(_, e)| e == bumped),
            "back-edge input is token + 1"
        );
    }

    #[test]
    fn straight_line_exprs_stay_concrete() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg(1), 20);
        let add = b.alui(AluOp::Add, Reg(2), Reg(1), 3);
        b.halt();
        let p = b.finish().unwrap();
        let decoded = predecode(&p);
        let cfg = Cfg::build(&decoded, p.code_len, p.entry);
        let mut sym = SymbolicAnalysis::run(&decoded, &cfg);
        let s = sym.state_at(&decoded, &cfg, add + 1).unwrap();
        assert_eq!(sym.arena.node(s[2]), Node::Const(23));
    }
}
