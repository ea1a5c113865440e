//! Dispatch microbenchmark: retiring a real benchmark's static instruction
//! stream through the legacy enum-match path (rebuild `srcs`, re-derive the
//! category, nested `eval_compute` match), versus the predecoded table from
//! PR 3, versus the block/superinstruction tape the interpreters now use
//! (charge constants pre-summed per block, dispatch only at eval points).
//! Set `AMNESIAC_BENCH_JSON=<path>` to also dump the measurements — plus
//! the block lowering's fusion statistics — as JSON.

use amnesiac_bench::Bencher;
use amnesiac_cfg::{BlockTable, Fusion};
use amnesiac_isa::{predecode, Category, DecodedInst, DecodedOp, Instruction};
use amnesiac_sim::eval_compute;
use amnesiac_telemetry::Json;
use amnesiac_workloads::{build_focal, Scale};

/// Full sweeps over the static stream per sample — enough retirements to
/// swamp the loop overhead.
const SWEEPS: usize = 500;

/// A stand-in for `Machine::charge_op`: fold the category into the
/// accumulator so the per-retirement category derivation is not dead code.
#[inline]
fn charge(category: Category) -> u64 {
    category as u64 + 1
}

fn enum_sweep(insts: &[Instruction]) -> u64 {
    let mut acc = 0u64;
    for inst in insts {
        let srcs = inst.srcs();
        let mut vals = [0u64; 3];
        for (j, s) in srcs.iter().enumerate() {
            if let Some(r) = s {
                vals[j] = acc ^ r.index() as u64;
            }
        }
        match inst {
            Instruction::Load { .. }
            | Instruction::Store { .. }
            | Instruction::Branch { .. }
            | Instruction::Jump { .. }
            | Instruction::Halt
            | Instruction::Rcmp { .. }
            | Instruction::Rtn { .. }
            | Instruction::Rec { .. } => {
                acc = acc.wrapping_add(charge(inst.category()));
            }
            compute => {
                acc = acc.wrapping_add(eval_compute(compute, vals));
                acc = acc.wrapping_add(charge(compute.category()));
            }
        }
    }
    acc
}

fn decoded_sweep(decoded: &[DecodedInst]) -> u64 {
    let mut acc = 0u64;
    for d in decoded {
        let mut vals = [0u64; 3];
        for (j, s) in d.srcs.iter().enumerate() {
            if let Some(r) = s {
                vals[j] = acc ^ r.index() as u64;
            }
        }
        match d.op {
            DecodedOp::Load { .. }
            | DecodedOp::Store { .. }
            | DecodedOp::Branch { .. }
            | DecodedOp::Jump { .. }
            | DecodedOp::Halt
            | DecodedOp::Rcmp { .. }
            | DecodedOp::Rtn
            | DecodedOp::Rec { .. } => {
                acc = acc.wrapping_add(charge(d.category));
            }
            _ => {
                acc = acc.wrapping_add(d.eval_compute(vals));
                acc = acc.wrapping_add(charge(d.category));
            }
        }
    }
    acc
}

/// An eval point in a block's tape: the folded charge constant of the
/// non-eval run preceding it (one `wrapping_add`, however long the run),
/// then the compute instruction whose result feeds the accumulator. The
/// operand gather is pre-resolved: `vals[j] = acc ^ xors[j]` unconditionally
/// (`eval_compute` only reads the positions the op actually has operands
/// in, so absent slots may hold anything) — the sweep never walks the
/// `Option` operand array.
struct TapeStep {
    pre: u64,
    xors: [u64; 3],
    inst: DecodedInst,
}

/// A block's positional tape: eval points plus the trailing folded charge.
struct TapeBlock {
    steps: Vec<TapeStep>,
    tail: u64,
}

/// Accumulator feedback points: everything the sweeps' `_` arm evaluates.
/// All other ops contribute only their (associative) charge constant, so
/// the lowering folds them away.
fn is_eval(d: &DecodedInst) -> bool {
    !matches!(
        d.op,
        DecodedOp::Load { .. }
            | DecodedOp::Store { .. }
            | DecodedOp::Branch { .. }
            | DecodedOp::Jump { .. }
            | DecodedOp::Halt
            | DecodedOp::Rcmp { .. }
            | DecodedOp::Rtn
            | DecodedOp::Rec { .. }
    )
}

/// Lowers a straight-line run into a tape block. A compute instruction's
/// own charge is deferred into the next step's constant (or the tail) —
/// exact, because `wrapping_add` is associative, so the accumulator value
/// at every eval point is bit-identical to the linear sweeps'. Zero-operand
/// computes (`li`: constant materialisation) never read the accumulator, so
/// their value *and* charge fold into the constants at build time — the
/// tape only dispatches where there is genuine accumulator feedback.
fn flatten(insts: &[DecodedInst]) -> TapeBlock {
    let mut steps = Vec::new();
    let mut pre = 0u64;
    for d in insts {
        if !is_eval(d) {
            pre = pre.wrapping_add(charge(d.category));
        } else if d.srcs.iter().all(Option::is_none) {
            // constant-producing: eval at lowering time, fold like a charge
            pre = pre
                .wrapping_add(d.eval_compute([0; 3]))
                .wrapping_add(charge(d.category));
        } else {
            let mut xors = [0u64; 3];
            for (j, s) in d.srcs.iter().enumerate() {
                if let Some(r) = s {
                    xors[j] = r.index() as u64;
                }
            }
            steps.push(TapeStep {
                pre,
                xors,
                inst: *d,
            });
            pre = charge(d.category);
        }
    }
    TapeBlock { steps, tail: pre }
}

/// The full program as tape blocks, in linear pc order (so the sweep
/// retires the exact stream the other two arms do). Main code rides one
/// tape per block; slice-body pcs, which form no blocks, ride singleton
/// tapes.
fn build_tape(table: &BlockTable) -> Vec<TapeBlock> {
    let decoded = table.decoded();
    let mut tape = Vec::new();
    let mut pc = 0;
    while pc < decoded.len() {
        let end = if pc < table.code_len() {
            table.main_block(pc).end
        } else {
            pc + 1
        };
        tape.push(flatten(&decoded[pc..end]));
        pc = end;
    }
    tape
}

fn block_sweep(tape: &[TapeBlock]) -> u64 {
    let mut acc = 0u64;
    for block in tape {
        for step in &block.steps {
            acc = acc.wrapping_add(step.pre);
            let vals = [acc ^ step.xors[0], acc ^ step.xors[1], acc ^ step.xors[2]];
            acc = acc.wrapping_add(step.inst.eval_compute(vals));
        }
        acc = acc.wrapping_add(block.tail);
    }
    acc
}

fn main() {
    let mut b = Bencher::new(20);
    let program = build_focal("cg", Scale::Test).program;
    let insts = program.instructions.clone();
    let decoded = predecode(&program);
    let table = BlockTable::build(&program);
    let tape = build_tape(&table);

    // the three paths must retire identical streams to identical effect
    assert_eq!(enum_sweep(&insts), decoded_sweep(&decoded));
    assert_eq!(enum_sweep(&insts), block_sweep(&tape));

    b.bench("dispatch/enum_match", || {
        let mut acc = 0u64;
        for _ in 0..SWEEPS {
            acc = acc.wrapping_add(enum_sweep(&insts));
        }
        acc
    });
    b.bench("dispatch/predecoded", || {
        let mut acc = 0u64;
        for _ in 0..SWEEPS {
            acc = acc.wrapping_add(decoded_sweep(&decoded));
        }
        acc
    });
    b.bench("dispatch/block_fused", || {
        let mut acc = 0u64;
        for _ in 0..SWEEPS {
            acc = acc.wrapping_add(block_sweep(&tape));
        }
        acc
    });

    let stats = table.stats();
    println!(
        "fusion: {} blocks, {} insts, {} pairs fused \
         (cmp_branch {}, load_alu {}, alui_store {}, li_alu {}), \
         avg block len {:.2}",
        stats.blocks,
        stats.insts,
        stats.fused_pairs(),
        stats.fused_of(Fusion::CmpBranch),
        stats.fused_of(Fusion::LoadAlu),
        stats.fused_of(Fusion::AluiStore),
        stats.fused_of(Fusion::LiAlu),
        stats.avg_block_len(),
    );

    if let Ok(path) = std::env::var("AMNESIAC_BENCH_JSON") {
        let mut by_kind = Json::obj();
        for kind in Fusion::ALL {
            by_kind = by_kind.with(kind.label(), stats.fused_of(kind));
        }
        let dump = Json::obj().with("measurements", b.to_json()).with(
            "fusion",
            Json::obj()
                .with("blocks", stats.blocks)
                .with("insts", stats.insts)
                .with("fused_pairs", stats.fused_pairs())
                .with("fused_by_kind", by_kind)
                .with("dispatch_units", stats.dispatch_units())
                .with("avg_block_len", stats.avg_block_len()),
        );
        std::fs::write(&path, dump.pretty()).expect("write bench JSON");
        println!("wrote {path}");
    }
}
