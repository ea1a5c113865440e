//! Differential suite for the block engine: a small instruction-at-a-time
//! reference interpreter, defined here and nowhere else, drives the same
//! [`Hooks`] implementations as [`run_blocks`]. Under the classic, amnesic
//! and replay hooks, the two must be byte-identical on architectural
//! state, memory image, observer event streams, energy accounts, amnesic
//! statistics, and error paths — across randomly generated
//! control-flow-heavy programs, directed edge cases, small fuses that land
//! mid-block, between fused halves and inside an `RCMP`'s extra
//! retirements, and the full 33-workload sweep.
//!
//! Both sides finish their hooks even when the run fails, so a fuse that
//! blows is checked at the exact retirement it blew at, not just by its
//! error value.

use amnesiac_cfg::BlockTable;
use amnesiac_compiler::{compile, CompileOptions, ReplayHooks, ReplayOutcome};
use amnesiac_core::{AmnesicConfig, AmnesicError, AmnesicHooks, AmnesicRunResult, Policy};
use amnesiac_isa::{
    AluOp, BranchCond, Category, DecodedInst, DecodedOp, Instruction, MemRange, Program, Reg,
    SliceId,
};
use amnesiac_mem::ServiceLevel;
use amnesiac_profile::profile_program;
use amnesiac_rng::Rng;
use amnesiac_sim::{
    run_blocks, ClassicHooks, CoreConfig, Counts, Hooks, Observer, RcmpRetire, RetireEvent,
    RunError, RunResult,
};
use amnesiac_workloads::{all_workloads, build_focal, Scale};

const RNG_PROGRAMS: usize = 64;
const RNG_SEED: u64 = 0xB10C;

/// The reference: one fuse check, range check, fetch and retirement per
/// instruction, with no blocks and no fusion.
fn run_reference<H: Hooks>(
    program: &Program,
    decoded: &[DecodedInst],
    hooks: &mut H,
    max: u64,
) -> Result<Counts, H::Error> {
    let mut n = Counts::default();
    let mut pc = program.entry;
    loop {
        if n.instructions >= max {
            return Err(RunError::FuseBlown { limit: max }.into());
        }
        if pc >= program.code_len {
            return Err(RunError::PcOutOfRange { pc }.into());
        }
        let d = &decoded[pc];
        hooks.fetch(pc);
        n.instructions += 1;
        let mut srcs = [0u64; 3];
        for (j, s) in d.srcs.iter().enumerate() {
            if let Some(r) = s {
                srcs[j] = hooks.regs()[r.index()];
            }
        }
        let mut next = pc + 1;
        match d.op {
            DecodedOp::Halt => {
                hooks.control(pc, Category::Jump, srcs);
                return Ok(n);
            }
            DecodedOp::Load { dst, offset } => {
                let value = hooks.load(pc, srcs, srcs[0].wrapping_add(offset as u64));
                hooks.regs()[dst.index()] = value;
                n.loads += 1;
            }
            DecodedOp::Store { offset } => {
                hooks.store(pc, srcs, srcs[1].wrapping_add(offset as u64));
                n.stores += 1;
            }
            DecodedOp::Branch { cond, target } => {
                hooks.control(pc, Category::Branch, srcs);
                if cond.eval(srcs[0], srcs[1]) {
                    next = target;
                }
            }
            DecodedOp::Jump { target } => {
                hooks.control(pc, Category::Jump, srcs);
                next = target;
            }
            DecodedOp::Rec { key } => hooks.rec(pc, key, srcs)?,
            DecodedOp::Rcmp { dst, offset, slice } => {
                let r = hooks.rcmp(pc, slice, srcs[0].wrapping_add(offset as u64))?;
                hooks.regs()[dst.index()] = r.value;
                n.instructions += r.extra_retired;
                n.loads += u64::from(r.loaded);
            }
            DecodedOp::Rtn => return Err(RunError::unexpected(program, pc).into()),
            _ => {
                let value = d.eval_compute(srcs);
                let dst = d.dst().expect("compute instructions write a register");
                hooks.regs()[dst.index()] = value;
                hooks.compute(pc, d.category, srcs, value);
            }
        }
        pc = next;
    }
}

/// One owned retirement record: pc, operand values, result, address, level.
type Retired = (
    usize,
    [u64; 3],
    Option<u64>,
    Option<u64>,
    Option<ServiceLevel>,
);

/// Records every retirement the classic hooks report, as owned values, so
/// two runs' full dynamic event streams can be compared exactly.
#[derive(Default)]
struct Recorder {
    events: Vec<Retired>,
}

impl Observer for Recorder {
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        self.events.push((
            event.pc,
            event.src_values,
            event.result,
            event.addr,
            event.level,
        ));
    }
}

fn config(fuse: u64) -> CoreConfig {
    let mut c = CoreConfig::paper();
    c.max_instructions = fuse;
    c
}

/// Asserts the two runs ended the same way: equal counts, or equal errors.
fn assert_outcomes<E: PartialEq + std::fmt::Debug>(
    name: &str,
    reference: &Result<Counts, E>,
    engine: &Result<Counts, E>,
) {
    match (reference, engine) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{name}: dynamic counts"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{name}: error paths differ"),
        _ => panic!("{name}: one side failed, the other succeeded: {reference:?} vs {engine:?}"),
    }
}

fn assert_runs_equal(name: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.instructions, b.instructions, "{name}: instruction count");
    assert_eq!(a.loads, b.loads, "{name}: load count");
    assert_eq!(a.stores, b.stores, "{name}: store count");
    assert_eq!(a.final_memory, b.final_memory, "{name}: memory image");
    assert_eq!(a.hierarchy, b.hierarchy, "{name}: hierarchy stats");
    assert_eq!(a.account, b.account, "{name}: energy account (bit-exact)");
}

/// Runs one program through the classic hooks on both sides with a
/// recording observer and asserts full equivalence, success or failure.
fn check_classic(name: &str, program: &Program, fuse: u64) {
    let table = BlockTable::build(program);
    let config = config(fuse);
    let (mut reference_events, mut engine_events) = (Recorder::default(), Recorder::default());

    let mut reference = ClassicHooks::new(&config, program, &mut reference_events);
    let a = run_reference(program, table.decoded(), &mut reference, fuse);
    let mut engine = ClassicHooks::new(&config, program, &mut engine_events);
    let b = run_blocks(program, &table, &mut engine, fuse);

    assert_outcomes(name, &a, &b);
    assert_runs_equal(
        name,
        &reference.finish(a.unwrap_or_default()),
        &engine.finish(b.unwrap_or_default()),
    );
    assert_eq!(
        reference_events.events, engine_events.events,
        "{name}: observer event streams differ"
    );
}

/// Runs validation replay on both sides and asserts identical outcomes.
fn check_replay(name: &str, program: &Program, fuse: u64) {
    let table = BlockTable::build(program);
    let mut reference = ReplayHooks::new(program, table.decoded());
    let a = run_reference(program, table.decoded(), &mut reference, fuse);
    let mut engine = ReplayHooks::new(program, table.decoded());
    let b = run_blocks(program, &table, &mut engine, fuse);

    assert_outcomes(name, &a, &b);
    let (a, b): (ReplayOutcome, ReplayOutcome) = (reference.finish(), engine.finish());
    assert_eq!(a.per_slice, b.per_slice, "{name}: replay slice stats");
    assert_eq!(a.output, b.output, "{name}: replay output image");
}

/// Runs the amnesic hooks on both sides; returns the engine's outcome and
/// its finished result.
fn check_amnesic(
    name: &str,
    program: &Program,
    config: &AmnesicConfig,
) -> (Result<Counts, AmnesicError>, AmnesicRunResult) {
    let fuse = config.core.max_instructions;
    let table = BlockTable::build(program);
    let mut reference = AmnesicHooks::new(config, program, table.decoded());
    let a = run_reference(program, table.decoded(), &mut reference, fuse);
    let mut engine = AmnesicHooks::new(config, program, table.decoded());
    let b = run_blocks(program, &table, &mut engine, fuse);

    assert_outcomes(name, &a, &b);
    let engine = engine.finish(b.clone().unwrap_or_default());
    assert_amnesic_equal(name, &reference.finish(a.unwrap_or_default()), &engine);
    (b, engine)
}

fn assert_amnesic_equal(name: &str, a: &AmnesicRunResult, b: &AmnesicRunResult) {
    assert_runs_equal(name, &a.run, &b.run);
    let (s, t) = (&a.stats, &b.stats);
    assert_eq!(s.per_slice, t.per_slice, "{name}: per-slice stats");
    assert_eq!(s.swapped_levels, t.swapped_levels, "{name}: swap profile");
    assert_eq!(
        s.performed_levels, t.performed_levels,
        "{name}: perform profile"
    );
    assert_eq!(
        s.recompute_insts, t.recompute_insts,
        "{name}: recompute count"
    );
    assert_eq!(
        s.deferred_exceptions, t.deferred_exceptions,
        "{name}: deferred exceptions"
    );
    assert_eq!(
        (s.sfile_high_water, s.hist_high_water, s.ibuff_high_water),
        (t.sfile_high_water, t.hist_high_water, t.ibuff_high_water),
        "{name}: structure high-water marks"
    );
    assert_eq!(
        (
            s.ibuff_hits,
            s.ibuff_misses,
            s.hist_reads,
            s.hist_failed_writes
        ),
        (
            t.ibuff_hits,
            t.ibuff_misses,
            t.hist_reads,
            t.hist_failed_writes
        ),
        "{name}: supply counters"
    );
    assert_eq!(
        (s.rename_requests, s.predictions, s.mispredictions),
        (t.rename_requests, t.predictions, t.mispredictions),
        "{name}: rename/prediction counters"
    );
}

/// Generates a random classic program exercising the block engine's edges:
/// fused pairs, zero-trip loops, backward branches, stores into a declared
/// output window, and (sometimes) a fallthrough off the end of main code
/// into a junk region shaped like slice bodies.
fn rng_program(r: &mut Rng, case: usize) -> Program {
    let n = r.range_usize(4, 40);
    // r0..r6 carry arbitrary data (dense enough to fuse); r7 is the only
    // load/store base and only ever holds small `li` constants, keeping
    // effective addresses inside the data window like a real program
    let reg = |r: &mut Rng| Reg(r.below(7) as u8);
    let alu_ops = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Xor, AluOp::And];
    let conds = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];
    let mut insts = Vec::with_capacity(n + 2);
    for _ in 0..n {
        let inst = match r.below(10) {
            0 => Instruction::Li {
                dst: Reg(7),
                imm: r.below(64),
            },
            1 => Instruction::Li {
                dst: reg(r),
                imm: r.below(64),
            },
            2 | 3 => Instruction::Alu {
                op: *r.choose(&alu_ops),
                dst: reg(r),
                lhs: reg(r),
                rhs: reg(r),
            },
            4 | 5 => Instruction::Alui {
                op: *r.choose(&alu_ops),
                dst: reg(r),
                src: reg(r),
                imm: r.below(16),
            },
            6 => Instruction::Load {
                dst: reg(r),
                base: Reg(7),
                offset: r.below(8) as i64,
            },
            7 => Instruction::Store {
                src: reg(r),
                base: Reg(7),
                offset: r.below(8) as i64,
            },
            8 => Instruction::Branch {
                cond: *r.choose(&conds),
                lhs: reg(r),
                rhs: reg(r),
                // any main-code target, forward or backward (the fuse
                // bounds runaway loops; both sides must agree on the blow)
                target: r.below((n + 1) as u64) as usize,
            },
            _ => Instruction::Jump {
                target: r.below((n + 1) as u64) as usize,
            },
        };
        insts.push(inst);
    }
    // Half the programs halt cleanly; the rest fall through to code_len,
    // which must yield the same PcOutOfRange on both sides.
    let falls_through = case % 2 == 1;
    if !falls_through {
        insts.push(Instruction::Halt);
    }
    let mut p = Program::new(format!("rng-{case}"));
    p.code_len = insts.len();
    if falls_through {
        // a junk region past code_len, shaped like slice bodies, that the
        // block table must lower without ever dispatching into
        for _ in 0..r.range_usize(1, 4) {
            insts.push(Instruction::Li {
                dst: Reg(1),
                imm: 0xDEAD,
            });
        }
    }
    p.instructions = insts;
    p.entry = 0;
    for a in 0..8 {
        p.data.set(a, r.next_u64() % 64);
    }
    // stores land in [0, 64 + 8); observe the whole window
    p.output.push(MemRange::new(0, 80));
    p
}

#[test]
fn classic_and_replay_agree_on_rng_programs() {
    let mut r = Rng::seed_from_u64(RNG_SEED);
    for case in 0..RNG_PROGRAMS {
        let p = rng_program(&mut r, case);
        // generous fuse: terminating programs finish, loops blow identically
        check_classic(&p.name, &p, 50_000);
        check_replay(&p.name, &p, 50_000);
        // tiny fuse: FuseBlown must fire at the same retirement even when
        // it lands mid-block or between the halves of a fused pair
        for fuse in [1, 2, 3, 7] {
            check_classic(&format!("{}/fuse{}", p.name, fuse), &p, fuse);
            check_replay(&format!("{}/fuse{}", p.name, fuse), &p, fuse);
        }
    }
}

#[test]
fn directed_edge_cases_agree() {
    // A single-instruction block that branches to itself: the degenerate
    // superblock (one leader, one terminator, no fusion) must spin until
    // the fuse blows identically on both sides.
    let mut spin = Program::new("self-branch");
    spin.instructions = vec![
        Instruction::Branch {
            cond: BranchCond::Eq,
            lhs: Reg(0),
            rhs: Reg(0),
            target: 0,
        },
        Instruction::Halt,
    ];
    spin.code_len = 2;
    check_classic("self-branch", &spin, 1_000);
    check_replay("self-branch", &spin, 1_000);

    // A zero-trip loop: the guard skips the body on the first evaluation,
    // so the backward-branch block retires zero times.
    let mut zero_trip = Program::new("zero-trip");
    zero_trip.instructions = vec![
        Instruction::Li {
            dst: Reg(1),
            imm: 0,
        },
        Instruction::Li {
            dst: Reg(2),
            imm: 0,
        },
        // while r1 < r2 (never): body
        Instruction::Branch {
            cond: BranchCond::Geu,
            lhs: Reg(1),
            rhs: Reg(2),
            target: 6,
        },
        Instruction::Alui {
            op: AluOp::Add,
            dst: Reg(1),
            src: Reg(1),
            imm: 1,
        },
        Instruction::Store {
            src: Reg(1),
            base: Reg(0),
            offset: 0,
        },
        Instruction::Jump { target: 2 },
        Instruction::Halt,
    ];
    zero_trip.code_len = 7;
    zero_trip.output.push(MemRange::new(0, 4));
    check_classic("zero-trip", &zero_trip, 1_000);
    check_replay("zero-trip", &zero_trip, 1_000);

    // Fallthrough off the end of main code into the (unreachable) slice
    // region: both sides must report PcOutOfRange at code_len, not run the
    // junk the block table also lowered.
    let mut fall = Program::new("fallthrough");
    fall.instructions = vec![
        Instruction::Li {
            dst: Reg(1),
            imm: 1,
        },
        Instruction::Li {
            dst: Reg(2),
            imm: 9,
        }, // falls through here
        Instruction::Li {
            dst: Reg(3),
            imm: 0xBAD,
        }, // "slice" region
    ];
    fall.code_len = 2;
    check_classic("fallthrough", &fall, 1_000);
    check_replay("fallthrough", &fall, 1_000);
}

#[test]
fn amnesic_pipeline_agrees_across_the_full_sweep() {
    for workload in all_workloads(Scale::Test) {
        let base = CoreConfig::paper();
        let (profile, _) = profile_program(&workload.program, &base).expect("profiling succeeds");
        let (binary, _) = compile(&workload.program, &profile, &CompileOptions::default())
            .expect("compile succeeds");

        // classic interpreter on the source program
        check_classic(
            &format!("{}/classic", workload.name),
            &workload.program,
            base.max_instructions,
        );
        // replay interpreter on the annotated binary (slice traversal walks
        // the same predecoded stream)
        check_replay(
            &format!("{}/replay", workload.name),
            &binary,
            base.max_instructions,
        );

        // amnesic interpreter on the annotated binary, per policy
        for policy in [Policy::Compiler, Policy::Llc, Policy::Oracle] {
            let name = format!("{}/amnesic/{:?}", workload.name, policy);
            check_amnesic(&name, &binary, &AmnesicConfig::paper(policy))
                .0
                .expect("annotated workloads run to completion");
        }
    }
}

/// Records the retirement count at which each `RCMP` retired and the extra
/// retirements it reported, so fuses can be aimed inside them.
struct RcmpProbe<'a> {
    inner: AmnesicHooks<'a>,
    retired: u64,
    rcmps: Vec<(u64, u64)>,
}

impl Hooks for RcmpProbe<'_> {
    type Error = AmnesicError;

    fn regs(&mut self) -> &mut [u64; amnesiac_isa::NUM_REGS] {
        self.inner.regs()
    }

    fn fetch(&mut self, pc: usize) {
        self.retired += 1;
        self.inner.fetch(pc);
    }

    fn compute(&mut self, pc: usize, category: Category, srcs: [u64; 3], value: u64) {
        self.inner.compute(pc, category, srcs, value);
    }

    fn load(&mut self, pc: usize, srcs: [u64; 3], addr: u64) -> u64 {
        self.inner.load(pc, srcs, addr)
    }

    fn store(&mut self, pc: usize, srcs: [u64; 3], addr: u64) {
        self.inner.store(pc, srcs, addr);
    }

    fn control(&mut self, pc: usize, category: Category, srcs: [u64; 3]) {
        self.inner.control(pc, category, srcs);
    }

    fn rec(&mut self, pc: usize, key: u16, srcs: [u64; 3]) -> Result<(), AmnesicError> {
        self.inner.rec(pc, key, srcs)
    }

    fn rcmp(&mut self, pc: usize, slice: SliceId, addr: u64) -> Result<RcmpRetire, AmnesicError> {
        let r = self.inner.rcmp(pc, slice, addr)?;
        self.rcmps.push((self.retired, r.extra_retired));
        self.retired += r.extra_retired;
        Ok(r)
    }
}

/// Fuses around the first fired `RCMP`s: just before it retires, on it,
/// inside its extra retirements, at their last one, and just past them.
fn fuses_around_rcmps(program: &Program, config: &AmnesicConfig) -> Vec<u64> {
    let table = BlockTable::build(program);
    let mut probe = RcmpProbe {
        inner: AmnesicHooks::new(config, program, table.decoded()),
        retired: 0,
        rcmps: Vec::new(),
    };
    run_blocks(program, &table, &mut probe, config.core.max_instructions)
        .expect("the full run succeeds");
    let mut fuses = Vec::new();
    for &(at, extra) in probe.rcmps.iter().filter(|(_, extra)| *extra > 1).take(3) {
        fuses.extend([
            at - 1,
            at,
            at + 1,
            at + extra / 2,
            at + extra,
            at + extra + 1,
        ]);
    }
    fuses
}

#[test]
fn amnesic_fuse_edges_agree_on_annotated_workloads() {
    let base = CoreConfig::paper();
    let mut fired_inside = 0;
    let (mut hist_forced, mut sfile_forced) = (0, 0);
    for name in ["is", "rt", "bfs"] {
        let program = build_focal(name, Scale::Test).program;
        let (profile, _) = profile_program(&program, &base).expect("profiling succeeds");
        let (binary, _) =
            compile(&program, &profile, &CompileOptions::default()).expect("compile succeeds");

        // the forced-load paths run to completion on both sides
        for (forced, config) in [
            (
                &mut hist_forced,
                AmnesicConfig {
                    hist_capacity: 0,
                    ..AmnesicConfig::paper(Policy::Compiler)
                },
            ),
            (
                &mut sfile_forced,
                AmnesicConfig {
                    sfile_capacity: 0,
                    ..AmnesicConfig::paper(Policy::Compiler)
                },
            ),
        ] {
            let label = (config.hist_capacity, config.sfile_capacity);
            let (outcome, result) =
                check_amnesic(&format!("{name}/capacities{label:?}"), &binary, &config);
            outcome.expect("forced loads keep the run exact");
            *forced += result
                .stats
                .per_slice
                .iter()
                .map(|s| s.forced_loads)
                .sum::<u64>();
        }

        for policy in [Policy::Compiler, Policy::Llc, Policy::Oracle] {
            let full = AmnesicConfig::paper(policy);
            let mut fuses = vec![1, 2, 3, 7];
            fuses.extend(fuses_around_rcmps(&binary, &full));
            fired_inside += fuses.len() - 4;
            for fuse in fuses {
                let mut config = full.clone();
                config.core.max_instructions = fuse;
                let (outcome, _) =
                    check_amnesic(&format!("{name}/{policy:?}/fuse{fuse}"), &binary, &config);
                assert!(
                    matches!(outcome, Err(AmnesicError::Run(RunError::FuseBlown { .. }))),
                    "{name}/{policy:?}: fuse {fuse} must blow before the run ends"
                );
            }
        }
    }
    assert!(
        fired_inside > 0,
        "some workload must fire an RCMP so fuses land inside its retirements"
    );
    assert!(hist_forced > 0, "an empty Hist must force loads");
    assert!(sfile_forced > 0, "an empty SFile must force loads");
}
