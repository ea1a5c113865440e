//! The profiling pass: one observed classic run producing a
//! [`ProgramProfile`].

use std::collections::BTreeMap;

use amnesiac_isa::{Instruction, Program, Reg, NUM_REGS};
use amnesiac_mem::{FastMap, LevelStats, ServiceLevel};
use amnesiac_sim::{ClassicCore, CoreConfig, Observer, RetireEvent, RunError, RunResult};

use crate::provenance::{Arena, MAX_NODES_PER_RETIREMENT, NIL};
use crate::tree::{Instance, ProvNode};

/// Why a load site cannot be swapped for recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unswappable {
    /// The loaded value is a read-only program input (§2.2): there is
    /// nothing to recompute.
    ReadOnlyRoot,
    /// No tracked producer (uninitialised memory, or the producer chain was
    /// depth-cut before reaching a compute instruction).
    NoProducer,
    /// The immediate producer differed across dynamic instances; a single
    /// embedded slice cannot cover the site.
    UnstableRoot,
}

/// Profile of one static load site.
#[derive(Debug, Clone)]
pub struct LoadSiteProfile {
    /// Static pc of the load.
    pub pc: usize,
    /// Dynamic execution count.
    pub count: u64,
    /// Service-level distribution of this site's dynamic instances — the
    /// per-site `PrLi` of §3.1.1.
    pub levels: LevelStats,
    /// Canonical producer tree, if the site is swappable.
    pub tree: Option<ProvNode>,
    /// Set when the site cannot be recomputed.
    pub unswappable: Option<Unswappable>,
    value_matches: u64,
    last_value: Option<u64>,
}

impl LoadSiteProfile {
    fn new(pc: usize) -> Self {
        LoadSiteProfile {
            pc,
            count: 0,
            levels: LevelStats::default(),
            tree: None,
            unswappable: None,
            value_matches: 0,
            last_value: None,
        }
    }

    /// Builds a bare site profile for tests in downstream crates.
    #[doc(hidden)]
    pub fn for_tests(pc: usize, count: u64) -> Self {
        LoadSiteProfile {
            count,
            ..LoadSiteProfile::new(pc)
        }
    }

    /// Value locality in `[0, 1]`: the fraction of dynamic instances whose
    /// value matched the immediately preceding instance (history depth 1,
    /// after Lipasti et al.; the paper's Fig. 8 metric).
    pub fn value_locality(&self) -> f64 {
        if self.count <= 1 {
            0.0
        } else {
            self.value_matches as f64 / (self.count - 1) as f64
        }
    }

    /// Per-site `PrLi` probability vector over `[L1, L2, Mem]`.
    pub fn probabilities(&self) -> [f64; 3] {
        self.levels.probabilities()
    }

    fn mark_unswappable(&mut self, why: Unswappable) {
        // first reason sticks; the tree is no longer meaningful
        if self.unswappable.is_none() {
            self.unswappable = Some(why);
        }
        self.tree = None;
    }
}

/// Profile of one static store site (for the dead-store elision analysis).
#[derive(Debug, Clone, Default)]
pub struct StoreSiteProfile {
    /// Dynamic execution count.
    pub count: u64,
    /// Dynamic count of loads that read this store's values, per load pc.
    pub consumers: BTreeMap<usize, u64>,
    /// Dynamic count of stored words that were overwritten or never read.
    pub unread: u64,
}

/// Deterministic work counters of a profiling run's provenance arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfilerWork {
    /// Provenance nodes allocated over the run, shallow clones included.
    pub nodes_allocated: u64,
    /// Most provenance nodes live at once: the arena's high-water mark.
    pub nodes_peak_live: u64,
}

/// Everything the amnesic compiler needs to know about one program's
/// dynamic behaviour.
#[derive(Debug, Clone)]
pub struct ProgramProfile {
    /// Per static load site.
    pub loads: BTreeMap<usize, LoadSiteProfile>,
    /// Per static store site.
    pub stores: BTreeMap<usize, StoreSiteProfile>,
    /// Global load service-level distribution (whole-program `PrLi`).
    pub all_loads: LevelStats,
    /// Dynamic instruction count of the profiling run.
    pub instructions: u64,
    /// Dynamic execution count per static pc (for amortising `REC`
    /// overheads in the compiler's energy estimates). Dense: indexed by pc,
    /// one slot per main-code instruction.
    pub pc_counts: Vec<u64>,
    /// What the profiling run cost the provenance tracker.
    pub work: ProfilerWork,
}

impl ProgramProfile {
    /// Dynamic execution count of the instruction at `pc` (O(1)).
    pub fn pc_count(&self, pc: usize) -> u64 {
        self.pc_counts.get(pc).copied().unwrap_or(0)
    }
}

impl ProgramProfile {
    /// Swappable sites: those with a canonical producer tree.
    pub fn swappable_sites(&self) -> impl Iterator<Item = &LoadSiteProfile> {
        self.loads.values().filter(|s| s.tree.is_some())
    }
}

#[derive(Debug, Clone, Copy)]
struct MemCell {
    /// Provenance of the stored value (an arena root, [`NIL`] if untracked).
    node: u32,
    store_pc: usize,
    read: bool,
}

struct Tracker<'p> {
    program: &'p Program,
    regs: [u64; NUM_REGS],
    arena: Arena,
    /// Provenance of each register's value (arena roots).
    reg_prov: [u32; NUM_REGS],
    /// Probed on every dynamic load and store; fixed-key hashing (the keys
    /// are simulated addresses) keeps the per-retirement cost down.
    mem_prov: FastMap<u64, MemCell>,
    /// Per-site profiles, dense by pc (every observed pc is main code, so
    /// `pc < code_len`): the per-dynamic-load site lookup is an index, not
    /// a map probe. [`Tracker::finish`] converts to the profile's BTreeMaps.
    loads: Vec<Option<LoadSiteProfile>>,
    stores: Vec<Option<StoreSiteProfile>>,
    all_loads: LevelStats,
    /// dense per-pc execution counters (pcs are `< code_len`)
    pc_counts: Vec<u64>,
    /// operand values of each compute pc's most recent execution, for the
    /// checkpoint-freshness analysis; dense, indexed by pc
    last_exec: Vec<Option<[u64; 3]>>,
}

impl<'p> Tracker<'p> {
    fn new(program: &'p Program) -> Self {
        Tracker {
            program,
            regs: [0; NUM_REGS],
            arena: Arena::default(),
            reg_prov: [NIL; NUM_REGS],
            mem_prov: FastMap::default(),
            loads: vec![None; program.code_len],
            stores: vec![None; program.code_len],
            all_loads: LevelStats::default(),
            pc_counts: vec![0; program.code_len],
            last_exec: vec![None; program.code_len],
        }
    }

    /// Points `dst` at `node` (whose reference the register takes over).
    fn write_reg(&mut self, dst: Reg, node: u32, value: u64) {
        let old = std::mem::replace(&mut self.reg_prov[dst.index()], node);
        self.arena.release(old);
        self.regs[dst.index()] = value;
    }

    fn on_load(&mut self, pc: usize, dst: Reg, addr: u64, value: u64, level: ServiceLevel) {
        self.all_loads.record(level);
        let site = self.loads[pc].get_or_insert_with(|| LoadSiteProfile::new(pc));
        site.count += 1;
        site.levels.record(level);
        if site.last_value == Some(value) {
            site.value_matches += 1;
        }
        site.last_value = Some(value);

        // provenance of the value the load observed
        let cell_node = match self.mem_prov.get_mut(&addr) {
            Some(cell) => {
                cell.read = true;
                *self.stores[cell.store_pc]
                    .get_or_insert_with(Default::default)
                    .consumers
                    .entry(pc)
                    .or_insert(0) += 1;
                if cell.node == NIL {
                    site.mark_unswappable(Unswappable::NoProducer);
                }
                cell.node
            }
            None => {
                let why = if self.program.is_read_only(addr) {
                    Unswappable::ReadOnlyRoot
                } else {
                    Unswappable::NoProducer
                };
                site.mark_unswappable(why);
                NIL
            }
        };

        if site.unswappable.is_none() && cell_node != NIL {
            let root = self.arena.resolve_compute(cell_node);
            let instance = Instance {
                arena: &self.arena,
                code: &self.program.instructions,
                regs: &self.regs,
                last_exec: &self.last_exec,
            };
            if root == NIL {
                site.mark_unswappable(Unswappable::NoProducer);
            } else {
                match &mut site.tree {
                    None => site.tree = Some(ProvNode::first_instance(root, 0, &instance)),
                    Some(canon) => {
                        if !canon.fold_instance(root, 0, &instance) {
                            site.mark_unswappable(Unswappable::UnstableRoot);
                        }
                    }
                }
            }
        }

        let node = self.arena.load(pc, cell_node);
        self.write_reg(dst, node, value);
    }

    fn on_store(&mut self, pc: usize, src: Reg, addr: u64) {
        let store = self.stores[pc].get_or_insert_with(Default::default);
        store.count += 1;
        let node = self.reg_prov[src.index()];
        self.arena.retain(node);
        let previous = self.mem_prov.insert(
            addr,
            MemCell {
                node,
                store_pc: pc,
                read: false,
            },
        );
        if let Some(prev) = previous {
            self.arena.release(prev.node);
            if !prev.read {
                self.stores[prev.store_pc]
                    .get_or_insert_with(Default::default)
                    .unread += 1;
            }
        }
    }

    fn on_compute(
        &mut self,
        pc: usize,
        inst: &Instruction,
        dst: Reg,
        value: u64,
        src_values: [u64; 3],
    ) {
        let srcs = inst
            .srcs()
            .map(|reg| reg.map_or(NIL, |r| self.reg_prov[r.index()]));
        let node = self.arena.compute(pc, srcs, src_values);
        self.write_reg(dst, node, value);
        self.last_exec[pc] = Some(src_values);
    }

    /// The register and memory roots of the arena.
    #[cfg(test)]
    fn roots(&self) -> impl Iterator<Item = u32> + '_ {
        self.reg_prov
            .iter()
            .copied()
            .chain(self.mem_prov.values().map(|cell| cell.node))
            .filter(|&root| root != NIL)
    }

    #[allow(clippy::type_complexity)]
    fn finish(
        mut self,
    ) -> (
        BTreeMap<usize, LoadSiteProfile>,
        BTreeMap<usize, StoreSiteProfile>,
        LevelStats,
        Vec<u64>,
        ProfilerWork,
    ) {
        // words never read before halt count as unread for their last store
        for cell in self.mem_prov.values() {
            if !cell.read {
                self.stores[cell.store_pc]
                    .get_or_insert_with(Default::default)
                    .unread += 1;
            }
        }
        let loads = self
            .loads
            .into_iter()
            .flatten()
            .map(|s| (s.pc, s))
            .collect();
        let stores = self
            .stores
            .into_iter()
            .enumerate()
            .filter_map(|(pc, s)| s.map(|s| (pc, s)))
            .collect();
        let work = ProfilerWork {
            nodes_allocated: self.arena.allocated(),
            nodes_peak_live: self.arena.peak_live(),
        };
        (loads, stores, self.all_loads, self.pc_counts, work)
    }
}

impl Observer for Tracker<'_> {
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        let (pc, inst) = (event.pc, event.inst);
        self.pc_counts[pc] += 1;
        let allocated = self.arena.allocated();
        match (inst, inst.dst(), event.result, event.addr, event.level) {
            (Instruction::Load { .. }, Some(dst), Some(value), Some(addr), Some(level)) => {
                self.on_load(pc, dst, addr, value, level);
            }
            (&Instruction::Store { src, .. }, _, _, Some(addr), _) => self.on_store(pc, src, addr),
            (_, Some(dst), Some(value), _, _) if inst.is_slice_compute() => {
                self.on_compute(pc, inst, dst, value, event.src_values);
            }
            // control flow carries no value provenance
            _ => debug_assert!(
                !(matches!(inst, Instruction::Load { .. } | Instruction::Store { .. })
                    || inst.is_slice_compute()),
                "the classic core retires every load with its address, value and \
                 level, every store with its address, every compute with its value"
            ),
        }
        // the bound the arena's u32 slot indices rely on
        debug_assert!(self.arena.allocated() - allocated <= MAX_NODES_PER_RETIREMENT);
    }
}

/// Profiles a classic program with one observed run.
///
/// Returns the profile and the run result (the classic baseline numbers of
/// the same run — the profiling input is also the evaluation input, as in
/// the paper's single-input methodology).
///
/// # Errors
///
/// Propagates any [`RunError`] from the underlying classic run.
pub fn profile_program(
    program: &Program,
    config: &CoreConfig,
) -> Result<(ProgramProfile, RunResult), RunError> {
    let mut tracker = Tracker::new(program);
    let result = ClassicCore::new(config.clone()).run_observed(program, &mut tracker)?;
    let (loads, stores, all_loads, pc_counts, work) = tracker.finish();
    Ok((
        ProgramProfile {
            loads,
            stores,
            all_loads,
            instructions: result.instructions,
            pc_counts,
            work,
        },
        result,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{AluOp, BranchCond, ProgramBuilder, Reg};
    use amnesiac_mem::ServiceLevel;

    fn profile(p: &Program) -> ProgramProfile {
        profile_program(p, &CoreConfig::paper())
            .expect("run succeeds")
            .0
    }

    /// Runs the tracker over `p` and hands it back unfinished.
    fn tracked(p: &Program) -> Tracker<'_> {
        let mut tracker = Tracker::new(p);
        ClassicCore::new(CoreConfig::paper())
            .run_observed(p, &mut tracker)
            .expect("run succeeds");
        tracker
    }

    #[test]
    fn live_nodes_are_exactly_the_reachable_ones_and_none_leak() {
        for name in ["mcf", "sx", "sr"] {
            let w = amnesiac_workloads::build_focal(name, amnesiac_workloads::Scale::Test);
            let mut tracker = tracked(&w.program);
            let mut seen = std::collections::HashSet::new();
            let mut stack: Vec<u32> = tracker.roots().collect();
            while let Some(index) = stack.pop() {
                if seen.insert(index) {
                    let srcs = tracker.arena.get(index).srcs;
                    stack.extend(srcs.into_iter().filter(|&s| s != NIL));
                }
            }
            assert_eq!(tracker.arena.live(), seen.len() as u64, "{name}");
            assert!(tracker.arena.peak_live() >= tracker.arena.live());
            let roots: Vec<u32> = tracker.roots().collect();
            for root in roots {
                tracker.arena.release(root);
            }
            assert_eq!(tracker.arena.live(), 0, "{name}: released roots free all");
        }
    }

    #[test]
    fn work_counters_are_deterministic() {
        let w = amnesiac_workloads::build_focal("is", amnesiac_workloads::Scale::Test);
        let first = profile(&w.program).work;
        assert!(first.nodes_allocated > 0);
        assert!(first.nodes_peak_live > 0 && first.nodes_peak_live <= first.nodes_allocated);
        assert_eq!(profile(&w.program).work, first);
    }

    /// store computed value, load it back: the load site must get a tree
    /// rooted at the computing instruction.
    #[test]
    fn load_of_computed_value_gets_producer_tree() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 20);
        let mul_pc = b.alui(AluOp::Mul, Reg(3), Reg(2), 3); // r3 = 60
        b.store(Reg(3), Reg(1), 0);
        let load_pc = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();

        let prof = profile(&p);
        let site = &prof.loads[&load_pc];
        assert_eq!(site.count, 1);
        assert!(site.unswappable.is_none());
        let tree = site.tree.as_ref().expect("swappable");
        assert_eq!(tree.pc, mul_pc, "root is the immediate producer P(v)");
        // producer chain continues into the li
        let op = tree.operands[0].as_ref().unwrap();
        assert_eq!(op.reg, Reg(2));
        assert!(op.always_live, "r2 still holds 20 at the load");
        assert_eq!(op.child.as_ref().unwrap().pc, 1);
    }

    #[test]
    fn load_of_read_only_input_is_unswappable() {
        let mut b = ProgramBuilder::new("t");
        let input = b.alloc_data(&[5]);
        b.mark_read_only(input, 1);
        b.li(Reg(1), input);
        let load_pc = b.load(Reg(2), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        assert_eq!(
            prof.loads[&load_pc].unswappable,
            Some(Unswappable::ReadOnlyRoot)
        );
    }

    #[test]
    fn load_of_unmarked_initial_memory_has_no_producer() {
        let mut b = ProgramBuilder::new("t");
        let data = b.alloc_data(&[5]);
        b.li(Reg(1), data);
        let load_pc = b.load(Reg(2), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        assert_eq!(
            prof.loads[&load_pc].unswappable,
            Some(Unswappable::NoProducer)
        );
    }

    /// Copy through memory: st A ← f(x); ld r ← A; st B ← r; ld r' ← B.
    /// The second load's tree must see through to f's instruction.
    #[test]
    fn provenance_sees_through_intermediate_loads() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_zeroed(1);
        let c = b.alloc_zeroed(1);
        b.li(Reg(1), a);
        b.li(Reg(2), c);
        b.li(Reg(3), 7);
        let add_pc = b.alui(AluOp::Add, Reg(4), Reg(3), 1); // f(x) = 8
        b.store(Reg(4), Reg(1), 0);
        b.load(Reg(5), Reg(1), 0);
        b.store(Reg(5), Reg(2), 0);
        let load2 = b.load(Reg(6), Reg(2), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        let site = &prof.loads[&load2];
        let tree = site.tree.as_ref().expect("swappable through the copy");
        assert_eq!(tree.pc, add_pc);
    }

    /// A loop that overwrites r2 before the load: operand no longer live.
    #[test]
    fn overwritten_operand_is_not_live() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 20);
        b.alui(AluOp::Add, Reg(3), Reg(2), 1);
        b.store(Reg(3), Reg(1), 0);
        b.li(Reg(2), 999); // clobber the producer's operand register
        let load_pc = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        let tree = prof.loads[&load_pc].tree.as_ref().unwrap();
        let op = tree.operands[0].as_ref().unwrap();
        assert!(!op.always_live, "r2 was overwritten before the load");
    }

    /// Two stores from different producers to the same address, each read
    /// back: the root producers differ between instances → unstable.
    #[test]
    fn alternating_producers_make_site_unstable() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(5), 0); // i = 0
        b.li(Reg(6), 2); // n = 2
        let top = b.label();
        let done = b.label();
        let else_ = b.label();
        let join = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(5), Reg(6), done);
        b.branch(BranchCond::Ne, Reg(5), Reg(5), else_); // never taken…
                                                         // iteration body: pick producer by parity
        let odd = b.label();
        let after = b.label();
        b.alui(AluOp::And, Reg(7), Reg(5), 1);
        b.li(Reg(8), 1);
        b.branch(BranchCond::Eq, Reg(7), Reg(8), odd);
        b.alui(AluOp::Add, Reg(3), Reg(5), 100); // producer A
        b.jump(after);
        b.bind(odd).unwrap();
        b.alui(AluOp::Mul, Reg(3), Reg(5), 3); // producer B
        b.bind(after).unwrap();
        b.store(Reg(3), Reg(1), 0);
        b.load(Reg(4), Reg(1), 0);
        b.alui(AluOp::Add, Reg(5), Reg(5), 1);
        b.jump(top);
        b.bind(else_).unwrap();
        b.jump(join);
        b.bind(join).unwrap();
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        let site = prof
            .loads
            .values()
            .find(|s| s.count == 2)
            .expect("the in-loop load ran twice");
        assert_eq!(site.unswappable, Some(Unswappable::UnstableRoot));
    }

    #[test]
    fn value_locality_tracks_repeats() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 5);
        b.store(Reg(2), Reg(1), 0);
        // three loads of the same value → locality 1.0
        let load_pc = b.load(Reg(3), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        // the three loads are distinct static sites; check the first
        let site = &prof.loads[&load_pc];
        assert_eq!(site.count, 1);
        assert_eq!(site.value_locality(), 0.0, "single instance has no history");

        // same site in a loop with a constant value
        let mut b = ProgramBuilder::new("t2");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 5);
        b.store(Reg(2), Reg(1), 0);
        b.li(Reg(5), 0);
        b.li(Reg(6), 4);
        let top = b.label();
        let done = b.label();
        b.bind(top).unwrap();
        b.branch(BranchCond::Geu, Reg(5), Reg(6), done);
        let lp = b.load(Reg(3), Reg(1), 0);
        b.alui(AluOp::Add, Reg(5), Reg(5), 1);
        b.jump(top);
        b.bind(done).unwrap();
        b.halt();
        let p2 = b.finish().unwrap();
        let prof2 = profile(&p2);
        assert_eq!(prof2.loads[&lp].count, 4);
        assert_eq!(prof2.loads[&lp].value_locality(), 1.0);
    }

    #[test]
    fn store_consumer_and_unread_tracking() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_zeroed(2);
        b.li(Reg(1), a);
        b.li(Reg(2), 3);
        b.alui(AluOp::Add, Reg(3), Reg(2), 0);
        let st_read = b.store(Reg(3), Reg(1), 0);
        let st_dead = b.store(Reg(3), Reg(1), 1);
        let ld = b.load(Reg(4), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        assert_eq!(prof.stores[&st_read].consumers[&ld], 1);
        assert_eq!(prof.stores[&st_read].unread, 0);
        assert_eq!(prof.stores[&st_dead].count, 1);
        assert_eq!(prof.stores[&st_dead].unread, 1, "never read before halt");
    }

    #[test]
    fn global_load_levels_accumulate() {
        let mut b = ProgramBuilder::new("t");
        let cell = b.alloc_zeroed(1);
        b.li(Reg(1), cell);
        b.li(Reg(2), 1);
        b.store(Reg(2), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let prof = profile(&p);
        assert_eq!(prof.all_loads.total(), 2);
        // store warmed the line: both loads hit L1
        assert_eq!(prof.all_loads.by_level[ServiceLevel::L1.index()], 2);
        assert!(prof.instructions > 0);
    }
}
