//! Shared architectural machine state: register file, flat data memory,
//! memory hierarchy, and the energy/time account.

use std::collections::BTreeMap;

use amnesiac_energy::{EnergyAccount, EnergyModel, UarchEvent};
use amnesiac_isa::{Category, Program, Reg, NUM_REGS};
use amnesiac_mem::{Access, HierarchyConfig, MemoryHierarchy, PagedMem, ServiceLevel};

use crate::classic::RunResult;
use crate::engine::Counts;

/// Bytes per data word and per instruction slot (for cache addressing).
pub(crate) const WORD_BYTES: u64 = 8;

/// Base byte address of the instruction region (kept disjoint from data;
/// data word addresses start at `amnesiac_isa::DATA_BASE`).
pub(crate) const TEXT_BASE: u64 = 0x4000_0000;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Cache geometry.
    pub hierarchy: HierarchyConfig,
    /// Energy/timing model.
    pub energy: EnergyModel,
    /// Safety fuse: abort after this many dynamic instructions.
    pub max_instructions: u64,
}

impl CoreConfig {
    /// The paper's Table 3 machine.
    pub fn paper() -> Self {
        CoreConfig {
            hierarchy: HierarchyConfig::paper(),
            energy: EnergyModel::paper(),
            max_instructions: 200_000_000,
        }
    }

    /// Paper machine with a different energy model (e.g. an R-sweep point).
    pub fn with_energy(energy: EnergyModel) -> Self {
        CoreConfig {
            energy,
            ..Self::paper()
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Errors raised while running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // fields are the offending limit/pc/instruction
pub enum RunError {
    /// The instruction fuse blew (likely an infinite loop).
    FuseBlown { limit: u64 },
    /// The program counter left the valid instruction range.
    PcOutOfRange { pc: usize },
    /// An amnesic instruction was encountered by an executor that cannot
    /// handle it (e.g. the classic core fetched an `RTN`).
    UnexpectedInstruction { pc: usize, what: String },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::FuseBlown { limit } => {
                write!(f, "instruction fuse blew after {limit} instructions")
            }
            RunError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            RunError::UnexpectedInstruction { pc, what } => {
                write!(f, "unexpected instruction at pc {pc}: {what}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// [`RunError::UnexpectedInstruction`] for the instruction at `pc`.
    pub fn unexpected(program: &Program, pc: usize) -> Self {
        RunError::UnexpectedInstruction {
            pc,
            what: program.instructions[pc].to_string(),
        }
    }
}

/// Architectural + microarchitectural machine state.
///
/// Data memory is a flat word-addressed image holding *values*; the cache
/// hierarchy tracks *tags* for the same addresses, so functional and timing
/// state stay decoupled but consistent.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Register file.
    pub regs: [u64; NUM_REGS],
    /// Flat data memory (word-addressed, paged; untouched words read 0).
    pub mem: PagedMem,
    /// Cache hierarchy.
    pub hierarchy: MemoryHierarchy,
    /// Energy and time account.
    pub account: EnergyAccount,
    /// Energy/timing model.
    pub energy: EnergyModel,
}

impl Machine {
    /// Creates a machine initialised with a program's data image.
    pub fn new(config: &CoreConfig, program: &Program) -> Self {
        let mem: PagedMem = program.data.iter().collect();
        Machine {
            regs: [0; NUM_REGS],
            mem,
            hierarchy: MemoryHierarchy::new(config.hierarchy),
            account: EnergyAccount::new(),
            energy: config.energy.clone(),
        }
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// Functional read of a data word (no cache/energy effects).
    pub fn peek_mem(&self, addr: u64) -> u64 {
        self.mem.get(addr)
    }

    /// Performs an architectural load: returns the value and the hierarchy
    /// level that serviced it, charging energy (per level + write-back
    /// traffic) and stall cycles.
    pub fn load_word(&mut self, addr: u64) -> (u64, ServiceLevel) {
        let access = self.hierarchy.read_data(addr * WORD_BYTES);
        self.charge_mem(Category::Load, access);
        (self.peek_mem(addr), access.level)
    }

    /// Performs an architectural store, charging energy and stall cycles.
    pub fn store_word(&mut self, addr: u64, value: u64) -> ServiceLevel {
        self.mem.set(addr, value);
        let access = self.hierarchy.write_data(addr * WORD_BYTES);
        self.charge_mem(Category::Store, access);
        access.level
    }

    /// Charges a memory instruction and its write-back side effects.
    fn charge_mem(&mut self, category: Category, access: Access) {
        let nj = match category {
            Category::Load => self.energy.load_energy(access.level),
            Category::Store => self.energy.store_energy(access.level),
            _ => unreachable!("charge_mem is for loads/stores"),
        };
        self.account.record(category, nj);
        self.account
            .add_cycles(self.energy.mem_latency(access.level));
        if let Some(level) = access.prefetch_from {
            // prefetch fills cost their source access energy; their
            // latency overlaps with execution
            self.account
                .record_event(UarchEvent::Prefetch, self.energy.load_energy(level));
        }
        for _ in 0..access.l1_writebacks {
            self.account
                .record_event(UarchEvent::WritebackL1, self.energy.writeback_nj[0]);
        }
        for _ in 0..access.l2_writebacks {
            self.account
                .record_event(UarchEvent::WritebackL2, self.energy.writeback_nj[1]);
        }
    }

    /// Charges a non-memory instruction's EPI and single-cycle latency.
    pub fn charge_op(&mut self, category: Category) {
        self.account.record(category, self.energy.epi(category));
        self.account.add_cycles(self.energy.op_cycles);
    }

    /// Models instruction supply for the instruction at index `pc`: the
    /// fetch goes through L1-I; misses charge fill energy and stall cycles.
    pub fn fetch(&mut self, pc: usize) {
        let byte_addr = TEXT_BASE + pc as u64 * WORD_BYTES;
        let access = self.hierarchy.fetch_inst(byte_addr);
        match access.level {
            ServiceLevel::L1 => {}
            ServiceLevel::L2 => {
                self.account
                    .record_event(UarchEvent::IFetchL2, self.energy.load_nj[1]);
                self.account.add_cycles(self.energy.mem_cycles[1]);
            }
            ServiceLevel::Mem => {
                self.account
                    .record_event(UarchEvent::IFetchMem, self.energy.load_nj[2]);
                self.account.add_cycles(self.energy.mem_cycles[2]);
            }
        }
        for _ in 0..access.l2_writebacks {
            self.account
                .record_event(UarchEvent::WritebackL2, self.energy.writeback_nj[1]);
        }
    }

    /// The run's result: this machine's energy account, hierarchy stats
    /// and output image, plus the engine's dynamic counts.
    pub fn into_result(self, program: &Program, counts: Counts) -> RunResult {
        RunResult {
            final_memory: self.extract_output(program),
            hierarchy: self.hierarchy.stats().clone(),
            account: self.account,
            instructions: counts.instructions,
            loads: counts.loads,
            stores: counts.stores,
        }
    }

    /// Extracts the values of the program's declared output ranges from the
    /// flat memory (for classic/amnesic equivalence checks), in address
    /// order.
    pub fn extract_output(&self, program: &Program) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for range in &program.output {
            for addr in range.iter() {
                out.insert(addr, self.peek_mem(addr));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::ProgramBuilder;

    fn machine() -> (Machine, u64) {
        let mut b = ProgramBuilder::new("t");
        let base = b.alloc_data(&[5, 6, 7]);
        b.halt();
        let p = b.finish().unwrap();
        (Machine::new(&CoreConfig::paper(), &p), base)
    }

    #[test]
    fn data_image_is_loaded() {
        let (m, base) = machine();
        assert_eq!(m.peek_mem(base), 5);
        assert_eq!(m.peek_mem(base + 2), 7);
        assert_eq!(m.peek_mem(base + 99), 0);
    }

    #[test]
    fn load_charges_level_energy_and_latency() {
        let (mut m, base) = machine();
        let (v, level) = m.load_word(base);
        assert_eq!(v, 5);
        assert_eq!(level, ServiceLevel::Mem);
        assert_eq!(m.account.count(Category::Load), 1);
        assert!((m.account.energy(Category::Load) - 52.14).abs() < 1e-9);
        assert_eq!(m.account.cycles(), 109);
        // second load hits L1
        let (_, level) = m.load_word(base);
        assert_eq!(level, ServiceLevel::L1);
        assert!((m.account.energy(Category::Load) - 53.02).abs() < 1e-9);
        assert_eq!(m.account.cycles(), 113);
    }

    #[test]
    fn store_updates_memory_and_account() {
        let (mut m, base) = machine();
        m.store_word(base + 1, 99);
        assert_eq!(m.peek_mem(base + 1), 99);
        assert_eq!(m.account.count(Category::Store), 1);
        assert!((m.account.energy(Category::Store) - 62.14).abs() < 1e-9);
    }

    #[test]
    fn charge_op_uses_epi_table() {
        let (mut m, _) = machine();
        m.charge_op(Category::Fma);
        assert_eq!(m.account.count(Category::Fma), 1);
        assert_eq!(m.account.cycles(), 1);
    }

    #[test]
    fn fetch_models_l1i_misses_then_hits() {
        let (mut m, _) = machine();
        m.fetch(0); // cold: line fill from memory
        let cold_cycles = m.account.cycles();
        assert!(cold_cycles >= 109);
        assert_eq!(m.account.event_count(UarchEvent::IFetchMem), 1);
        m.fetch(1); // same 64B line: 8 slots per line
        assert_eq!(m.account.cycles(), cold_cycles, "line hit adds no stall");
    }

    #[test]
    fn register_file_roundtrip() {
        let (mut m, _) = machine();
        m.set_reg(Reg(7), 1234);
        assert_eq!(m.reg(Reg(7)), 1234);
        assert_eq!(m.reg(Reg(8)), 0);
    }
}
