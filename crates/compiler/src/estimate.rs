//! The compiler's energy estimates and cut planner (§3.1.1): `E_rc` from
//! the instruction mix of a candidate cut, `E_ld` from the probabilistic
//! per-load model.
//!
//! Cut selection is constrained by *checkpoint freshness*: an operand that
//! is neither live at the load nor reproducible from the `Hist` table's
//! latest checkpoint (the profiler's `checkpoint_fresh` analysis) **must**
//! have its producer expanded into the slice; if no stable producer exists
//! the site cannot be swapped. Within those constraints the planner picks
//! the minimum-energy cut, choosing per operand between a `Hist` read and
//! expanding the producer subtree.

use amnesiac_energy::EnergyModel;
use amnesiac_isa::{Category, OperandSource};
use amnesiac_profile::{LoadSiteProfile, ProgramProfile, ProvNode};

use crate::slice::SliceInstSpec;

/// Cost estimate of one candidate cut.
#[derive(Debug, Clone, PartialEq)]
pub struct CutCost {
    /// Cut height (the paper's tree height `h`).
    pub height: u32,
    /// Number of slice instructions (excluding `RTN`).
    pub n_insts: usize,
    /// Energy paid when recomputation fires: instruction EPIs, `SFile`
    /// traffic, `Hist` reads, plus the `RCMP` and `RTN` overheads (nJ).
    pub fire_nj: f64,
    /// Amortised main-path overhead per dynamic load: `REC` checkpoints
    /// execute whenever their origin executes, whether or not recomputation
    /// fires (nJ per load instance).
    pub standing_nj: f64,
}

impl CutCost {
    /// Total estimated `E_rc` per recomputation (fired + standing).
    pub fn total_nj(&self) -> f64 {
        self.fire_nj + self.standing_nj
    }
}

/// Estimates slice costs against an [`EnergyModel`] and a profile.
#[derive(Debug, Clone)]
pub struct SliceEstimator<'a> {
    energy: &'a EnergyModel,
    profile: &'a ProgramProfile,
}

impl<'a> SliceEstimator<'a> {
    /// Creates an estimator.
    pub fn new(energy: &'a EnergyModel, profile: &'a ProgramProfile) -> Self {
        SliceEstimator { energy, profile }
    }

    /// The paper's probabilistic per-load energy `E_ld = Σ PrLi × EPI_Li`
    /// (§3.1.1). `PrLi` comes from the *cache-level* hit/miss statistics of
    /// the profiling run — one distribution for the whole program, as in
    /// the paper — which is exactly the model inaccuracy that separates
    /// `Compiler` from `C-Oracle` in the evaluation (§5.1).
    pub fn load_energy_global(&self) -> f64 {
        self.energy
            .probabilistic_load_energy(self.profile.all_loads.probabilities())
    }

    /// The exact expected per-load energy for one site, from its own
    /// service-level distribution; used to build the `Oracle` slice set.
    pub fn load_energy_site(&self, site: &LoadSiteProfile) -> f64 {
        self.energy.probabilistic_load_energy(site.probabilities())
    }

    /// Plans the minimum-energy valid cut for a site.
    ///
    /// The slice is built as a **DAG**: structurally identical producer
    /// subtrees are emitted once and shared through the `SFile` (a backward
    /// slice re-executes each producer instruction once, Fig. 1 — common
    /// subexpressions are not duplicated).
    ///
    /// Returns `None` when the site has no tree, a stale operand has no
    /// expandable producer, or the only valid cuts exceed the structural
    /// caps.
    pub fn plan_site(
        &self,
        site: &LoadSiteProfile,
        max_height: u32,
        max_insts: usize,
    ) -> Option<(CutCost, Vec<SliceInstSpec>)> {
        let tree = site.tree.as_ref()?;
        let mut builder = PlanBuilder {
            est: self,
            load_count: site.count,
            insts: Vec::new(),
            emitted: Vec::new(),
            fire_nj: 0.0,
            standing_nj: 0.0,
        };
        let (_, height) = builder.emit(tree, max_height)?;
        if builder.insts.len() > max_insts {
            return None;
        }
        let cost = CutCost {
            height,
            n_insts: builder.insts.len(),
            fire_nj: builder.fire_nj
                + self.energy.epi(Category::Rcmp)
                + self.energy.epi(Category::Rtn),
            standing_nj: builder.standing_nj,
        };
        Some((cost, builder.insts))
    }

    /// Dry-run cost of recomputing `node` (instruction EPIs, `SFile` and
    /// `Hist` traffic), ignoring cross-subtree sharing; used to decide
    /// between a `Hist` read and producer expansion for checkpoint-fresh
    /// operands. Returns `None` if the subtree has a stale, unexpandable
    /// operand.
    fn subtree_cost(&self, node: &ProvNode, depth_left: u32) -> Option<f64> {
        let mut cost = self.energy.epi(node.inst.category()) + self.energy.sfile_nj;
        for operand in node.operands.iter().flatten() {
            if operand.always_live {
                continue;
            }
            let child_cost = if depth_left > 0 {
                operand
                    .child
                    .as_ref()
                    .and_then(|c| self.subtree_cost(c, depth_left - 1))
            } else {
                None
            };
            cost += match (child_cost, operand.checkpoint_fresh) {
                (Some(c), true) => c.min(self.energy.hist_read_nj) + self.energy.sfile_nj,
                (Some(c), false) => c + self.energy.sfile_nj,
                (None, true) => self.energy.hist_read_nj,
                (None, false) => return None,
            };
        }
        Some(cost)
    }
}

struct PlanBuilder<'a, 't> {
    est: &'a SliceEstimator<'a>,
    load_count: u64,
    insts: Vec<SliceInstSpec>,
    /// structurally-deduped subtrees already emitted: (subtree, index)
    emitted: Vec<(&'t ProvNode, u16)>,
    fire_nj: f64,
    standing_nj: f64,
}

impl<'a, 't> PlanBuilder<'a, 't> {
    /// Emits `node` (and whatever producers it needs) into the slice,
    /// returning its instruction index and subtree height. Structurally
    /// identical subtrees are shared.
    fn emit(&mut self, node: &'t ProvNode, depth_left: u32) -> Option<(u16, u32)> {
        if let Some(&(_, idx)) = self.emitted.iter().find(|(n, _)| *n == node) {
            return Some((idx, 0));
        }
        let energy = self.est.energy;
        let mut sources: [Option<OperandSource>; 3] = [None, None, None];
        let mut height = 0;
        let mut hist_here = false;
        let rec_amortized = self.est.profile.pc_count(node.pc).max(1) as f64
            / self.load_count.max(1) as f64
            * energy.hist_write_nj;

        for (j, operand) in node.operands.iter().enumerate() {
            let Some(op) = operand else { continue };
            if op.always_live {
                sources[j] = Some(OperandSource::LiveReg);
                continue;
            }
            let expandable = depth_left > 0 && op.child.is_some();
            let use_child = match (expandable, op.checkpoint_fresh) {
                (true, true) => {
                    // decide by a sharing-blind dry run; actual cost with
                    // sharing can only be lower
                    let child = op.child.as_ref().expect("expandable");
                    match self.est.subtree_cost(child, depth_left - 1) {
                        Some(c) => c + energy.sfile_nj < energy.hist_read_nj,
                        None => false,
                    }
                }
                (true, false) => true,
                (false, true) => false,
                (false, false) => return None,
            };
            if use_child {
                let child = op.child.as_ref().expect("checked");
                let (idx, h) = self.emit(child, depth_left - 1)?;
                sources[j] = Some(OperandSource::SFile { producer: idx });
                self.fire_nj += energy.sfile_nj;
                height = height.max(h + 1);
            } else {
                // the annotator assigns the real leaf-address key per origin
                sources[j] = Some(OperandSource::Hist { key: 0 });
                self.fire_nj += energy.hist_read_nj;
                if !hist_here {
                    self.standing_nj += rec_amortized;
                    hist_here = true;
                }
            }
        }
        self.fire_nj += energy.epi(node.inst.category()) + energy.sfile_nj;
        let idx = self.insts.len() as u16;
        self.insts.push(SliceInstSpec {
            inst: node.inst.clone(),
            origin_pc: node.pc,
            sources,
        });
        self.emitted.push((node, idx));
        Some((idx, height))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesiac_isa::{AluOp, Instruction, Reg};
    use amnesiac_mem::LevelStats;
    use amnesiac_profile::ProvOperand;
    use std::collections::BTreeMap;

    fn empty_profile() -> ProgramProfile {
        ProgramProfile {
            loads: BTreeMap::new(),
            stores: BTreeMap::new(),
            all_loads: LevelStats::default(),
            instructions: 0,
            pc_counts: Vec::new(),
            work: Default::default(),
        }
    }

    fn operand(reg: u8, live: bool, fresh: bool, child: Option<ProvNode>) -> ProvOperand {
        ProvOperand {
            reg: Reg(reg),
            always_live: live,
            child: child.map(Box::new),
            unknown: false,
            checkpoint_fresh: fresh,
        }
    }

    fn alui_node(pc: usize, op: ProvOperand) -> ProvNode {
        ProvNode {
            pc,
            inst: Instruction::Alui {
                op: AluOp::Add,
                dst: Reg(2),
                src: op.reg,
                imm: 1,
            },
            operands: [Some(op), None, None],
        }
    }

    fn site_with(tree: ProvNode, count: u64) -> LoadSiteProfile {
        let mut site = LoadSiteProfile::for_tests(40, count);
        site.tree = Some(tree);
        site
    }

    #[test]
    fn live_operand_plans_as_live_reg() {
        let profile = empty_profile();
        let energy = EnergyModel::paper();
        let est = SliceEstimator::new(&energy, &profile);
        let site = site_with(alui_node(3, operand(1, true, false, None)), 10);
        let (cost, insts) = est.plan_site(&site, 12, 64).unwrap();
        assert_eq!(insts.len(), 1);
        assert_eq!(insts[0].sources[0], Some(OperandSource::LiveReg));
        assert_eq!(cost.standing_nj, 0.0, "no REC needed");
        assert_eq!(cost.height, 0);
    }

    #[test]
    fn fresh_operand_may_use_hist() {
        let profile = empty_profile();
        let energy = EnergyModel::paper();
        let est = SliceEstimator::new(&energy, &profile);
        let site = site_with(alui_node(3, operand(1, false, true, None)), 10);
        let (cost, insts) = est.plan_site(&site, 12, 64).unwrap();
        assert_eq!(insts[0].sources[0], Some(OperandSource::Hist { key: 0 }));
        assert!(cost.standing_nj > 0.0, "REC overhead is accounted");
    }

    #[test]
    fn stale_operand_forces_expansion() {
        let profile = empty_profile();
        let energy = EnergyModel::paper();
        let est = SliceEstimator::new(&energy, &profile);
        let child = alui_node(1, operand(5, true, false, None));
        let site = site_with(alui_node(3, operand(1, false, false, Some(child))), 10);
        let (cost, insts) = est.plan_site(&site, 12, 64).unwrap();
        assert_eq!(insts.len(), 2, "child expanded");
        assert_eq!(
            insts[1].sources[0],
            Some(OperandSource::SFile { producer: 0 })
        );
        assert_eq!(cost.height, 1);
    }

    #[test]
    fn stale_operand_without_producer_is_unplannable() {
        let profile = empty_profile();
        let energy = EnergyModel::paper();
        let est = SliceEstimator::new(&energy, &profile);
        let site = site_with(alui_node(3, operand(1, false, false, None)), 10);
        assert!(est.plan_site(&site, 12, 64).is_none());
    }

    #[test]
    fn fresh_operand_expands_when_child_is_cheaper() {
        // the child is a single cheap IntAlu from a live register:
        // 0.35 + 2·sfile ≈ 0.39 < hist 0.88 + REC — expansion wins
        let profile = empty_profile();
        let energy = EnergyModel::paper();
        let est = SliceEstimator::new(&energy, &profile);
        let child = alui_node(1, operand(5, true, false, None));
        let site = site_with(alui_node(3, operand(1, false, true, Some(child))), 10);
        let (_, insts) = est.plan_site(&site, 12, 64).unwrap();
        assert_eq!(insts.len(), 2, "cheaper child preferred over Hist");
    }

    #[test]
    fn fresh_operand_keeps_hist_when_child_is_expensive() {
        // a divide chain is costlier than one Hist read
        let profile = empty_profile();
        let energy = EnergyModel::paper();
        let est = SliceEstimator::new(&energy, &profile);
        let grandchild = alui_node(0, operand(6, true, false, None));
        let child = ProvNode {
            pc: 1,
            inst: Instruction::Alu {
                op: AluOp::Div,
                dst: Reg(5),
                lhs: Reg(6),
                rhs: Reg(7),
            },
            operands: [
                Some(operand(6, false, false, Some(grandchild))),
                Some(operand(7, true, false, None)),
                None,
            ],
        };
        let site = site_with(alui_node(3, operand(5, false, true, Some(child))), 10);
        let (_, insts) = est.plan_site(&site, 12, 64).unwrap();
        assert_eq!(insts.len(), 1, "Hist read beats the divide chain");
        assert_eq!(insts[0].sources[0], Some(OperandSource::Hist { key: 0 }));
    }

    #[test]
    fn depth_cap_blocks_expansion_of_stale_operands() {
        let profile = empty_profile();
        let energy = EnergyModel::paper();
        let est = SliceEstimator::new(&energy, &profile);
        let child = alui_node(1, operand(5, true, false, None));
        let site = site_with(alui_node(3, operand(1, false, false, Some(child))), 10);
        assert!(
            est.plan_site(&site, 0, 64).is_none(),
            "expansion needs depth"
        );
        assert!(est.plan_site(&site, 1, 64).is_some());
        assert!(est.plan_site(&site, 1, 1).is_none(), "2 insts > cap 1");
    }

    #[test]
    fn sfile_producer_indices_are_consistent_after_fixup() {
        let profile = empty_profile();
        let energy = EnergyModel::paper();
        let est = SliceEstimator::new(&energy, &profile);
        // two stale operands, each with a live-leaf child
        let left = alui_node(1, operand(5, true, false, None));
        let right = alui_node(2, operand(6, true, false, None));
        let root = ProvNode {
            pc: 3,
            inst: Instruction::Alu {
                op: AluOp::Add,
                dst: Reg(9),
                lhs: Reg(1),
                rhs: Reg(2),
            },
            operands: [
                Some(operand(1, false, false, Some(left))),
                Some(operand(2, false, false, Some(right))),
                None,
            ],
        };
        let site = site_with(root, 10);
        let (_, insts) = est.plan_site(&site, 12, 64).unwrap();
        assert_eq!(insts.len(), 3);
        assert_eq!(
            insts[2].sources[0],
            Some(OperandSource::SFile { producer: 0 })
        );
        assert_eq!(
            insts[2].sources[1],
            Some(OperandSource::SFile { producer: 1 })
        );
        for (i, inst) in insts.iter().enumerate() {
            for s in inst.sources.iter().flatten() {
                if let OperandSource::SFile { producer } = s {
                    assert!((*producer as usize) < i);
                }
            }
        }
    }

    #[test]
    fn load_energy_uses_site_probabilities() {
        let profile = empty_profile();
        let energy = EnergyModel::paper();
        let est = SliceEstimator::new(&energy, &profile);
        let mut site = LoadSiteProfile::for_tests(0, 4);
        use amnesiac_mem::ServiceLevel;
        site.levels.record(ServiceLevel::L1);
        site.levels.record(ServiceLevel::L1);
        site.levels.record(ServiceLevel::Mem);
        site.levels.record(ServiceLevel::Mem);
        let e = est.load_energy_site(&site);
        assert!((e - (0.5 * 0.88 + 0.5 * 52.14)).abs() < 1e-9);
    }
}
