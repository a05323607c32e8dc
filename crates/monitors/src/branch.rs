//! The **Branch** monitor: profiles the direction of all branches
//! (paper §3) — `if`, `br_if` and `br_table` — by observing the
//! top-of-stack condition/index *before* the instruction executes.
//!
//! Its probes are [`ProbeKind::Operand`]: they only need the top-of-stack
//! value, so compiled code can intrinsify them into a direct call without
//! reifying a FrameAccessor (paper §4.4).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use wizard_engine::{
    ClosureProbe, InstrumentationCtx, Location, Monitor, Probe, ProbeBatch, ProbeCtx, ProbeError,
    ProbeKind, Report, Slot,
};
use wizard_wasm::opcodes as op;

use crate::util::{func_label, sites};
use crate::ProbeMode;

/// Per-site branch statistics.
#[derive(Debug, Default)]
pub struct SiteStats {
    /// Times the branch was taken (condition non-zero), or for `br_table`,
    /// total executions.
    pub taken: Cell<u64>,
    /// Times the branch fell through (condition zero).
    pub not_taken: Cell<u64>,
    /// For `br_table`: histogram of selected indices.
    pub targets: RefCell<HashMap<u32, u64>>,
}

/// The operand probe attached at each branch site.
#[derive(Debug)]
struct BranchProbe {
    opcode: u8,
    stats: Rc<SiteStats>,
}

impl BranchProbe {
    fn record(&self, top: Slot) {
        if self.opcode == op::BR_TABLE {
            self.stats.taken.set(self.stats.taken.get() + 1);
            *self.stats.targets.borrow_mut().entry(top.u32()).or_insert(0) += 1;
        } else if top.i32() != 0 {
            self.stats.taken.set(self.stats.taken.get() + 1);
        } else {
            self.stats.not_taken.set(self.stats.not_taken.get() + 1);
        }
    }
}

impl Probe for BranchProbe {
    fn fire(&mut self, ctx: &mut ProbeCtx<'_, '_>) {
        let top = ctx.top_of_stack().expect("branch has a condition operand");
        self.record(top);
    }

    fn kind(&self) -> ProbeKind {
        ProbeKind::Operand
    }

    fn fire_operand(&mut self, _loc: Location, top: Slot) {
        self.record(top);
    }
}

/// Profiles branch directions across the whole module.
#[derive(Debug, Default)]
pub struct BranchMonitor {
    mode: ProbeMode,
    stats: Vec<(Location, u8, Rc<SiteStats>)>,
    global_stats: Rc<RefCell<HashMap<Location, (u64, u64)>>>,
    global_fires: Rc<Cell<u64>>,
    labels: HashMap<u32, String>,
}

impl BranchMonitor {
    /// Creates the local-probe variant.
    pub fn new() -> BranchMonitor {
        BranchMonitor::default()
    }

    /// Creates a variant with an explicit probe mode.
    pub fn with_mode(mode: ProbeMode) -> BranchMonitor {
        BranchMonitor { mode, ..BranchMonitor::default() }
    }

    /// Total branch executions observed.
    pub fn total_branches(&self) -> u64 {
        match self.mode {
            ProbeMode::Local => {
                self.stats.iter().map(|(_, _, s)| s.taken.get() + s.not_taken.get()).sum()
            }
            ProbeMode::Global => self.global_stats.borrow().values().map(|(t, n)| t + n).sum(),
        }
    }

    /// Total probe fires (for the global variant this counts every
    /// instruction executed, matching the paper's fire annotations).
    pub fn total_fires(&self) -> u64 {
        match self.mode {
            ProbeMode::Local => self.total_branches(),
            ProbeMode::Global => self.global_fires.get(),
        }
    }

    /// `(taken, not_taken)` per site, in site order.
    pub fn site_stats(&self) -> Vec<(Location, u64, u64)> {
        match self.mode {
            ProbeMode::Local => {
                self.stats.iter().map(|(l, _, s)| (*l, s.taken.get(), s.not_taken.get())).collect()
            }
            ProbeMode::Global => {
                let mut v: Vec<(Location, u64, u64)> =
                    self.global_stats.borrow().iter().map(|(l, (t, n))| (*l, *t, *n)).collect();
                v.sort_by_key(|(l, _, _)| *l);
                v
            }
        }
    }
}

impl Monitor for BranchMonitor {
    fn name(&self) -> &'static str {
        "branch"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let branch_sites =
            sites(ctx.module(), |i| matches!(i.op, op::IF | op::BR_IF | op::BR_TABLE));
        for (f, _) in &branch_sites {
            self.labels.entry(*f).or_insert_with(|| func_label(ctx.module(), *f));
        }
        match self.mode {
            ProbeMode::Local => {
                let mut batch = ProbeBatch::new();
                for (func, instr) in &branch_sites {
                    let stats = Rc::new(SiteStats::default());
                    let probe = BranchProbe { opcode: instr.op, stats: Rc::clone(&stats) };
                    batch.add_local_val(*func, instr.pc, probe);
                    self.stats.push((Location { func: *func, pc: instr.pc }, instr.op, stats));
                }
                ctx.apply_batch(batch)?;
            }
            ProbeMode::Global => {
                let stats = Rc::clone(&self.global_stats);
                let fires = Rc::clone(&self.global_fires);
                ctx.add_global_probe(ClosureProbe::shared(move |ctx| {
                    fires.set(fires.get() + 1);
                    let opcode = ctx.opcode();
                    if matches!(opcode, op::IF | op::BR_IF | op::BR_TABLE) {
                        let top = ctx.top_of_stack().expect("branch condition");
                        let taken = opcode == op::BR_TABLE || top.i32() != 0;
                        let mut map = stats.borrow_mut();
                        let e = map.entry(ctx.location()).or_insert((0, 0));
                        if taken {
                            e.0 += 1;
                        } else {
                            e.1 += 1;
                        }
                    }
                }))?;
            }
        }
        Ok(())
    }

    fn report(&self) -> Report {
        let mut r = Report::new(self.name());
        let profile = r.section("branch profile");
        for (loc, taken, not_taken) in self.site_stats() {
            if taken + not_taken == 0 {
                continue;
            }
            let label = self
                .labels
                .get(&loc.func)
                .map_or_else(|| format!("func[{}]", loc.func), Clone::clone);
            profile.fraction(format!("{label}+{} taken", loc.pc), taken, taken + not_taken);
        }
        r.section("summary").count("total branches", self.total_branches());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    fn loop_process(config: EngineConfig) -> Process {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        f.for_range(i, 0, |f| {
            f.nop();
        });
        f.local_get(0);
        mb.add_func("go", f);
        Process::new(mb.build().unwrap(), config, &Linker::new()).unwrap()
    }

    #[test]
    fn counts_taken_and_not_taken() {
        let mut p = loop_process(EngineConfig::interpreter());
        let m = p.attach_monitor(BranchMonitor::new()).unwrap();
        p.invoke_export("go", &[Value::I32(10)]).unwrap();
        // for_range: `br_if 1` (exit check) fires 11 times — taken once.
        let stats = m.borrow().site_stats();
        assert_eq!(stats.len(), 1);
        let (_, taken, not_taken) = stats[0];
        assert_eq!(taken, 1);
        assert_eq!(not_taken, 10);
        assert_eq!(m.borrow().total_branches(), 11);
    }

    #[test]
    fn tiers_and_modes_agree() {
        let mut results = Vec::new();
        for (mode, config) in [
            (ProbeMode::Local, EngineConfig::interpreter_bytecode()),
            (ProbeMode::Local, EngineConfig::default()),
            (ProbeMode::Local, EngineConfig::builder().intrinsify(false).build()),
            (ProbeMode::Global, EngineConfig::default()),
        ] {
            let mut p = loop_process(config);
            let m = p.attach_monitor(BranchMonitor::with_mode(mode)).unwrap();
            p.invoke_export("go", &[Value::I32(7)]).unwrap();
            results.push(m.borrow().site_stats());
        }
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
    }

    #[test]
    fn global_mode_counts_all_instructions_as_fires() {
        let mut p = loop_process(EngineConfig::interpreter());
        let m = p.attach_monitor(BranchMonitor::with_mode(ProbeMode::Global)).unwrap();
        p.invoke_export("go", &[Value::I32(5)]).unwrap();
        let mon = m.borrow();
        assert!(
            mon.total_fires() > mon.total_branches() * 3,
            "global probe fires on every instruction, not only branches"
        );
    }

    #[test]
    fn report_shows_ratios() {
        let mut p = loop_process(EngineConfig::interpreter());
        let m = p.attach_monitor(BranchMonitor::new()).unwrap();
        p.invoke_export("go", &[Value::I32(3)]).unwrap();
        let r = m.report().to_string();
        assert!(r.contains("taken"));
        assert!(r.contains("total branches: 4"));
    }
}
