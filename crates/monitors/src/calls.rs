//! The **Calls** monitor (paper §3): instruments callsites and records
//! statistics on direct calls and the targets of indirect calls. Its
//! output can be used to build a dynamic call graph.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use wizard_engine::{
    ClosureProbe, CountProbe, InstrumentationCtx, Location, Monitor, ProbeBatch, ProbeError, Report,
};
use wizard_wasm::instr::Imm;
use wizard_wasm::opcodes as op;

use crate::util::{func_label, sites};

/// Statistics about one indirect callsite.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndirectSite {
    /// Resolved target histogram: function index → count.
    pub targets: BTreeMap<u32, u64>,
    /// Calls whose table index could not be resolved (about to trap).
    pub unresolved: u64,
}

/// Records direct-call counts per callsite and indirect-call target
/// distributions.
#[derive(Debug, Default)]
pub struct CallsMonitor {
    direct: Vec<(Location, u32, Rc<Cell<u64>>)>,
    indirect: Vec<(Location, Rc<std::cell::RefCell<IndirectSite>>)>,
    labels: HashMap<u32, String>,
}

impl CallsMonitor {
    /// Creates the monitor.
    pub fn new() -> CallsMonitor {
        CallsMonitor::default()
    }

    /// Total calls observed (direct + indirect).
    pub fn total_calls(&self) -> u64 {
        let d: u64 = self.direct.iter().map(|(_, _, c)| c.get()).sum();
        let i: u64 = self
            .indirect
            .iter()
            .map(|(_, s)| {
                let s = s.borrow();
                s.targets.values().sum::<u64>() + s.unresolved
            })
            .sum();
        d + i
    }

    /// Dynamic call-graph edges `(caller, callee, count)` from both direct
    /// and resolved indirect calls.
    pub fn edges(&self) -> Vec<(u32, u32, u64)> {
        let mut acc: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for (loc, callee, c) in &self.direct {
            if c.get() > 0 {
                *acc.entry((loc.func, *callee)).or_insert(0) += c.get();
            }
        }
        for (loc, site) in &self.indirect {
            for (callee, n) in &site.borrow().targets {
                *acc.entry((loc.func, *callee)).or_insert(0) += n;
            }
        }
        acc.into_iter().map(|((a, b), n)| (a, b, n)).collect()
    }

    /// The indirect-call sites and their target histograms.
    pub fn indirect_sites(&self) -> Vec<(Location, IndirectSite)> {
        self.indirect.iter().map(|(l, s)| (*l, s.borrow().clone())).collect()
    }
}

impl Monitor for CallsMonitor {
    fn name(&self) -> &'static str {
        "calls"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let call_sites = sites(ctx.module(), |i| op::is_call(i.op));
        let mut batch = ProbeBatch::new();
        for (func, instr) in &call_sites {
            self.labels.entry(*func).or_insert_with(|| func_label(ctx.module(), *func));
            let loc = Location { func: *func, pc: instr.pc };
            match instr.imm {
                Imm::Idx(callee) => {
                    // Direct call: a plain counter (intrinsifiable).
                    let probe = CountProbe::new();
                    let cell = probe.cell();
                    batch.add_local_val(*func, instr.pc, probe);
                    self.labels.entry(callee).or_insert_with(|| func_label(ctx.module(), callee));
                    self.direct.push((loc, callee, cell));
                }
                Imm::CallIndirect { .. } => {
                    // Indirect call: resolve the table index (top of stack)
                    // to the actual target.
                    let site = Rc::new(std::cell::RefCell::new(IndirectSite::default()));
                    let s = Rc::clone(&site);
                    batch.add_local(
                        *func,
                        instr.pc,
                        ClosureProbe::shared(move |ctx| {
                            let idx = ctx.top_of_stack().expect("table index").u32();
                            let mut st = s.borrow_mut();
                            match ctx.resolve_table(idx) {
                                Some(target) => {
                                    *st.targets.entry(target).or_insert(0) += 1;
                                }
                                None => st.unresolved += 1,
                            }
                        }),
                    );
                    self.indirect.push((loc, site));
                }
                _ => unreachable!("call instruction immediates"),
            }
        }
        ctx.apply_batch(batch)?;
        Ok(())
    }

    fn report(&self) -> Report {
        let mut r = Report::new(self.name());
        let direct = r.section("direct calls");
        for (loc, callee, c) in &self.direct {
            if c.get() == 0 {
                continue;
            }
            let from = &self.labels[&loc.func];
            let to =
                self.labels.get(callee).map_or_else(|| format!("func[{callee}]"), Clone::clone);
            direct.count(format!("{from}+{} -> {to}", loc.pc), c.get());
        }
        let indirect = r.section("indirect callsites");
        for (loc, site) in &self.indirect {
            let from = &self.labels[&loc.func];
            let site = site.borrow();
            let total: u64 = site.targets.values().sum();
            indirect.count(format!("{from}+{} ({} targets)", loc.pc, site.targets.len()), total);
            for (t, n) in &site.targets {
                let to = self.labels.get(t).map_or_else(|| format!("func[{t}]"), Clone::clone);
                indirect.count(format!("    -> {to}"), *n);
            }
        }
        r.section("summary").count("total calls", self.total_calls());
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

    #[test]
    fn direct_and_indirect_call_statistics() {
        let mut mb = ModuleBuilder::new();
        mb.table(2);
        let mut a = FuncBuilder::new(&[I32], &[I32]);
        a.local_get(0).i32_const(1).i32_add();
        let a = mb.add_private_func("a", a);
        let mut b = FuncBuilder::new(&[I32], &[I32]);
        b.local_get(0).i32_const(2).i32_mul();
        let b = mb.add_private_func("b", b);
        mb.elem(0, &[a, b]);
        let sig = mb.sig(&[I32], &[I32]);
        let mut main = FuncBuilder::new(&[I32], &[I32]);
        let i = main.local(I32);
        let acc = main.local(I32);
        main.for_range(i, 0, |f| {
            // Direct call to a, then indirect alternating between a and b.
            f.local_get(acc).call(a).local_set(acc);
            f.local_get(acc)
                .local_get(i)
                .i32_const(2)
                .i32_rem_u()
                .call_indirect(sig)
                .local_set(acc);
        });
        main.local_get(acc);
        mb.add_func("main", main);
        let m = mb.build().unwrap();
        for config in [EngineConfig::interpreter_bytecode(), EngineConfig::default()] {
            let mut p = Process::new(m.clone(), config, &Linker::new()).unwrap();
            let mon = p.attach_monitor(CallsMonitor::new()).unwrap();
            p.invoke_export("main", &[Value::I32(10)]).unwrap();
            assert_eq!(mon.borrow().total_calls(), 20);
            let sites = mon.borrow().indirect_sites();
            assert_eq!(sites.len(), 1);
            // Alternating indices 0,1: five calls each to a and b.
            assert_eq!(sites[0].1.targets[&a], 5);
            assert_eq!(sites[0].1.targets[&b], 5);
            let edges = mon.borrow().edges();
            let main_idx = p.module().export_func("main").unwrap();
            assert!(edges.contains(&(main_idx, a, 15)));
            assert!(edges.contains(&(main_idx, b, 5)));
            assert!(mon.report().to_string().contains("indirect callsites"));
        }
    }
}
