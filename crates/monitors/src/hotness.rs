//! The **Hotness** monitor: counts every instruction executed (paper §3).
//!
//! The local-probe variant inserts a [`CountProbe`] at every instruction —
//! the paper's representative "many simple probes" workload, and the one
//! the JIT fully intrinsifies. The global-probe variant demonstrates
//! emulating local probes with a single global probe (paper §2.1/§5.2) at
//! the cost of an M-state lookup per instruction.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use wizard_engine::{
    ClosureProbe, CountProbe, InstrumentationCtx, Location, Monitor, ProbeBatch, ProbeError, Report,
};

use crate::util::func_label;
use crate::ProbeMode;

/// Counts executions of every instruction.
#[derive(Debug, Default)]
pub struct HotnessMonitor {
    mode: ProbeMode,
    counters: Vec<(Location, Rc<Cell<u64>>)>,
    global_counts: Rc<RefCell<HashMap<Location, u64>>>,
    labels: HashMap<u32, String>,
}

impl HotnessMonitor {
    /// Creates the local-probe variant.
    pub fn new() -> HotnessMonitor {
        HotnessMonitor::default()
    }

    /// Creates a variant with an explicit probe mode.
    pub fn with_mode(mode: ProbeMode) -> HotnessMonitor {
        HotnessMonitor { mode, ..HotnessMonitor::default() }
    }

    /// Total instruction executions observed.
    pub fn total(&self) -> u64 {
        match self.mode {
            ProbeMode::Local => self.counters.iter().map(|(_, c)| c.get()).sum(),
            ProbeMode::Global => self.global_counts.borrow().values().sum(),
        }
    }

    /// Per-location counts, hottest first.
    pub fn counts(&self) -> Vec<(Location, u64)> {
        let mut v: Vec<(Location, u64)> = match self.mode {
            ProbeMode::Local => self.counters.iter().map(|(l, c)| (*l, c.get())).collect(),
            ProbeMode::Global => {
                self.global_counts.borrow().iter().map(|(l, c)| (*l, *c)).collect()
            }
        };
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl Monitor for HotnessMonitor {
    fn name(&self) -> &'static str {
        "hotness"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let n_imp = ctx.module().num_imported_funcs();
        for f in n_imp..ctx.module().num_funcs() {
            self.labels.entry(f).or_insert_with(|| func_label(ctx.module(), f));
        }
        match self.mode {
            ProbeMode::Local => {
                let mut batch = ProbeBatch::new();
                for site in ctx.instruction_sites().iter() {
                    let probe = CountProbe::new();
                    self.counters.push((*site, probe.cell()));
                    batch.add_local_val(site.func, site.pc, probe);
                }
                ctx.apply_batch(batch)?;
            }
            ProbeMode::Global => {
                let counts = Rc::clone(&self.global_counts);
                ctx.add_global_probe(ClosureProbe::shared(move |ctx| {
                    *counts.borrow_mut().entry(ctx.location()).or_insert(0) += 1;
                }))?;
            }
        }
        Ok(())
    }

    fn report(&self) -> Report {
        let mut r = Report::new(self.name());
        let top = r.section("top locations");
        for (loc, n) in self.counts().into_iter().take(20) {
            let label = self
                .labels
                .get(&loc.func)
                .map_or_else(|| format!("func[{}]", loc.func), Clone::clone);
            top.count(format!("{label}+{}", loc.pc), n);
        }
        r.section("summary").count("total instruction executions", self.total());
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

    fn sum_process(config: EngineConfig) -> Process {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        f.for_range(i, 0, |f| {
            f.local_get(acc).local_get(i).i32_add().local_set(acc);
        });
        f.local_get(acc);
        mb.add_func("sum", f);
        Process::new(mb.build().unwrap(), config, &Linker::new()).unwrap()
    }

    #[test]
    fn local_and_global_variants_agree() {
        let mut totals = Vec::new();
        for mode in [ProbeMode::Local, ProbeMode::Global] {
            let mut p = sum_process(EngineConfig::interpreter());
            let m = p.attach_monitor(HotnessMonitor::with_mode(mode)).unwrap();
            p.invoke_export("sum", &[Value::I32(25)]).unwrap();
            totals.push(m.borrow().total());
        }
        assert_eq!(totals[0], totals[1], "local and global hotness must agree");
        assert!(totals[0] > 100);
    }

    #[test]
    fn intrinsified_jit_matches_interpreter() {
        let mut totals = Vec::new();
        for config in
            [EngineConfig::interpreter(), EngineConfig::jit(), EngineConfig::jit_no_intrinsics()]
        {
            let mut p = sum_process(config);
            let m = p.attach_monitor(HotnessMonitor::new()).unwrap();
            p.invoke_export("sum", &[Value::I32(25)]).unwrap();
            totals.push(m.borrow().total());
        }
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[0], totals[2]);
    }

    #[test]
    fn report_lists_hot_locations() {
        let mut p = sum_process(EngineConfig::interpreter());
        let m = p.attach_monitor(HotnessMonitor::new()).unwrap();
        p.invoke_export("sum", &[Value::I32(5)]).unwrap();
        let r = m.report().to_string();
        assert!(r.contains("sum+"));
        assert!(r.contains("total instruction executions"));
        let counts = m.borrow().counts();
        assert!(counts[0].1 >= counts.last().unwrap().1, "sorted descending");
    }

    #[test]
    fn detach_and_reattach_round_trip() {
        let mut p = sum_process(EngineConfig::interpreter());
        let m1 = p.attach_monitor(HotnessMonitor::new()).unwrap();
        p.invoke_export("sum", &[Value::I32(10)]).unwrap();
        let first = m1.borrow().total();
        assert!(first > 0);
        p.detach_monitor(m1.handle()).unwrap();
        assert_eq!(p.probed_location_count(), 0, "zero-overhead baseline restored");
        p.invoke_export("sum", &[Value::I32(10)]).unwrap();
        assert_eq!(m1.borrow().total(), first, "detached monitor observes nothing");

        // A fresh monitor can be attached to the same process afterwards.
        let m2 = p.attach_monitor(HotnessMonitor::new()).unwrap();
        p.invoke_export("sum", &[Value::I32(10)]).unwrap();
        assert_eq!(m2.borrow().total(), first, "same workload, same counts");
    }
}
