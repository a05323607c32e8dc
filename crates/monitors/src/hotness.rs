//! The **Hotness** monitor: counts every instruction executed (paper §3).
//!
//! The local-probe variant counts every instruction with one [`RunCounts`]
//! counter per straight-line run — a `Count` probe, fully intrinsified by
//! the JIT, on each run's leader — and reports the exact per-instruction
//! rows a `CountProbe` on every instruction would. The global-probe variant
//! demonstrates emulating local probes with a single global probe (paper
//! §2.1/§5.2) at the cost of an M-state lookup per instruction; it counts
//! instruction by instruction by construction, which makes it the oracle
//! the run counters are tested against.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use wizard_engine::{
    ClosureProbe, InstrumentationCtx, Location, Monitor, ProbeBatch, ProbeError, Process, Report,
    RunCounts,
};

use crate::util::func_label;
use crate::ProbeMode;

/// Counts executions of every instruction. An instance attached again
/// after a detach keeps accumulating into the same rows.
#[derive(Debug, Default)]
pub struct HotnessMonitor {
    mode: ProbeMode,
    runs: RunCounts,
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
            ProbeMode::Local => self.runs.total(),
            ProbeMode::Global => self.global_counts.borrow().values().sum(),
        }
    }

    /// Per-location counts, hottest first.
    pub fn counts(&self) -> Vec<(Location, u64)> {
        let mut v: Vec<(Location, u64)> = match self.mode {
            ProbeMode::Local => self.runs.per_site(),
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
                let every_run = 0..ctx.runs().len();
                self.runs.install(ctx, every_run, &mut batch);
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

    fn on_detach(&mut self, process: &mut Process) {
        self.runs.uninstall(process);
    }

    fn on_unwind(&mut self, top: Location, executed: bool) {
        self.runs.on_unwind(top, executed);
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

    #[test]
    fn a_reattached_instance_accumulates_into_one_row_per_site() {
        let mut p = sum_process(EngineConfig::interpreter());
        let instance = Rc::new(RefCell::new(HotnessMonitor::new()));
        let handle = p.attach_monitor_dyn(instance.clone()).unwrap();
        p.invoke_export("sum", &[Value::I32(10)]).unwrap();
        let first = instance.borrow().counts();
        p.detach_monitor(handle).unwrap();

        let handle = p.attach_monitor_dyn(instance.clone()).unwrap();
        p.invoke_export("sum", &[Value::I32(10)]).unwrap();
        p.detach_monitor(handle).unwrap();
        let both = instance.borrow().counts();
        // Same rows, each location once, every count doubled — in the
        // report's "top locations" too.
        let doubled: Vec<_> = first.iter().map(|(loc, n)| (*loc, 2 * n)).collect();
        assert_eq!(both, doubled);
        assert_eq!(instance.borrow().total(), 2 * first.iter().map(|(_, n)| n).sum::<u64>());
        let report = instance.borrow().report();
        let top = &report.get("top locations").unwrap().rows;
        let mut labels: Vec<&str> = top.iter().map(|r| r.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), top.len(), "a location is listed twice: {report}");
    }
}
