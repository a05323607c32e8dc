//! The **Coverage** monitor (paper §3): inserts a local probe at every
//! instruction which, when fired, records coverage and *removes itself* —
//! so executed paths become probe-free and compiled code asymptotically
//! approaches zero overhead. The canonical user of dynamic probe removal.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

use wizard_engine::{
    ClosureProbe, InstrumentationCtx, Location, Monitor, ProbeBatch, ProbeError, ProbeId, Report,
};

use crate::util::func_label;

/// Records which instructions executed at least once.
#[derive(Debug, Default)]
pub struct CoverageMonitor {
    covered: Rc<RefCell<HashSet<Location>>>,
    total_per_func: BTreeMap<u32, usize>,
    labels: BTreeMap<u32, String>,
}

impl CoverageMonitor {
    /// Creates the monitor.
    pub fn new() -> CoverageMonitor {
        CoverageMonitor::default()
    }

    /// The set of covered locations.
    pub fn covered(&self) -> HashSet<Location> {
        self.covered.borrow().clone()
    }

    /// `(covered, total)` instruction counts per function.
    pub fn per_function(&self) -> BTreeMap<u32, (usize, usize)> {
        let covered = self.covered.borrow();
        let mut out = BTreeMap::new();
        for (func, total) in &self.total_per_func {
            let c = covered.iter().filter(|l| l.func == *func).count();
            out.insert(*func, (c, *total));
        }
        out
    }

    /// Overall coverage ratio in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        let total: usize = self.total_per_func.values().sum();
        if total == 0 {
            return 1.0;
        }
        self.covered.borrow().len() as f64 / total as f64
    }
}

impl Monitor for CoverageMonitor {
    fn name(&self) -> &'static str {
        "coverage"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let sites = ctx.instruction_sites();
        for body in sites.chunk_by(|a, b| a.func == b.func) {
            let f = body[0].func;
            *self.total_per_func.entry(f).or_insert(0) += body.len();
            self.labels.entry(f).or_insert_with(|| func_label(ctx.module(), f));
        }
        // One probe per instruction: batched, so the whole set costs a
        // single invalidation pass. Ids come back in queue order and are
        // fed to the self-removal cells afterwards.
        let mut batch = ProbeBatch::new();
        let mut id_cells: Vec<Rc<Cell<Option<ProbeId>>>> = Vec::with_capacity(sites.len());
        for site in sites.iter() {
            let covered = Rc::clone(&self.covered);
            let id_cell: Rc<Cell<Option<ProbeId>>> = Rc::new(Cell::new(None));
            let idc = Rc::clone(&id_cell);
            batch.add_local(
                site.func,
                site.pc,
                ClosureProbe::shared(move |ctx| {
                    covered.borrow_mut().insert(ctx.location());
                    // Fire once, then remove ourselves: no further
                    // overhead at this location (paper §3, Coverage).
                    if let Some(id) = idc.get() {
                        ctx.remove_probe(id);
                    }
                }),
            );
            id_cells.push(id_cell);
        }
        let ids = ctx.apply_batch(batch)?;
        for (cell, id) in id_cells.iter().zip(ids) {
            cell.set(Some(id));
        }
        Ok(())
    }

    fn report(&self) -> Report {
        let mut r = Report::new(self.name());
        let per_func = r.section("per-function");
        for (func, (covered, total)) in self.per_function() {
            per_func.fraction(&self.labels[&func], covered as u64, total as u64);
        }
        r.section("summary").float("overall %", 100.0 * self.ratio());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::{BlockType, ValType::I32};

    fn process(config: EngineConfig) -> Process {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).if_(BlockType::Value(I32));
        f.i32_const(1);
        f.else_();
        f.i32_const(2);
        f.end();
        mb.add_func("cond", f);
        let mut g = FuncBuilder::new(&[], &[]);
        g.nop();
        mb.add_func("never_called", g);
        Process::new(mb.build().unwrap(), config, &Linker::new()).unwrap()
    }

    #[test]
    fn partial_coverage_and_probe_removal() {
        let mut p = process(EngineConfig::interpreter());
        let m = p.attach_monitor(CoverageMonitor::new()).unwrap();
        let sites_before = p.probed_location_count();
        assert!(sites_before > 5);
        p.invoke_export("cond", &[Value::I32(1)]).unwrap();
        // Only the then-branch is covered; else-branch and never_called
        // remain uncovered.
        let r1 = m.borrow().ratio();
        assert!(r1 > 0.0 && r1 < 1.0);
        // Fired probes removed themselves.
        assert!(p.probed_location_count() < sites_before);
        // Taking the other path increases coverage.
        p.invoke_export("cond", &[Value::I32(0)]).unwrap();
        assert!(m.borrow().ratio() > r1);
        let per = m.borrow().per_function();
        assert_eq!(per[&1].0, 0, "never_called has zero coverage");
        assert!(m.report().to_string().contains("never_called"));
    }

    #[test]
    fn full_coverage_in_jit_mode() {
        let mut p = process(EngineConfig::default());
        let m = p.attach_monitor(CoverageMonitor::new()).unwrap();
        p.invoke_export("cond", &[Value::I32(1)]).unwrap();
        p.invoke_export("cond", &[Value::I32(0)]).unwrap();
        p.invoke_export("never_called", &[]).unwrap();
        assert!((m.borrow().ratio() - 1.0).abs() < f64::EPSILON, "all paths covered");
        assert_eq!(p.probed_location_count(), 0, "all probes removed themselves");
    }

    #[test]
    fn batched_attach_costs_one_invalidation_pass() {
        let mut p = process(EngineConfig::interpreter());
        assert_eq!(p.stats().invalidation_passes, 0);
        let m = p.attach_monitor(CoverageMonitor::new()).unwrap();
        assert!(p.probed_location_count() > 5, "many probes installed");
        assert_eq!(p.stats().invalidation_passes, 1, "but one invalidation pass");
        p.detach_monitor(m.handle()).unwrap();
        assert_eq!(p.probed_location_count(), 0);
    }
}
