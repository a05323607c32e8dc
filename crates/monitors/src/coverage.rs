//! The **Coverage** monitor (paper §3): records which instructions executed
//! at least once, with probes that *remove themselves* — so executed paths
//! become probe-free and compiled code asymptotically approaches zero
//! overhead. The canonical user of dynamic probe removal.
//!
//! It probes one instruction per straight-line run
//! ([`InstrumentationCtx::runs`]), not every instruction: a run completes
//! or not as a whole, so the probe on its leader marks every instruction
//! of the run. A fresh monitor installs exactly `runs().len()` probes.
//!
//! A leader probe stays until the pass that marked its run is *known*
//! complete — the next time any of the monitor's probes fires, or its own
//! run is entered again — because a pass can still be cut short after its
//! leader fired. To stay exact to the instruction the monitor makes the
//! three corrections of [`RunCounts`](wizard_engine::RunCounts), each
//! over the rest of the stopped run ([`RunTable::rest_of_run`]) and each
//! touching only the sites the open pass newly marked:
//!
//! * attached while suspended mid-run, it marks the rest of that run;
//! * detached while suspended mid-run, it un-marks that rest again;
//! * when the run is abandoned (a trap, a cancelled or dropped suspension:
//!   [`Monitor::on_unwind`]), it un-marks the part that never executed,
//!   and the run keeps its probe for a later pass.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use wizard_engine::{
    ClosureProbe, InstrumentationCtx, Location, Monitor, ProbeBatch, ProbeCtx, ProbeError, ProbeId,
    Process, Report, RunTable,
};

use crate::util::func_label;

/// Records which instructions executed at least once. An instance
/// attached again after a detach keeps its covered set and probes only the
/// runs it has not covered completely.
#[derive(Debug, Default)]
pub struct CoverageMonitor {
    marks: Rc<RefCell<Marks>>,
    labels: BTreeMap<u32, String>,
}

/// The covered set, shared by the leader probes.
#[derive(Debug, Default)]
struct Marks {
    table: Option<Arc<RunTable>>,
    /// Per site index into the table's `sites`: executed at least once.
    covered: Vec<bool>,
    /// Per run: its leader probe, while installed.
    probes: Vec<Option<ProbeId>>,
    /// The latest pass, until it is known complete or cut short.
    pass: Option<Pass>,
}

/// A pass through a run that may still be cut short.
#[derive(Debug)]
struct Pass {
    run: usize,
    /// The sites the pass newly marked, ascending.
    marked: Vec<u32>,
}

impl Marks {
    fn new(table: Arc<RunTable>) -> Marks {
        let (sites, runs) = (table.sites().len(), table.len());
        Marks {
            table: Some(table),
            covered: vec![false; sites],
            probes: vec![None; runs],
            pass: None,
        }
    }

    fn table(&self) -> &RunTable {
        self.table.as_ref().expect("attached")
    }

    fn is_covered(&self, run: usize) -> bool {
        self.covered[self.table().run(run)].iter().all(|&c| c)
    }

    /// Marks `sites`; returns the ones not covered before.
    fn mark(&mut self, sites: Range<usize>) -> Vec<u32> {
        let mut marked = Vec::new();
        for site in sites {
            if !std::mem::replace(&mut self.covered[site], true) {
                marked.push(site as u32);
            }
        }
        marked
    }

    /// Run `run`'s leader probe fired: the open pass is complete (control
    /// left its run, or is entering it again), and a new one begins.
    fn enter(&mut self, run: usize, ctx: &mut ProbeCtx<'_, '_>) {
        if let Some(done) = self.pass.take() {
            if done.run != run && self.is_covered(done.run) {
                self.leave(done.run, ctx);
            }
        }
        let marked = self.mark(self.table().run(run));
        if marked.is_empty() {
            // Covered by a complete pass: nothing left to observe here.
            self.leave(run, ctx);
        } else {
            self.pass = Some(Pass { run, marked });
        }
    }

    fn leave(&mut self, run: usize, ctx: &mut ProbeCtx<'_, '_>) {
        if let Some(id) = self.probes[run].take() {
            ctx.remove_probe(id);
        }
    }

    /// Execution stopped at `top` for good: un-marks what the open pass
    /// newly marked in the rest of the run. A pass cut short leaves its
    /// run's probe in place for the next one.
    fn unmark_rest(&mut self, top: Location, executed: bool) {
        let Some(table) = &self.table else { return };
        let Some((run, rest)) = table.rest_of_run(top, executed) else { return };
        let Some(pass) = self.pass.take_if(|p| p.run == run) else { return };
        let cut = pass.marked.partition_point(|&s| (s as usize) < rest.start);
        if cut == pass.marked.len() {
            // Nothing of the rest was new: the run stays covered.
            self.pass = Some(pass);
            return;
        }
        for &site in &pass.marked[cut..] {
            self.covered[site as usize] = false;
        }
    }
}

impl CoverageMonitor {
    /// Creates the monitor.
    pub fn new() -> CoverageMonitor {
        CoverageMonitor::default()
    }

    /// The set of covered locations.
    pub fn covered(&self) -> HashSet<Location> {
        let marks = self.marks.borrow();
        let Some(table) = &marks.table else { return HashSet::new() };
        table.sites().iter().zip(&marks.covered).filter(|(_, &c)| c).map(|(&l, _)| l).collect()
    }

    /// `(covered, total)` instruction counts per function.
    pub fn per_function(&self) -> BTreeMap<u32, (usize, usize)> {
        let marks = self.marks.borrow();
        let Some(table) = &marks.table else { return BTreeMap::new() };
        let mut out = BTreeMap::new();
        let mut covered = marks.covered.as_slice();
        for body in table.sites().chunk_by(|a, b| a.func == b.func) {
            let (here, rest) = covered.split_at(body.len());
            out.insert(body[0].func, (here.iter().filter(|&&c| c).count(), body.len()));
            covered = rest;
        }
        out
    }

    /// Overall coverage ratio in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        let marks = self.marks.borrow();
        if marks.covered.is_empty() {
            return 1.0;
        }
        marks.covered.iter().filter(|&&c| c).count() as f64 / marks.covered.len() as f64
    }
}

impl Monitor for CoverageMonitor {
    fn name(&self) -> &'static str {
        "coverage"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let table = ctx.runs();
        for body in table.sites().chunk_by(|a, b| a.func == b.func) {
            let f = body[0].func;
            self.labels.entry(f).or_insert_with(|| func_label(ctx.module(), f));
        }
        let mut marks = self.marks.borrow_mut();
        if !marks.table.as_ref().is_some_and(|t| Arc::ptr_eq(t, &table)) {
            *marks = Marks::new(Arc::clone(&table));
        }
        // Attached mid-run, the leader already went by: the rest of that
        // run is credited below, and its probe stays for the pass.
        let credit = ctx.suspended_at().and_then(|at| table.rest_of_run(at, false));
        let credited = credit.as_ref().map(|(run, _)| *run);
        let runs: Vec<usize> =
            (0..table.len()).filter(|&r| credited == Some(r) || !marks.is_covered(r)).collect();
        // One probe per run leader, batched: the whole set costs a single
        // invalidation pass. Ids come back in queue order.
        let mut batch = ProbeBatch::new();
        for &run in &runs {
            let leader = table.leader(run);
            let shared = Rc::clone(&self.marks);
            batch.add_local(
                leader.func,
                leader.pc,
                ClosureProbe::shared(move |ctx| shared.borrow_mut().enter(run, ctx)),
            );
        }
        drop(marks);
        let ids = ctx.apply_batch(batch)?;
        let mut marks = self.marks.borrow_mut();
        for (run, id) in runs.into_iter().zip(ids) {
            marks.probes[run] = Some(id);
        }
        if let Some((run, rest)) = credit {
            let marked = marks.mark(rest);
            if !marked.is_empty() {
                marks.pass = Some(Pass { run, marked });
            }
        }
        Ok(())
    }

    fn on_detach(&mut self, process: &mut Process) {
        let mut marks = self.marks.borrow_mut();
        if let Some(at) = process.suspended_at() {
            // The rest of the run will execute unobserved.
            marks.unmark_rest(at, false);
        }
        marks.pass = None;
        marks.probes.fill(None);
    }

    fn on_unwind(&mut self, top: Location, executed: bool) {
        self.marks.borrow_mut().unmark_rest(top, executed);
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
        assert_eq!(sites_before, p.artifact().runs().len(), "one probe per run");
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
        // Every probe but the last-entered run's leader removed itself: no
        // other probe fired after it to prove its pass complete.
        assert_eq!(p.probed_location_count(), 1);
        assert_eq!(p.probe_kinds_at(1, 0).len(), 1, "never_called's entry keeps its probe");
        // Entering the run again proves that pass complete: the probe leaves.
        p.invoke_export("never_called", &[]).unwrap();
        assert_eq!(p.probed_location_count(), 0, "all probes removed themselves");
        assert!((m.borrow().ratio() - 1.0).abs() < f64::EPSILON);
    }

    /// An instance attached again keeps its covered set, probes only the
    /// runs it has not covered, and counts each instruction once in its
    /// per-function totals.
    #[test]
    fn a_reattached_instance_keeps_its_set() {
        let mut p = process(EngineConfig::default());
        let m = Rc::new(RefCell::new(CoverageMonitor::new()));
        let h = p.attach_monitor_dyn(m.clone()).unwrap();
        p.invoke_export("cond", &[Value::I32(1)]).unwrap();
        p.detach_monitor(h).unwrap();
        let first = m.borrow().per_function();
        let runs = p.artifact().runs().len();
        let h = p.attach_monitor_dyn(m.clone()).unwrap();
        assert!(p.probed_location_count() < runs, "covered runs get no probe");
        p.invoke_export("cond", &[Value::I32(0)]).unwrap();
        p.detach_monitor(h).unwrap();
        let second = m.borrow().per_function();
        assert_eq!(second[&0].1, first[&0].1, "each instruction counted once in the total");
        assert_eq!(second[&0].0, second[&0].1, "both arms covered");
        assert!(first[&0].0 < first[&0].1);
    }

    #[test]
    fn batched_attach_costs_one_invalidation_pass() {
        let mut p = process(EngineConfig::interpreter());
        assert_eq!(p.stats().invalidation_passes, 0);
        let m = p.attach_monitor(CoverageMonitor::new()).unwrap();
        let runs = p.artifact().runs().len();
        assert!(runs < p.artifact().instruction_sites().len(), "runs span several instructions");
        assert_eq!(p.probed_location_count(), runs, "one probe per run");
        assert_eq!(p.stats().invalidation_passes, 1, "and one invalidation pass");
        p.detach_monitor(m.handle()).unwrap();
        assert_eq!(p.probed_location_count(), 0);
    }
}
