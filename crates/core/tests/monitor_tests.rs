//! Tests of the monitor lifecycle API: attach/detach round-trips that
//! restore the zero-overhead baseline, batched probe insertion costing a
//! single invalidation pass, transactional attach, and structured reports.

use std::cell::Cell;
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_engine::{
    CountProbe, EngineConfig, InstrumentationCtx, Monitor, ProbeBatch, ProbeError, Process, Report,
    Value,
};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::instr::InstrIter;
use wizard_wasm::types::ValType::I32;

/// `sum(0..n)` with a loop — enough instructions for meaningful probing.
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

/// All instruction pcs of function 0.
fn pcs(p: &Process) -> Vec<u32> {
    InstrIter::new(&p.module().funcs[0].body.code).map(|i| i.unwrap().pc).collect()
}

/// A test monitor: one counter probe per instruction, batched, plus one
/// global probe.
#[derive(Default)]
struct EverythingMonitor {
    fires: Vec<Rc<Cell<u64>>>,
    global_fires: Rc<Cell<u64>>,
}

impl Monitor for EverythingMonitor {
    fn name(&self) -> &'static str {
        "everything"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let sites: Vec<(u32, u32)> = {
            let module = ctx.module();
            let n_imp = module.num_imported_funcs();
            let mut v = Vec::new();
            for (i, f) in module.funcs.iter().enumerate() {
                for item in InstrIter::new(&f.body.code) {
                    v.push((n_imp + i as u32, item.unwrap().pc));
                }
            }
            v
        };
        let mut batch = ProbeBatch::new();
        for (func, pc) in sites {
            let probe = CountProbe::new();
            self.fires.push(probe.cell());
            batch.add_local_val(func, pc, probe);
        }
        let g = Rc::clone(&self.global_fires);
        batch.add_global_val(wizard_engine::ClosureProbe::new(move |_| {
            g.set(g.get() + 1);
        }));
        ctx.apply_batch(batch)?;
        Ok(())
    }

    fn report(&self) -> Report {
        let mut r = Report::new(self.name());
        r.section("summary")
            .count("local fires", self.fires.iter().map(|c| c.get()).sum())
            .count("global fires", self.global_fires.get());
        r
    }
}

#[test]
fn detach_restores_zero_overhead_baseline_interp_and_jit() {
    for config in [
        EngineConfig::default(),
        EngineConfig::builder().intrinsify(false).build(),
        EngineConfig::interpreter_bytecode(),
    ] {
        let mut p = sum_process(config);
        let m = p.attach_monitor(EverythingMonitor::default()).unwrap();
        assert!(p.probed_location_count() > 10);
        assert_eq!(p.monitor_count(), 1);

        let r1 = p.invoke_export("sum", &[Value::I32(10)]).unwrap();
        assert_eq!(r1, vec![Value::I32(45)]);
        let fires: u64 = m.borrow().fires.iter().map(|c| c.get()).sum();
        assert!(fires > 0, "monitor observed the run");
        let global_fires = m.borrow().global_fires.get();

        p.detach_monitor(m.handle()).unwrap();
        assert_eq!(p.probed_location_count(), 0, "no probed locations after detach");
        assert!(!p.in_global_mode(), "not in global mode after detach");
        assert_eq!(p.monitor_count(), 0);

        // The uninstrumented re-run computes the same thing and fires
        // nothing.
        let r2 = p.invoke_export("sum", &[Value::I32(10)]).unwrap();
        assert_eq!(r2, vec![Value::I32(45)]);
        let after: u64 = m.borrow().fires.iter().map(|c| c.get()).sum();
        assert_eq!(after, fires, "no fires after detach");
        assert_eq!(m.borrow().global_fires.get(), global_fires, "global probe gone too");
    }
}

#[test]
fn probe_byte_restored_after_detach() {
    let mut p = sum_process(EngineConfig::interpreter());
    let m = p.attach_monitor(EverythingMonitor::default()).unwrap();
    assert!(p.has_probe_byte(0, 0), "bytecode overwritten while attached");
    p.detach_monitor(m.handle()).unwrap();
    for pc in pcs(&p) {
        assert!(!p.has_probe_byte(0, pc), "original opcode restored at pc {pc}");
    }
}

#[test]
fn batch_of_k_probes_is_one_invalidation_pass() {
    let mut p = sum_process(EngineConfig::default());
    let sites = pcs(&p);
    let k = sites.len();
    assert!(k > 10);

    // Individually: k passes.
    for pc in &sites {
        p.add_local_probe_val(0, *pc, CountProbe::new()).unwrap();
    }
    assert_eq!(p.stats().invalidation_passes, k as u64, "one pass per probe");

    // Batched: exactly one pass for all k insertions.
    let mut p = sum_process(EngineConfig::default());
    let mut batch = ProbeBatch::new();
    for pc in &sites {
        batch.add_local_val(0, *pc, CountProbe::new());
    }
    assert_eq!(batch.len(), k);
    let ids = p.apply_batch(batch).unwrap();
    assert_eq!(ids.len(), k);
    assert_eq!(p.stats().invalidation_passes, 1, "k probes, one invalidation pass");
    assert_eq!(p.probed_location_count(), k);

    // Batched removal: also one pass, and back to baseline.
    let mut removal = ProbeBatch::new();
    for id in ids {
        removal.remove(id);
    }
    p.apply_batch(removal).unwrap();
    assert_eq!(p.stats().invalidation_passes, 2);
    assert_eq!(p.probed_location_count(), 0);
}

#[test]
fn batch_validation_is_atomic() {
    let mut p = sum_process(EngineConfig::interpreter());
    let mut batch = ProbeBatch::new();
    batch.add_local_val(0, 0, CountProbe::new());
    batch.add_local_val(0, 1_000_000, CountProbe::new()); // invalid pc
    let err = p.apply_batch(batch).unwrap_err();
    assert_eq!(err, ProbeError::InvalidPc(0, 1_000_000));
    assert_eq!(p.probed_location_count(), 0, "nothing applied from a bad batch");
    assert_eq!(p.stats().invalidation_passes, 0);
}

#[test]
fn failed_attach_rolls_back_inserted_probes() {
    struct FailsHalfway;
    impl Monitor for FailsHalfway {
        fn name(&self) -> &'static str {
            "fails-halfway"
        }
        fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
            ctx.add_local_probe_val(0, 0, CountProbe::new())?;
            ctx.add_local_probe_val(0, 1_000_000, CountProbe::new())?; // fails
            Ok(())
        }
        fn report(&self) -> Report {
            Report::new(self.name())
        }
    }

    let mut p = sum_process(EngineConfig::interpreter());
    let err = p.attach_monitor(FailsHalfway).unwrap_err();
    assert_eq!(err, ProbeError::InvalidPc(0, 1_000_000));
    assert_eq!(p.probed_location_count(), 0, "partial attach rolled back");
    assert_eq!(p.monitor_count(), 0);
    assert!(!p.has_probe_byte(0, 0));
}

#[test]
fn reattaching_same_instance_fails() {
    use std::cell::RefCell;
    let mut p = sum_process(EngineConfig::interpreter());
    let mon: Rc<RefCell<dyn Monitor>> = Rc::new(RefCell::new(EverythingMonitor::default()));
    let h = p.attach_monitor_dyn(Rc::clone(&mon)).unwrap();
    let sites = p.probed_location_count();
    assert_eq!(
        p.attach_monitor_dyn(Rc::clone(&mon)).unwrap_err(),
        ProbeError::MonitorAlreadyAttached
    );
    assert_eq!(p.probed_location_count(), sites, "no duplicate probes registered");
    // After detach, the same instance may be attached again.
    p.detach_monitor(h).unwrap();
    p.attach_monitor_dyn(mon).unwrap();
}

#[test]
fn detach_unknown_handle_fails() {
    let mut p = sum_process(EngineConfig::interpreter());
    let m = p.attach_monitor(EverythingMonitor::default()).unwrap();
    p.detach_monitor(m.handle()).unwrap();
    assert_eq!(p.detach_monitor(m.handle()).unwrap_err(), ProbeError::UnknownMonitor);
}

#[test]
fn monitors_detach_independently() {
    let mut p = sum_process(EngineConfig::interpreter());
    let a = p.attach_monitor(EverythingMonitor::default()).unwrap();
    let b = p.attach_monitor(EverythingMonitor::default()).unwrap();
    assert_eq!(p.monitor_count(), 2);
    let sites = p.probed_location_count();

    p.detach_monitor(a.handle()).unwrap();
    assert_eq!(p.monitor_count(), 1);
    // b's probes are still installed: every site had probes from both.
    assert_eq!(p.probed_location_count(), sites);
    assert!(p.in_global_mode(), "b's global probe still active");

    p.invoke_export("sum", &[Value::I32(5)]).unwrap();
    let a_fires: u64 = a.borrow().fires.iter().map(|c| c.get()).sum();
    let b_fires: u64 = b.borrow().fires.iter().map(|c| c.get()).sum();
    assert_eq!(a_fires, 0, "detached monitor sees nothing");
    assert!(b_fires > 0, "remaining monitor still observes");

    p.detach_monitor(b.handle()).unwrap();
    assert_eq!(p.probed_location_count(), 0);
    assert!(!p.in_global_mode());
}

#[test]
fn dyn_attach_and_reports() {
    use std::cell::RefCell;
    let mut p = sum_process(EngineConfig::interpreter());
    let mon: Rc<RefCell<dyn Monitor>> = Rc::new(RefCell::new(EverythingMonitor::default()));
    let h = p.attach_monitor_dyn(Rc::clone(&mon)).unwrap();
    p.invoke_export("sum", &[Value::I32(5)]).unwrap();

    let reports = p.monitor_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].title, "everything");
    let summary = reports[0].get("summary").unwrap();
    assert!(summary.count_of("local fires").unwrap() > 0);
    assert!(summary.count_of("global fires").unwrap() > 0);
    assert_eq!(p.monitor_handles(), vec![h]);

    p.detach_monitor(h).unwrap();
    assert_eq!(p.monitor_reports().len(), 0);
}

#[test]
fn report_display_is_structured() {
    let mut p = sum_process(EngineConfig::interpreter());
    let m = p.attach_monitor(EverythingMonitor::default()).unwrap();
    p.invoke_export("sum", &[Value::I32(3)]).unwrap();
    let text = m.report().to_string();
    assert!(text.starts_with("=== everything ==="));
    assert!(text.contains("[summary]"));
    assert!(text.contains("local fires: "));
}
