//! Shared-artifact acceptance tests: processes instantiated from one
//! `Arc<ModuleArtifact>` share validated metadata, lowered code and
//! baseline JIT code — pointer-equality included — while instrumentation
//! stays strictly per-process via copy-on-write overlays.

use std::sync::Arc;

use wizard_engine::store::Linker;
use wizard_engine::{
    CountProbe, EngineConfig, EngineStats, ModuleArtifact, ProbeError, Process, RunOutcome, Value,
};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::Module;
use wizard_wasm::types::ValType::I32;

/// `sum(n) = 0 + 1 + ... + (n-1)` with a loop (so it can tier up), plus a
/// second function so overlays are visibly per-function.
fn sum_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).i32_add().local_set(acc);
    });
    f.local_get(acc);
    mb.add_func("sum", f);
    let mut g = FuncBuilder::new(&[I32], &[I32]);
    g.local_get(0).i32_const(1).i32_add();
    mb.add_func("inc", g);
    mb.build().unwrap()
}

fn artifact() -> Arc<ModuleArtifact> {
    Arc::new(ModuleArtifact::new(sum_module()).unwrap())
}

#[test]
fn siblings_share_lowered_code_by_pointer_until_a_probe_lands() {
    let art = artifact();
    let mut p1 =
        Process::instantiate(Arc::clone(&art), EngineConfig::interpreter(), &Linker::new())
            .unwrap();
    let mut p2 =
        Process::instantiate(Arc::clone(&art), EngineConfig::interpreter(), &Linker::new())
            .unwrap();
    assert!(Arc::ptr_eq(p1.artifact(), p2.artifact()));
    let f = p1.module().export_func("sum").unwrap();

    // Both processes run correctly and dispatch from the *same* lowered
    // op stream — pointer equality, not just value equality.
    assert_eq!(p1.invoke(f, &[Value::I32(10)]).unwrap(), vec![Value::I32(45)]);
    assert_eq!(p2.invoke(f, &[Value::I32(10)]).unwrap(), vec![Value::I32(45)]);
    assert_eq!(p1.code_identity(f).unwrap(), p2.code_identity(f).unwrap());
    assert_eq!(p1.resident_overlay_bytes(), 0);
    assert_eq!(p2.resident_overlay_bytes(), 0);

    // A probe on p1 copy-on-writes only p1's copy of only that function.
    let shared_addr = p2.code_identity(f).unwrap();
    let id = p1.add_local_probe_val(f, 0, CountProbe::new()).unwrap();
    assert!(p1.has_overlay(f));
    assert_ne!(p1.code_identity(f).unwrap(), shared_addr);
    assert!(p1.resident_overlay_bytes() > 0);
    assert_eq!(p1.stats().overlay_copies, 1);
    // The sibling still shares, and never sees the probe byte.
    assert!(!p2.has_overlay(f));
    assert_eq!(p2.code_identity(f).unwrap(), shared_addr);
    assert!(p1.has_probe_byte(f, 0));
    assert!(!p2.has_probe_byte(f, 0));

    // Zero-overhead baseline on the uninstrumented sibling: running it
    // fires nothing and copies nothing.
    p2.reset_stats();
    assert_eq!(p2.invoke(f, &[Value::I32(10)]).unwrap(), vec![Value::I32(45)]);
    assert_eq!(p2.stats().probe_fires, 0);
    assert_eq!(p2.stats().overlay_copies, 0);
    assert_eq!(p2.resident_overlay_bytes(), 0);

    // Removing the last probe drops the copy: p1 rejoins the artifact.
    p1.remove_probe(id).unwrap();
    assert!(!p1.has_overlay(f));
    assert_eq!(p1.code_identity(f).unwrap(), shared_addr);
    assert_eq!(p1.resident_overlay_bytes(), 0);
    assert_eq!(p1.invoke(f, &[Value::I32(10)]).unwrap(), vec![Value::I32(45)]);
}

#[test]
fn probed_sibling_observes_only_its_own_execution() {
    let art = artifact();
    let config = EngineConfig::interpreter();
    let mut probed =
        Process::instantiate(Arc::clone(&art), config.clone(), &Linker::new()).unwrap();
    let mut clean = Process::instantiate(Arc::clone(&art), config, &Linker::new()).unwrap();
    let f = probed.module().export_func("sum").unwrap();

    let probe = CountProbe::new();
    let counter = probe.cell();
    probed.add_local_probe_val(f, 0, probe).unwrap();

    // Run the *clean* process: the probed process's counter must not move
    // (per-process non-intrusiveness across a shared artifact).
    clean.invoke(f, &[Value::I32(50)]).unwrap();
    assert_eq!(counter.get(), 0);
    probed.invoke(f, &[Value::I32(50)]).unwrap();
    assert_eq!(counter.get(), 1);
}

#[test]
fn baseline_jit_code_is_shared_until_probed_and_after_rejoin() {
    let art = artifact();
    let config =
        EngineConfig::builder().mode(wizard_engine::ExecMode::Tiered).tierup_threshold(2).build();
    let mut p1 = Process::instantiate(Arc::clone(&art), config.clone(), &Linker::new()).unwrap();
    let mut p2 = Process::instantiate(Arc::clone(&art), config, &Linker::new()).unwrap();
    let f = p1.module().export_func("sum").unwrap();
    // Metered runs: clean unmetered code runs in the register tier and
    // never compiles, metered slices take the stack tiers and tier up.
    let run = |p: &mut Process| match p.run_bounded(f, &[Value::I32(30)], 1 << 20).unwrap() {
        wizard_engine::RunOutcome::Done(r) => r,
        wizard_engine::RunOutcome::OutOfFuel => panic!("the budget covers the run"),
    };

    // Tier both up.
    for _ in 0..3 {
        run(&mut p1);
        run(&mut p2);
    }
    assert!(p1.is_compiled(f) && p2.is_compiled(f));
    let shared = p1.compiled_identity(f).unwrap();
    assert_eq!(Some(shared), p2.compiled_identity(f), "baseline compiled code is one artifact");
    // Only one of the two processes actually compiled; the other shared.
    assert_eq!(p1.stats().compiles + p2.stats().compiles, 1);

    // Probing p1 invalidates *its* code only; recompiling specializes
    // privately while p2 keeps executing the shared baseline.
    let probe = CountProbe::new();
    let counter = probe.cell();
    let id = p1.add_local_probe_val(f, 0, probe).unwrap();
    assert!(!p1.is_compiled(f));
    assert_eq!(p2.compiled_identity(f), Some(shared));
    for _ in 0..3 {
        run(&mut p1);
    }
    assert!(p1.is_compiled(f));
    assert_ne!(p1.compiled_identity(f), Some(shared));
    assert!(counter.get() > 0);
    assert_eq!(run(&mut p2), vec![Value::I32(435)]);

    // Detach: p1 rejoins version 0 and the next tier-up reuses the shared
    // baseline without recompiling anything.
    p1.remove_probe(id).unwrap();
    let compiles_before = p1.stats().compiles + p2.stats().compiles;
    for _ in 0..3 {
        run(&mut p1);
    }
    assert_eq!(p1.compiled_identity(f), Some(shared), "rejoined the shared baseline");
    assert_eq!(p1.stats().compiles + p2.stats().compiles, compiles_before);
}

#[test]
fn artifacts_instantiate_across_threads() {
    let art = artifact();
    // Warm the shared pipeline from the main thread.
    art.lower_all();
    let handles: Vec<_> = (0..4)
        .map(|k| {
            let art = Arc::clone(&art);
            std::thread::spawn(move || {
                let mut p =
                    Process::instantiate(art, EngineConfig::default(), &Linker::new()).unwrap();
                let f = p.module().export_func("sum").unwrap();
                let r = p.invoke(f, &[Value::I32(10 + k)]).unwrap();
                // Each worker may instrument its own process freely.
                let probe = CountProbe::new();
                let cell = probe.cell();
                p.add_local_probe_val(f, 0, probe).unwrap();
                p.invoke(f, &[Value::I32(10 + k)]).unwrap();
                assert_eq!(cell.get(), 1);
                (k, r)
            })
        })
        .collect();
    for h in handles {
        let (k, r) = h.join().unwrap();
        let n = i64::from(10 + k);
        assert_eq!(r, vec![Value::I32((n * (n - 1) / 2) as i32)]);
    }
    // Shared lowering happened exactly once per function no matter how
    // many threads instantiated.
    assert!(art.funcs().iter().all(|f| f.is_lowered()));
}

#[test]
fn instantiate_skips_validation_and_per_function_work() {
    let art = artifact();
    // Force all shared work up front.
    art.lower_all();
    let mut p = Process::instantiate(Arc::clone(&art), EngineConfig::interpreter(), &Linker::new())
        .unwrap();
    let f = p.module().export_func("sum").unwrap();
    p.invoke(f, &[Value::I32(10)]).unwrap();
    // The warm process did zero lowering of its own.
    assert_eq!(p.stats().functions_lowered, 0);
    assert!(art.code_size_bytes() > 0);
}

#[test]
fn relower_rebuilds_only_the_process_local_overlay() {
    let art = artifact();
    let mut p1 =
        Process::instantiate(Arc::clone(&art), EngineConfig::interpreter(), &Linker::new())
            .unwrap();
    let mut p2 =
        Process::instantiate(Arc::clone(&art), EngineConfig::interpreter(), &Linker::new())
            .unwrap();
    let f = p1.module().export_func("sum").unwrap();
    let shared = p2.code_identity(f).unwrap();
    p1.add_local_probe_val(f, 0, CountProbe::new()).unwrap();
    p1.relower(f).unwrap();
    assert_eq!(p1.stats().relower_passes, 1);
    let overlay_after = p1.code_identity(f).unwrap();
    assert_ne!(overlay_after, shared, "still overlaid (probe intact)");
    assert!(p1.has_probe_byte(f, 0));
    assert_eq!(p2.code_identity(f).unwrap(), shared, "sibling untouched by relower");
    assert!(matches!(p1.relower(99), Err(ProbeError::NotALocalFunction(99))));
}

#[test]
fn mid_execution_cow_materialization_is_visible_to_the_running_function() {
    use std::cell::Cell;
    use std::rc::Rc;
    use wizard_engine::ClosureProbe;

    // A global probe fires while `sum` executes from the *shared* op
    // stream and installs the function's first local probe — the overlay
    // materializes mid-execution, and the running view must flip to it or
    // the new probe would silently never fire in this invocation.
    let art = artifact();
    let mut p = Process::instantiate(Arc::clone(&art), EngineConfig::interpreter(), &Linker::new())
        .unwrap();
    let f = p.module().export_func("sum").unwrap();
    // Find the loop header: probe it from inside the global probe.
    let meta = wizard_wasm::validate::validate(p.module()).unwrap();
    let loop_pc = meta.funcs[0].loop_headers[0];

    let fires = Rc::new(Cell::new(0u64));
    let inserted = Rc::new(Cell::new(false));
    let (fires2, inserted2) = (Rc::clone(&fires), Rc::clone(&inserted));
    let gid = p
        .add_global_probe(ClosureProbe::shared(move |ctx| {
            if !inserted2.get() {
                inserted2.set(true);
                let fires2 = Rc::clone(&fires2);
                ctx.insert_local_probe(
                    ctx.location().func,
                    loop_pc,
                    ClosureProbe::shared(move |_| fires2.set(fires2.get() + 1)),
                )
                .unwrap();
            }
        }))
        .unwrap();
    let r = p.invoke(f, &[Value::I32(5)]).unwrap();
    assert_eq!(r, vec![Value::I32(10)]);
    assert!(p.has_overlay(f), "insertion copy-on-wrote mid-execution");
    // Inserted before the first instruction executed; the loop header
    // occurs 6 times for n=5 (entry + 5 backedges).
    assert_eq!(fires.get(), 6, "probe fired in the same invocation that inserted it");
    p.remove_probe(gid).unwrap();
}

#[test]
fn mid_execution_rejoin_when_the_last_probe_removes_itself() {
    use std::cell::Cell;
    use std::rc::Rc;
    use wizard_engine::{ClosureProbe, ProbeId};

    let art = artifact();
    let mut p = Process::instantiate(Arc::clone(&art), EngineConfig::interpreter(), &Linker::new())
        .unwrap();
    let f = p.module().export_func("sum").unwrap();
    let meta = wizard_wasm::validate::validate(p.module()).unwrap();
    let loop_pc = meta.funcs[0].loop_headers[0];

    // A one-shot probe: removes itself on its first fire. It is the
    // function's only probe, so the removal drops the overlay *while the
    // function is executing* — the run must continue correctly on the
    // shared stream.
    let fires = Rc::new(Cell::new(0u64));
    let own_id: Rc<Cell<Option<ProbeId>>> = Rc::new(Cell::new(None));
    let (fires2, own2) = (Rc::clone(&fires), Rc::clone(&own_id));
    let id = p
        .add_local_probe(
            f,
            loop_pc,
            ClosureProbe::shared(move |ctx| {
                fires2.set(fires2.get() + 1);
                if let Some(id) = own2.get() {
                    ctx.remove_probe(id);
                }
            }),
        )
        .unwrap();
    own_id.set(Some(id));
    let r = p.invoke(f, &[Value::I32(5)]).unwrap();
    assert_eq!(r, vec![Value::I32(10)]);
    assert_eq!(fires.get(), 1, "one-shot probe fired exactly once");
    assert!(!p.has_overlay(f), "self-removal rejoined the shared artifact mid-execution");
    assert_eq!(p.resident_overlay_bytes(), 0);
    assert!(!p.has_probe_byte(f, loop_pc));
}

#[test]
fn parked_jit_frames_deopt_across_a_rejoin_and_reprobe_cycle() {
    use std::cell::Cell;
    use std::rc::Rc;
    use wizard_engine::{ClosureProbe, EmptyProbe, ProbeId};

    // Version-ABA regression: a JIT frame of `outer` parks at its call to
    // `helper`; while it is parked, helper's probe removes outer's only
    // probe (overlay rejoin) and installs a different one, and the
    // mutual recursion forces outer to be *recompiled* — with a different
    // op-stream layout — before the parked frame resumes. If the
    // instrumentation version ever recurred across that cycle, the parked
    // frame would pass the staleness check and resume at a misaligned
    // `cip`; monotonic versions force the deopt instead.
    let mut mb = ModuleBuilder::new();
    // outer = func 0, helper = func 1 (added in this order).
    let mut fo = FuncBuilder::new(&[I32], &[I32]);
    let r = fo.local(I32);
    fo.local_get(0);
    fo.if_(wizard_wasm::types::BlockType::Empty);
    fo.local_get(0).call(1).local_set(r);
    fo.end();
    fo.local_get(r);
    mb.add_func("outer", fo);
    let mut fh = FuncBuilder::new(&[I32], &[I32]);
    fh.local_get(0).i32_const(1).i32_sub().call(0).i32_const(1).i32_add();
    mb.add_func("helper", fh);
    let m = mb.build().unwrap();

    let mut p = Process::new(m, EngineConfig::jit(), &Linker::new()).unwrap();
    let outer = p.module().export_func("outer").unwrap();
    let helper = p.module().export_func("helper").unwrap();
    // A later instruction boundary of outer's body, for the replacement
    // probe (so the recompiled op stream has a different layout).
    let body = p.module().func_body(outer).unwrap().code.clone();
    let pcs: Vec<u32> = wizard_wasm::instr::InstrIter::new(&body).map(|x| x.unwrap().pc).collect();
    let later_pc = pcs[pcs.len() - 2];

    let a_id: Rc<Cell<Option<ProbeId>>> = Rc::new(Cell::new(None));
    let id = p.add_local_probe_val(outer, 0, EmptyProbe).unwrap();
    a_id.set(Some(id));
    let swapped = Rc::new(Cell::new(false));
    let (a2, s2) = (Rc::clone(&a_id), Rc::clone(&swapped));
    p.add_local_probe(
        helper,
        0,
        ClosureProbe::shared(move |ctx| {
            if !s2.get() {
                s2.set(true);
                ctx.remove_probe(a2.get().expect("probe A installed"));
                ctx.insert_local_probe(
                    outer,
                    later_pc,
                    std::rc::Rc::new(std::cell::RefCell::new(EmptyProbe)),
                )
                .unwrap();
            }
        }),
    )
    .unwrap();

    // outer(2) -> helper(2) -> outer(1) -> helper(1) -> outer(0) = 0,
    // +1 per helper level: outer(2) == 2. A misaligned resume of the
    // parked outer(2) frame yields a wrong result or panics.
    let r = p.invoke(outer, &[Value::I32(2)]).unwrap();
    assert_eq!(r, vec![Value::I32(2)]);
    assert!(p.stats().deopts > 0, "the parked frame deoptimized instead of resuming stale code");
}

#[test]
fn engine_stats_merge_covers_artifact_counters() {
    let mut a = EngineStats { overlay_copies: 2, artifact_cache_hits: 3, ..Default::default() };
    let b = EngineStats {
        overlay_copies: 1,
        artifact_cache_hits: 4,
        artifact_cache_misses: 5,
        ..Default::default()
    };
    a.merge(&b);
    assert_eq!(a.overlay_copies, 3);
    assert_eq!(a.artifact_cache_hits, 7);
    assert_eq!(a.artifact_cache_misses, 5);
}

// ---- refcount-free frame switches ----

/// `a(x) = b(x) + 1`, `b(x) = c(x) + 1`, `c(x) = Σ_{i<x} i` (a loop, so the
/// tiered configuration compiles it): a probe in `c` fires at depth 3.
fn chain_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut fc = FuncBuilder::new(&[I32], &[I32]);
    let i = fc.local(I32);
    let acc = fc.local(I32);
    fc.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).i32_add().local_set(acc);
    });
    fc.local_get(acc);
    let c = mb.add_func("c", fc);
    let mut fb = FuncBuilder::new(&[I32], &[I32]);
    fb.local_get(0).call(c).i32_const(1).i32_add();
    let b = mb.add_func("b", fb);
    let mut fa = FuncBuilder::new(&[I32], &[I32]);
    fa.local_get(0).call(b).i32_const(1).i32_add();
    mb.add_func("a", fa);
    mb.build().unwrap()
}

/// Per function: handles on its bytes, metadata, op stream, targets, tables.
type ShareCounts = Vec<[usize; 5]>;

/// Handle counts of everything a frame switch used to clone out of the
/// artifact: per function its bytes, its metadata and — once lowered — the
/// lowered form's op stream, target array and table array.
fn share_counts(art: &ModuleArtifact) -> ShareCounts {
    art.funcs()
        .iter()
        .map(|fa| {
            let low = fa.is_lowered().then(|| fa.lowered());
            [
                Arc::strong_count(&fa.bytes),
                Arc::strong_count(&fa.meta),
                low.map_or(0, |l| l.share_count()),
                low.map_or(0, |l| Arc::strong_count(&l.targets)),
                low.map_or(0, |l| Arc::strong_count(&l.tables)),
            ]
        })
        .collect()
}

/// Runs export `name` to completion: unbounded, or in `slice`-instruction
/// turns of `run_bounded` / `resume`.
fn run_export(p: &mut Process, name: &str, arg: i32, slice: Option<u64>) -> Vec<Value> {
    let args = [Value::I32(arg)];
    let Some(fuel) = slice else {
        return p.invoke_export(name, &args).unwrap();
    };
    let mut turn = p.run_export_bounded(name, &args, fuel).unwrap();
    loop {
        match turn {
            RunOutcome::Done(v) => return v,
            RunOutcome::OutOfFuel => turn = p.resume(fuel).unwrap(),
        }
    }
}

#[test]
fn frame_switches_hold_no_clone_of_shared_state() {
    use std::cell::RefCell;
    use std::rc::Rc;
    use wizard_engine::ClosureProbe;

    let tiered = EngineConfig::builder().tierup_threshold(2).build();
    let arms = [
        ("interp", EngineConfig::interpreter(), None),
        ("tiered", tiered.clone(), None),
        ("bytecode", EngineConfig::interpreter_bytecode(), None),
        ("interp/sliced", EngineConfig::interpreter(), Some(7)),
        ("tiered/sliced", tiered, Some(7)),
    ];
    for (arm, config, slice) in arms {
        let art = Arc::new(ModuleArtifact::new(chain_module()).unwrap());
        let mut p = Process::instantiate(Arc::clone(&art), config, &Linker::new()).unwrap();
        let c = p.module().export_func("c").unwrap();

        // The probe goes in first (validating its location lowers `c`, in
        // every arm), then a few warm-up runs resolve every function's
        // views and — in the tiered arms — compile what will compile.
        let seen: Rc<RefCell<Vec<(u32, ShareCounts)>>> = Rc::default();
        let (seen2, art2) = (Rc::clone(&seen), Arc::clone(&art));
        p.add_local_probe(
            c,
            0,
            ClosureProbe::shared(move |ctx| {
                seen2.borrow_mut().push((ctx.depth(), share_counts(&art2)));
            }),
        )
        .unwrap();
        for _ in 0..3 {
            assert_eq!(run_export(&mut p, "a", 6, slice), vec![Value::I32(17)], "{arm}");
        }

        // Idle: the process exists, nothing executes. Each part is held by
        // the artifact and by this process's resolved views, nothing else.
        let idle = share_counts(&art);
        seen.borrow_mut().clear();
        assert_eq!(run_export(&mut p, "a", 6, slice), vec![Value::I32(17)], "{arm}");
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1, "{arm}: the probe at c's entry fires once per run");
        let (depth, during) = &seen[0];
        assert!(*depth >= 3, "{arm}: probe fired at depth {depth}");
        assert_eq!(
            *during, idle,
            "{arm}: three live frames (and a fuel-sliced resume) hold no clone of shared state"
        );
    }
}

#[test]
fn richards_fleets_on_two_threads_match_the_single_threaded_run() {
    use wizard_monitors::HotnessMonitor;

    const PROCESSES: usize = 20;
    const LOOPS: i32 = 12;

    /// Runs `PROCESSES` richards processes off `art`, one after another;
    /// odd ones in fuel slices. Returns every result and hotness report.
    fn fleet(art: &Arc<ModuleArtifact>, monitored: bool) -> Vec<(Vec<Value>, Option<String>)> {
        (0..PROCESSES)
            .map(|k| {
                let mut p =
                    Process::instantiate(Arc::clone(art), EngineConfig::default(), &Linker::new())
                        .unwrap();
                let monitor = monitored.then(|| p.attach_monitor(HotnessMonitor::new()).unwrap());
                let result = run_export(&mut p, "run", LOOPS, (k % 2 == 1).then_some(997));
                let report = monitor.map(|m| {
                    p.detach_monitor(m.handle()).unwrap();
                    m.report().to_string()
                });
                (result, report)
            })
            .collect()
    }

    let module = wizard_suites::richards_benchmark(LOOPS).module;
    // The reference: both fleets on this thread, from a private artifact.
    let reference = Arc::new(ModuleArtifact::new(module.clone()).unwrap());
    let (plain_ref, monitored_ref) = (fleet(&reference, false), fleet(&reference, true));
    assert!(monitored_ref[0].1.as_ref().is_some_and(|r| r.contains("total instruction")));

    // The same two fleets concurrently, sharing one artifact.
    let art = Arc::new(ModuleArtifact::new(module).unwrap());
    let start = std::sync::Barrier::new(2);
    let (plain, monitored) = std::thread::scope(|s| {
        let side = |monitored: bool| {
            let (art, start) = (&art, &start);
            s.spawn(move || {
                start.wait();
                fleet(art, monitored)
            })
        };
        let (plain, monitored) = (side(false), side(true));
        (plain.join().unwrap(), monitored.join().unwrap())
    });
    assert_eq!(plain, plain_ref);
    assert_eq!(monitored, monitored_ref);
    // Every process is gone: only the artifact holds its parts again.
    assert!(share_counts(&art).iter().all(|c| c.iter().all(|&n| n <= 1)));
}

#[test]
fn a_callee_instrumenting_its_caller_flips_the_callers_views_on_return() {
    use std::cell::Cell;
    use std::rc::Rc;
    use wizard_engine::{ClosureProbe, ProbeId};

    // caller(n) = Σ_{i<n} callee(i), callee(x) = x + 1. A probe at callee's
    // entry, on its 1st fire, puts the *first* probe into caller — at the
    // instruction right after the call, so caller's overlay materializes
    // while caller's frame is parked — on its 3rd fire removes it (caller
    // rejoins the shared stream), and on its 4th and 5th does both again
    // with a fresh overlay. The counting probe therefore fires for
    // i = 0, 1 and 3: each return must find caller's frame dispatching
    // through whatever stream caller has *now*. A caller whose views were
    // cached across the call would miss i = 0 (still on the shared
    // stream), or i = 3 (still on the first, dead overlay).
    let mut mb = ModuleBuilder::new();
    let caller = mb.declare_func("caller", &[I32], &[I32]);
    let callee = mb.declare_func("callee", &[I32], &[I32]);
    mb.export("caller", wizard_wasm::types::ExternKind::Func, caller);
    let mut fc = FuncBuilder::new(&[I32], &[I32]);
    let i = fc.local(I32);
    let acc = fc.local(I32);
    let mut after_call = 0;
    fc.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).call(callee);
        after_call = f.pc();
        f.i32_add().local_set(acc);
    });
    fc.local_get(acc);
    mb.define_func(caller, fc);
    let mut fe = FuncBuilder::new(&[I32], &[I32]);
    fe.local_get(0).i32_const(1).i32_add();
    mb.define_func(callee, fe);
    let module = mb.build().unwrap();

    let tiered = EngineConfig::builder().tierup_threshold(2).build();
    let arms = [
        ("interp", EngineConfig::interpreter(), None),
        ("tiered", tiered.clone(), None),
        ("bytecode", EngineConfig::interpreter_bytecode(), None),
        ("interp/sliced", EngineConfig::interpreter(), Some(5)),
        ("tiered/sliced", tiered, Some(5)),
        ("bytecode/sliced", EngineConfig::interpreter_bytecode(), Some(5)),
    ];
    for (arm, config, slice) in arms {
        let art = Arc::new(ModuleArtifact::new(module.clone()).unwrap());
        let mut p = Process::instantiate(art, config, &Linker::new()).unwrap();

        let counted = Rc::new(Cell::new(0u32));
        let entries = Rc::new(Cell::new(0u32));
        let installed: Rc<Cell<Option<ProbeId>>> = Rc::default();
        let (counted2, entries2) = (Rc::clone(&counted), Rc::clone(&entries));
        p.add_local_probe(
            callee,
            0,
            ClosureProbe::shared(move |ctx| {
                entries2.set(entries2.get() + 1);
                match entries2.get() {
                    1 | 4 => {
                        let counted = Rc::clone(&counted2);
                        let probe = ClosureProbe::shared(move |_| counted.set(counted.get() + 1));
                        let id = ctx.insert_local_probe(caller, after_call, probe).unwrap();
                        installed.set(Some(id));
                    }
                    3 | 5 => ctx.remove_probe(installed.take().expect("installed earlier")),
                    _ => {}
                }
            }),
        )
        .unwrap();

        assert_eq!(run_export(&mut p, "caller", 8, slice), vec![Value::I32(36)], "{arm}");
        assert_eq!(entries.get(), 8, "{arm}");
        assert_eq!(counted.get(), 3, "{arm}: the caller's probe fires for i = 0, 1 and 3");
        assert!(!p.has_overlay(caller), "{arm}: the caller rejoined the shared stream");
        assert!(p.has_overlay(callee), "{arm}");
    }
}
