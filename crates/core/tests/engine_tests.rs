//! End-to-end engine tests: execution semantics across all tiers, the
//! probe framework, the paper's §2.4 consistency guarantees, FrameAccessor
//! validity, and multi-tier deoptimization.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_engine::{ClosureProbe, CountProbe, EngineConfig, ProbeError, Process, Trap, Value};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::Module;
use wizard_wasm::types::BlockType;
use wizard_wasm::types::ValType::{F64, I32, I64};
use wizard_wasm::validate::ModuleMeta;

fn configs() -> Vec<(&'static str, EngineConfig)> {
    use wizard_engine::{Dispatch, ExecMode};
    vec![
        ("interp", EngineConfig::interpreter()),
        ("interp-bytecode", EngineConfig::interpreter_bytecode()),
        ("jit", EngineConfig::jit()),
        ("jit-no-intrinsics", EngineConfig::jit_no_intrinsics()),
        ("tiered", EngineConfig::builder().tierup_threshold(4).build()),
        (
            "tiered-bytecode",
            EngineConfig::builder()
                .mode(ExecMode::Tiered)
                .dispatch(Dispatch::Bytecode)
                .tierup_threshold(4)
                .build(),
        ),
    ]
}

fn proc_with(module: Module, config: EngineConfig) -> Process {
    Process::new(module, config, &Linker::new()).expect("instantiation succeeds")
}

/// `sum(n)`: loop from 0..n accumulating i. Returns (module, meta).
fn sum_module() -> (Module, ModuleMeta) {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).i32_add().local_set(acc);
    });
    f.local_get(acc);
    mb.add_func("sum", f);
    mb.build_with_meta().expect("valid module")
}

fn fib_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let fib = mb.declare_func("fib", &[I32], &[I32]);
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.local_get(0).i32_const(2).i32_lt_s().if_(BlockType::Value(I32));
    f.local_get(0);
    f.else_();
    f.local_get(0).i32_const(1).i32_sub().call(fib);
    f.local_get(0).i32_const(2).i32_sub().call(fib);
    f.i32_add();
    f.end();
    mb.define_func(fib, f);
    mb.export("fib", wizard_wasm::types::ExternKind::Func, fib);
    mb.build().expect("valid module")
}

#[test]
fn arithmetic_same_in_all_tiers() {
    for (name, config) in configs() {
        let (m, _) = sum_module();
        let mut p = proc_with(m, config);
        let r = p.invoke_export("sum", &[Value::I32(100)]).unwrap();
        assert_eq!(r, vec![Value::I32(4950)], "config {name}");
    }
}

#[test]
fn recursion_same_in_all_tiers() {
    for (name, config) in configs() {
        let mut p = proc_with(fib_module(), config);
        let r = p.invoke_export("fib", &[Value::I32(15)]).unwrap();
        assert_eq!(r, vec![Value::I32(610)], "config {name}");
    }
}

#[test]
fn tiered_mode_tiers_up_via_osr() {
    let (m, _) = sum_module();
    let mut p = proc_with(m, EngineConfig::builder().tierup_threshold(10).build());
    let r = p.invoke_export("sum", &[Value::I32(10_000)]).unwrap();
    assert_eq!(r, vec![Value::I32(49_995_000)]);
    let stats = p.stats();
    assert!(stats.tier_ups >= 1, "expected OSR tier-up, stats: {stats:?}");
    assert!(stats.compiles >= 1);
    let f = p.module().export_func("sum").unwrap();
    assert!(p.is_compiled(f));
}

#[test]
fn call_indirect_dispatch_and_traps() {
    let mut mb = ModuleBuilder::new();
    mb.table(4);
    let mut dbl = FuncBuilder::new(&[I32], &[I32]);
    dbl.local_get(0).i32_const(2).i32_mul();
    let dbl = mb.add_private_func("dbl", dbl);
    let mut neg = FuncBuilder::new(&[I32], &[I32]);
    neg.i32_const(0).local_get(0).i32_sub();
    let neg = mb.add_private_func("neg", neg);
    // A function with a different signature for the type-mismatch test.
    let mut f64id = FuncBuilder::new(&[F64], &[F64]);
    f64id.local_get(0);
    let f64id = mb.add_private_func("f64id", f64id);
    mb.elem(0, &[dbl, neg, f64id]);
    let sig = mb.sig(&[I32], &[I32]);
    let mut main = FuncBuilder::new(&[I32, I32], &[I32]);
    main.local_get(0).local_get(1).call_indirect(sig);
    mb.add_func("dispatch", main);
    let m = mb.build().unwrap();
    for (name, config) in configs() {
        let mut p = proc_with(m.clone(), config);
        assert_eq!(
            p.invoke_export("dispatch", &[Value::I32(21), Value::I32(0)]).unwrap(),
            vec![Value::I32(42)],
            "config {name}"
        );
        assert_eq!(
            p.invoke_export("dispatch", &[Value::I32(21), Value::I32(1)]).unwrap(),
            vec![Value::I32(-21)]
        );
        // Signature mismatch.
        assert_eq!(
            p.invoke_export("dispatch", &[Value::I32(1), Value::I32(2)]).unwrap_err(),
            Trap::IndirectCallTypeMismatch
        );
        // Uninitialized element.
        assert_eq!(
            p.invoke_export("dispatch", &[Value::I32(1), Value::I32(3)]).unwrap_err(),
            Trap::UndefinedElement
        );
        // Out of bounds.
        assert_eq!(
            p.invoke_export("dispatch", &[Value::I32(1), Value::I32(9)]).unwrap_err(),
            Trap::UndefinedElement
        );
    }
}

#[test]
fn memory_data_globals_and_grow() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1);
    mb.data(16, &[1, 2, 3, 4]);
    let g = mb.global(I64, true, wizard_wasm::module::ConstExpr::I64(5));
    let mut f = FuncBuilder::new(&[], &[I64]);
    // Read the data segment as a LE u32, store doubled, read back, add the
    // global, grow memory by 1 page, add the old page count.
    let tmp = f.local(I32);
    f.i32_const(16).i32_load(0).local_set(tmp);
    f.i32_const(32).local_get(tmp).i32_const(2).i32_mul().i32_store(0);
    f.i32_const(32).i32_load(0).i64_extend_i32_u();
    f.global_get(g).i64_add();
    f.global_get(g).i64_const(1).i64_add().global_set(g);
    f.i32_const(1).memory_grow().i64_extend_i32_s().i64_add();
    mb.add_func("go", f);
    let m = mb.build().unwrap();
    for (name, config) in configs() {
        let mut p = proc_with(m.clone(), config);
        let expected = i64::from(u32::from_le_bytes([1, 2, 3, 4]) * 2) + 5 + 1;
        assert_eq!(
            p.invoke_export("go", &[]).unwrap(),
            vec![Value::I64(expected)],
            "config {name}"
        );
        assert_eq!(p.global(g).unwrap(), Value::I64(6));
        assert_eq!(p.memory().unwrap().len(), 2 * 65536);
    }
}

#[test]
fn traps_unwind_in_all_tiers() {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.i32_const(1).local_get(0).i32_div_s();
    mb.add_func("div", f);
    let mut g = FuncBuilder::new(&[], &[]);
    g.unreachable();
    mb.add_func("boom", g);
    let rec = mb.declare_func("rec", &[], &[]);
    let mut h = FuncBuilder::new(&[], &[]);
    h.call(rec);
    mb.define_func(rec, h);
    mb.export("rec", wizard_wasm::types::ExternKind::Func, rec);
    let m = mb.build().unwrap();
    for (name, config) in configs() {
        let mut p = proc_with(m.clone(), config);
        assert_eq!(
            p.invoke_export("div", &[Value::I32(0)]).unwrap_err(),
            Trap::DivisionByZero,
            "config {name}"
        );
        assert_eq!(p.invoke_export("boom", &[]).unwrap_err(), Trap::Unreachable);
        assert_eq!(p.invoke_export("rec", &[]).unwrap_err(), Trap::StackOverflow);
        // The process is still usable after a trap.
        assert_eq!(p.invoke_export("div", &[Value::I32(1)]).unwrap(), vec![Value::I32(1)]);
    }
}

#[test]
fn br_table_selects_targets() {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.block(BlockType::Empty); // depth 2 -> returns 30
    f.block(BlockType::Empty); // depth 1 -> returns 20
    f.block(BlockType::Empty); // depth 0 -> returns 10
    f.local_get(0).br_table(&[0, 1], 2);
    f.end();
    f.i32_const(10).return_();
    f.end();
    f.i32_const(20).return_();
    f.end();
    f.i32_const(30);
    mb.add_func("sel", f);
    let m = mb.build().unwrap();
    for (name, config) in configs() {
        let mut p = proc_with(m.clone(), config);
        for (arg, want) in [(0, 10), (1, 20), (2, 30), (77, 30)] {
            assert_eq!(
                p.invoke_export("sel", &[Value::I32(arg)]).unwrap(),
                vec![Value::I32(want)],
                "config {name}, arg {arg}"
            );
        }
    }
}

#[test]
fn host_functions_and_imported_globals() {
    let m = {
        let mut mb = ModuleBuilder::new();
        let add_ten = mb.import_func("env", "add_ten", &[I32], &[I32]);
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).call(add_ten);
        mb.add_func("go", f);
        mb.build().unwrap()
    };
    let calls = Rc::new(Cell::new(0u32));
    let calls2 = Rc::clone(&calls);
    let mut linker = Linker::new();
    linker.func("env", "add_ten", move |_ctx, args| {
        calls2.set(calls2.get() + 1);
        Ok(vec![Value::I32(args[0].as_i32().unwrap() + 10)])
    });
    let mut p = Process::new(m, EngineConfig::default(), &linker).unwrap();
    assert_eq!(p.invoke_export("go", &[Value::I32(5)]).unwrap(), vec![Value::I32(15)]);
    assert_eq!(calls.get(), 1);
}

// ---- instrumentation ----

#[test]
fn local_probe_fires_and_overwrites_bytecode() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    for (name, config) in configs() {
        let mut p = proc_with(m.clone(), config);
        let f = p.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        let counter = probe.cell();
        let id = p.add_local_probe_val(f, loop_pc, probe).unwrap();
        assert!(p.has_probe_byte(f, loop_pc), "config {name}");
        let r = p.invoke(f, &[Value::I32(10)]).unwrap();
        assert_eq!(r, vec![Value::I32(45)]);
        // Loop header executes once on entry + once per backedge.
        assert_eq!(counter.get(), 11, "config {name}");
        p.remove_probe(id).unwrap();
        assert!(!p.has_probe_byte(f, loop_pc));
        p.invoke(f, &[Value::I32(10)]).unwrap();
        assert_eq!(counter.get(), 11, "removed probe must not fire ({name})");
    }
}

#[test]
fn insertion_order_is_firing_order() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    let order = Rc::new(RefCell::new(Vec::new()));
    for tag in ["a", "b", "c"] {
        let order = Rc::clone(&order);
        p.add_local_probe(
            f,
            loop_pc,
            ClosureProbe::shared(move |_ctx| {
                order.borrow_mut().push(tag);
            }),
        )
        .unwrap();
    }
    p.invoke(f, &[Value::I32(1)]).unwrap();
    // Two occurrences (entry + one backedge), each firing a, b, c in order.
    assert_eq!(*order.borrow(), vec!["a", "b", "c", "a", "b", "c"]);
}

#[test]
fn deferred_insert_on_same_event() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    let q_fires = Rc::new(Cell::new(0u32));
    let p_fires = Rc::new(Cell::new(0u32));
    let inserted = Rc::new(Cell::new(false));
    let (qf, pf, ins) = (Rc::clone(&q_fires), Rc::clone(&p_fires), Rc::clone(&inserted));
    p.add_local_probe(
        f,
        loop_pc,
        ClosureProbe::shared(move |ctx| {
            pf.set(pf.get() + 1);
            if !ins.get() {
                ins.set(true);
                let qf = Rc::clone(&qf);
                let loc = ctx.location();
                ctx.insert_local_probe(
                    loc.func,
                    loc.pc,
                    ClosureProbe::shared(move |_| qf.set(qf.get() + 1)),
                )
                .unwrap();
            }
        }),
    )
    .unwrap();
    // Loop header occurs 6 times for n=5 (entry + 5 backedges).
    p.invoke(f, &[Value::I32(5)]).unwrap();
    assert_eq!(p_fires.get(), 6);
    // q was inserted during the 1st occurrence, so it fires on the
    // remaining 5 — not on the occurrence that inserted it.
    assert_eq!(q_fires.get(), 5);
}

#[test]
fn deferred_removal_on_same_event() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    // Insert q first so we can capture its id, then insert p before it by
    // ordering: p must fire first to remove q on the same event, so insert
    // p (the remover) first, then q.
    let q_fires = Rc::new(Cell::new(0u32));
    let removed = Rc::new(Cell::new(false));
    let q_id = Rc::new(Cell::new(None));
    let (rm, qid) = (Rc::clone(&removed), Rc::clone(&q_id));
    p.add_local_probe(
        f,
        loop_pc,
        ClosureProbe::shared(move |ctx| {
            if !rm.get() {
                if let Some(id) = qid.get() {
                    rm.set(true);
                    ctx.remove_probe(id);
                }
            }
        }),
    )
    .unwrap();
    let qf = Rc::clone(&q_fires);
    let id =
        p.add_local_probe(f, loop_pc, ClosureProbe::shared(move |_| qf.set(qf.get() + 1))).unwrap();
    q_id.set(Some(id));
    p.invoke(f, &[Value::I32(5)]).unwrap();
    // q is removed by p during the first occurrence, but still fires on
    // that occurrence (deferred removal), and never again.
    assert_eq!(q_fires.get(), 1);
}

#[test]
fn self_removing_probe_fires_once() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    for (name, config) in configs() {
        let mut p = proc_with(m.clone(), config);
        let f = p.module().export_func("sum").unwrap();
        let fires = Rc::new(Cell::new(0u32));
        let id_cell: Rc<Cell<Option<wizard_engine::ProbeId>>> = Rc::new(Cell::new(None));
        let (fi, idc) = (Rc::clone(&fires), Rc::clone(&id_cell));
        let id = p
            .add_local_probe(
                f,
                loop_pc,
                ClosureProbe::shared(move |ctx| {
                    fi.set(fi.get() + 1);
                    if let Some(id) = idc.get() {
                        ctx.remove_probe(id);
                    }
                }),
            )
            .unwrap();
        id_cell.set(Some(id));
        p.invoke(f, &[Value::I32(50)]).unwrap();
        assert_eq!(fires.get(), 1, "config {name}: coverage-style self-removal");
        assert!(!p.has_probe_byte(f, loop_pc), "byte restored after self-removal ({name})");
        // Second run: no firing at all.
        p.invoke(f, &[Value::I32(50)]).unwrap();
        assert_eq!(fires.get(), 1);
    }
}

#[test]
fn global_probe_sees_every_instruction_and_switches_tables() {
    let (m, _) = sum_module();
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    let count = Rc::new(Cell::new(0u64));
    let c = Rc::clone(&count);
    let id = p.add_global_probe(ClosureProbe::shared(move |_| c.set(c.get() + 1))).unwrap();
    assert!(p.in_global_mode());
    p.invoke(f, &[Value::I32(10)]).unwrap();
    let first = count.get();
    // Each iteration executes >10 instructions; entry/exit add more.
    assert!(first > 100, "expected >100 instruction events, got {first}");
    p.remove_probe(id).unwrap();
    assert!(!p.in_global_mode());
    p.invoke(f, &[Value::I32(10)]).unwrap();
    assert_eq!(count.get(), first, "no fires after removal");
}

#[test]
fn global_probe_mode_suspends_jit_without_discarding_code() {
    let (m, _) = sum_module();
    let mut p = proc_with(m, EngineConfig::builder().tierup_threshold(5).build());
    let f = p.module().export_func("sum").unwrap();
    // Get the function hot and compiled.
    p.invoke(f, &[Value::I32(1000)]).unwrap();
    assert!(p.is_compiled(f));
    let count = Rc::new(Cell::new(0u64));
    let c = Rc::clone(&count);
    let id = p.add_global_probe(ClosureProbe::shared(move |_| c.set(c.get() + 1))).unwrap();
    // Global mode: execution returns to the interpreter, but compiled code
    // is NOT discarded (paper §4.1).
    assert!(p.is_compiled(f), "JIT code must not be discarded by global probes");
    let r = p.invoke(f, &[Value::I32(100)]).unwrap();
    assert_eq!(r, vec![Value::I32(4950)]);
    assert!(count.get() > 500, "global probe must fire per instruction");
    p.remove_probe(id).unwrap();
    // JIT is naturally re-entered without recompiling.
    let fires_after_removal = count.get();
    let before = p.stats();
    p.invoke(f, &[Value::I32(1000)]).unwrap();
    let after = p.stats();
    assert_eq!(count.get(), fires_after_removal, "no fires after removal");
    assert_eq!(after.compiles, before.compiles, "no recompilation needed");
}

/// Global `Count` probes are bumped straight from the instrumented dispatch
/// table; a generic sibling sends the whole list through the runtime. Either
/// way every probe sees every instruction, in both fire counters.
#[test]
fn global_count_probes_count_every_instruction_with_or_without_a_generic_sibling() {
    let (m, _) = sum_module();
    for (name, config) in configs() {
        if config.mode == wizard_engine::ExecMode::JitOnly {
            continue;
        }
        let mut p = proc_with(m.clone(), config);
        let f = p.module().export_func("sum").unwrap();
        let counters = [CountProbe::new(), CountProbe::new()];
        for c in &counters {
            p.add_global_probe_val(c.clone()).unwrap();
        }
        p.invoke(f, &[Value::I32(20)]).unwrap();
        let n = counters[0].count();
        assert!(n > 100 && counters[1].count() == n, "config {name}");
        assert_eq!(p.stats().global_fires, 2 * n, "config {name}");
        assert_eq!(p.stats().probe_fires, 2 * n, "config {name}");

        let seen = Rc::new(Cell::new(0u64));
        let s = Rc::clone(&seen);
        let generic = p.add_global_probe(ClosureProbe::shared(move |_| s.set(s.get() + 1)));
        p.invoke(f, &[Value::I32(20)]).unwrap();
        assert_eq!((seen.get(), counters[1].count()), (n, 2 * n), "config {name}");
        p.remove_probe(generic.unwrap()).unwrap();
        p.invoke(f, &[Value::I32(20)]).unwrap();
        assert_eq!((seen.get(), counters[0].count()), (n, 3 * n), "config {name}");
        assert_eq!(p.stats().global_fires, 7 * n, "config {name}");
    }
}

#[test]
fn frame_accessor_reads_locals_and_operands() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    for (name, config) in configs() {
        let mut p = proc_with(m.clone(), config);
        let f = p.module().export_func("sum").unwrap();
        let seen: Rc<RefCell<Vec<i32>>> = Rc::new(RefCell::new(Vec::new()));
        let s = Rc::clone(&seen);
        p.add_local_probe(
            f,
            loop_pc,
            ClosureProbe::shared(move |ctx| {
                let view = ctx.frame();
                // local 1 is the loop counter i.
                let i = view.local(1).unwrap().as_i32().unwrap();
                s.borrow_mut().push(i);
            }),
        )
        .unwrap();
        p.invoke(f, &[Value::I32(3)]).unwrap();
        // Loop header reached with i = 0 (entry, pre-init it is 0 too),
        // then after increments 1, 2, 3.
        assert_eq!(*seen.borrow(), vec![0, 1, 2, 3], "config {name}");
    }
}

#[test]
fn frame_accessor_identity_stable_and_invalidated_on_return() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    let stored: Rc<RefCell<Vec<wizard_engine::FrameAccessor>>> = Rc::new(RefCell::new(Vec::new()));
    let st = Rc::clone(&stored);
    p.add_local_probe(
        f,
        loop_pc,
        ClosureProbe::shared(move |ctx| {
            st.borrow_mut().push(ctx.accessor());
        }),
    )
    .unwrap();
    p.invoke(f, &[Value::I32(5)]).unwrap();
    let accs = stored.borrow();
    assert!(accs.len() >= 2);
    // Same activation: identical accessor object across callbacks.
    assert_eq!(accs[0], accs[1], "accessor identity stable within an activation");
    // After return, the accessor is invalid (dangling protection).
    assert!(!accs[0].is_valid(), "accessor must be invalidated on return");
    assert_eq!(accs[0].depth(), 1);
}

#[test]
fn stack_walking_and_depth() {
    let m = fib_module();
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("fib").unwrap();
    let max_depth = Rc::new(Cell::new(0u32));
    let walked = Rc::new(Cell::new(0u32));
    let (md, wk) = (Rc::clone(&max_depth), Rc::clone(&walked));
    // Probe function entry (pc 0).
    p.add_local_probe(
        f,
        0,
        ClosureProbe::shared(move |ctx| {
            md.set(md.get().max(ctx.depth()));
            // Walk the whole stack via caller links.
            let mut frames = 1;
            let mut acc = ctx.frame().caller();
            while let Some(a) = acc {
                frames += 1;
                acc = ctx.view(&a).expect("live caller").caller();
            }
            wk.set(wk.get().max(frames));
        }),
    )
    .unwrap();
    p.invoke(f, &[Value::I32(8)]).unwrap();
    assert_eq!(max_depth.get(), 8, "fib(8) reaches depth 8");
    assert_eq!(walked.get(), max_depth.get(), "stack walk covers all frames");
}

#[test]
fn frame_modification_is_consistent_and_deopts_jit() {
    // Function: return x after the loop runs; a probe overwrites the local
    // mid-execution, and the modification must be visible immediately.
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    // Tiered with low threshold so the frame is in JIT when the probe fires.
    let mut p = proc_with(m, EngineConfig::builder().tierup_threshold(2).build());
    let f = p.module().export_func("sum").unwrap();
    let did = Rc::new(Cell::new(false));
    let d = Rc::clone(&did);
    p.add_local_probe(
        f,
        loop_pc,
        ClosureProbe::shared(move |ctx| {
            // When i reaches 50, set i = 90 — skipping iterations 50..90.
            let mut view = ctx.frame();
            let i = view.local(1).unwrap().as_i32().unwrap();
            if i == 50 && !d.get() {
                d.set(true);
                view.set_local(1, Value::I32(90)).unwrap();
            }
        }),
    )
    .unwrap();
    let r = p.invoke(f, &[Value::I32(100)]).unwrap();
    // sum(0..100) minus sum(50..90) = 4950 - sum(50..=89).
    let skipped: i32 = (50..90).sum();
    assert_eq!(r, vec![Value::I32(4950 - skipped)]);
    assert!(did.get());
}

#[test]
fn frame_modification_rejected_in_jit_only() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = proc_with(m, EngineConfig::jit());
    let f = p.module().export_func("sum").unwrap();
    let saw_err = Rc::new(Cell::new(false));
    let s = Rc::clone(&saw_err);
    p.add_local_probe(
        f,
        loop_pc,
        ClosureProbe::shared(move |ctx| {
            let mut view = ctx.frame();
            if view.set_local(1, Value::I32(0)).is_err() {
                s.set(true);
            }
        }),
    )
    .unwrap();
    p.invoke(f, &[Value::I32(3)]).unwrap();
    assert!(saw_err.get(), "set_local must fail in JIT-only mode");
}

#[test]
fn global_probes_rejected_in_jit_only() {
    let (m, _) = sum_module();
    let mut p = proc_with(m, EngineConfig::jit());
    let err = p.add_global_probe(ClosureProbe::shared(|_| {})).unwrap_err();
    assert_eq!(err, ProbeError::GlobalProbesNeedInterpreter);
}

#[test]
fn probe_location_validation() {
    let (m, _) = sum_module();
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    // pc 1 is inside the first instruction's immediate.
    assert!(matches!(
        p.add_local_probe_val(f, 1, CountProbe::new()),
        Err(ProbeError::InvalidPc(_, 1))
    ));
    assert!(matches!(
        p.add_local_probe_val(9999, 0, CountProbe::new()),
        Err(ProbeError::NotALocalFunction(9999))
    ));
    // Removing an already-removed probe reports an error.
    let id = p.add_local_probe_val(f, 0, CountProbe::new()).unwrap();
    p.remove_probe(id).unwrap();
    assert_eq!(p.remove_probe(id).unwrap_err(), ProbeError::UnknownProbe);
}

/// Insertions requested from inside a firing probe are validated when they
/// are queued: a bad one is an error in the M-code's hands, not a panic when
/// the queue is applied.
#[test]
fn deferred_insertions_are_validated_when_queued() {
    for (name, config) in configs() {
        let jit_only = config.mode == wizard_engine::ExecMode::JitOnly;
        let mut mb = ModuleBuilder::new();
        mb.import_func("env", "host", &[], &[]);
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(624_485).i32_add();
        mb.add_func("run", f);
        let mut linker = Linker::new();
        linker.func("env", "host", |_, _| Ok(vec![]));
        let mut p = Process::new(mb.build().unwrap(), config, &linker).unwrap();
        let run = p.module().export_func("run").unwrap();
        let errors: Rc<RefCell<Vec<ProbeError>>> = Rc::default();
        let good = Rc::new(Cell::new(None));
        let (errs, ok) = (Rc::clone(&errors), Rc::clone(&good));
        p.add_local_probe(
            run,
            0,
            ClosureProbe::shared(move |ctx| {
                let noop = || ClosureProbe::shared(|_| {});
                // pc 3 is inside `i32.const`'s LEB immediate; function 0
                // is the import; function 99 does not exist.
                for (func, pc) in [(run, 3), (0, 0), (99, 0)] {
                    errs.borrow_mut().push(ctx.insert_local_probe(func, pc, noop()).unwrap_err());
                }
                if let Err(e) = ctx.insert_global_probe(noop()) {
                    errs.borrow_mut().push(e);
                }
                ok.set(Some(ctx.insert_local_probe(run, 2, noop()).unwrap()));
            }),
        )
        .unwrap();
        let r = p.invoke(run, &[Value::I32(1)]).unwrap();
        assert_eq!(r, vec![Value::I32(624_486)], "config {name}: the process lives on");
        let mut want = vec![
            ProbeError::InvalidPc(run, 3),
            ProbeError::NotALocalFunction(0),
            ProbeError::NotALocalFunction(99),
        ];
        if jit_only {
            want.push(ProbeError::GlobalProbesNeedInterpreter);
        }
        assert_eq!(*errors.borrow(), want, "config {name}");
        assert_eq!(p.in_global_mode(), !jit_only, "config {name}: only the valid ones landed");
        assert!(p.has_probe_byte(run, 2), "config {name}");
        p.remove_probe(good.get().unwrap()).unwrap();
        assert_eq!(p.probed_location_count(), 1, "config {name}");
    }
}

#[test]
fn count_probe_intrinsified_in_jit_matches_interpreter() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut counts = Vec::new();
    for config in
        [EngineConfig::interpreter(), EngineConfig::jit(), EngineConfig::jit_no_intrinsics()]
    {
        let mut p = proc_with(m.clone(), config);
        let f = p.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        let cell = probe.cell();
        p.add_local_probe_val(f, loop_pc, probe).unwrap();
        let r = p.invoke(f, &[Value::I32(200)]).unwrap();
        assert_eq!(r, vec![Value::I32(19900)]);
        counts.push(cell.get());
    }
    assert_eq!(counts[0], counts[1], "interp vs intrinsified JIT");
    assert_eq!(counts[0], counts[2], "interp vs generic JIT");
    assert_eq!(counts[0], 201);
}

#[test]
fn mixed_probe_site_fires_all_in_order_in_jit() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = proc_with(m, EngineConfig::jit());
    let f = p.module().export_func("sum").unwrap();
    let order = Rc::new(RefCell::new(Vec::new()));
    let count = CountProbe::new();
    let cell = count.cell();
    p.add_local_probe_val(f, loop_pc, count).unwrap();
    let o = Rc::clone(&order);
    p.add_local_probe(
        f,
        loop_pc,
        ClosureProbe::shared(move |_| {
            o.borrow_mut().push("generic");
        }),
    )
    .unwrap();
    p.invoke(f, &[Value::I32(2)]).unwrap();
    // Mixed site: the generic probe forces the whole site through the
    // runtime path, so both fire, count first.
    assert_eq!(cell.get(), 3);
    assert_eq!(order.borrow().len(), 3);
}

#[test]
fn trap_invalidates_stored_accessors() {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop();
    f.i32_const(1).local_get(0).i32_div_s();
    mb.add_func("div", f);
    let m = mb.build().unwrap();
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("div").unwrap();
    let stored: Rc<RefCell<Option<wizard_engine::FrameAccessor>>> = Rc::new(RefCell::new(None));
    let st = Rc::clone(&stored);
    p.add_local_probe(
        f,
        0,
        ClosureProbe::shared(move |ctx| {
            *st.borrow_mut() = Some(ctx.accessor());
        }),
    )
    .unwrap();
    assert_eq!(p.invoke(f, &[Value::I32(0)]).unwrap_err(), Trap::DivisionByZero);
    let acc = stored.borrow().clone().unwrap();
    assert!(!acc.is_valid(), "unwind must invalidate accessors");
}

#[test]
fn after_instruction_pattern_via_one_shot_global_probe() {
    // Paper §2.6, strategy 3: to run M-code "after" a br_table, insert a
    // global probe from the br_table's local probe; it fires on the next
    // executed instruction (the branch destination) and removes itself.
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.block(BlockType::Empty);
    f.block(BlockType::Empty);
    f.local_get(0);
    let bt_pc = f.pc();
    f.br_table(&[0], 1);
    f.end();
    let taken_pc = f.pc();
    f.i32_const(10).return_();
    f.end();
    let default_pc = f.pc();
    f.i32_const(20);
    mb.add_func("sw", f);
    let m = mb.build().unwrap();
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sw").unwrap();
    let landed: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
    let l = Rc::clone(&landed);
    p.add_local_probe(
        f,
        bt_pc,
        ClosureProbe::shared(move |ctx| {
            let l2 = Rc::clone(&l);
            let gid: Rc<Cell<Option<wizard_engine::ProbeId>>> = Rc::new(Cell::new(None));
            let gid2 = Rc::clone(&gid);
            let id = ctx.insert_global_probe(ClosureProbe::shared(move |gctx| {
                l2.borrow_mut().push(gctx.location().pc);
                if let Some(id) = gid2.get() {
                    gctx.remove_probe(id);
                }
            }));
            gid.set(Some(id.unwrap()));
        }),
    )
    .unwrap();
    assert_eq!(p.invoke(f, &[Value::I32(0)]).unwrap(), vec![Value::I32(10)]);
    assert!(!p.in_global_mode(), "one-shot global probe removed itself");
    assert_eq!(p.invoke(f, &[Value::I32(5)]).unwrap(), vec![Value::I32(20)]);
    // The "after br_table" events landed exactly at the branch destinations.
    assert_eq!(*landed.borrow(), vec![taken_pc, default_pc]);
}

#[test]
fn stats_track_probe_fires() {
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    p.add_local_probe_val(f, loop_pc, CountProbe::new()).unwrap();
    p.invoke(f, &[Value::I32(9)]).unwrap();
    assert_eq!(p.stats().probe_fires, 10);
    p.reset_stats();
    assert_eq!(p.stats().probe_fires, 0);
}

#[test]
fn lowering_happens_once_and_is_counted() {
    let (m, _) = sum_module();
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    assert_eq!(p.stats().functions_lowered, 0, "lowering is lazy");
    p.invoke(f, &[Value::I32(5)]).unwrap();
    assert_eq!(p.stats().functions_lowered, 1);
    p.invoke(f, &[Value::I32(5)]).unwrap();
    assert_eq!(p.stats().functions_lowered, 1, "second run reuses the cache");
    // Probe churn patches lowered slots in place: no re-lowering, ever.
    let id = p.add_local_probe_val(f, 0, CountProbe::new()).unwrap();
    p.invoke(f, &[Value::I32(5)]).unwrap();
    p.remove_probe(id).unwrap();
    assert_eq!(p.stats().functions_lowered, 1);
    assert_eq!(p.stats().relower_passes, 0);
}

#[test]
fn relower_rebuilds_and_is_counted() {
    let (m, _) = sum_module();
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    let probe = CountProbe::new();
    let counter = probe.cell();
    p.add_local_probe_val(f, 0, probe).unwrap();
    let before = p.invoke(f, &[Value::I32(6)]).unwrap();
    // Force a re-lowering pass: the rebuilt form re-applies probe patches.
    p.relower(f).unwrap();
    assert_eq!(p.stats().relower_passes, 1);
    let after = p.invoke(f, &[Value::I32(6)]).unwrap();
    assert_eq!(before, after);
    assert_eq!(counter.get(), 2, "probe survived the re-lowering");
    assert!(matches!(p.relower(999), Err(ProbeError::NotALocalFunction(999))));

    // Imported functions have no body to re-lower.
    let m = {
        let mut mb = ModuleBuilder::new();
        let host = mb.import_func("env", "id", &[I32], &[I32]);
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).call(host);
        mb.add_func("go", f);
        mb.build().unwrap()
    };
    let mut linker = Linker::new();
    linker.func("env", "id", |_ctx, args| Ok(vec![args[0]]));
    let mut p = Process::new(m, EngineConfig::default(), &linker).unwrap();
    assert!(matches!(p.relower(0), Err(ProbeError::NotALocalFunction(0))));
    assert!(p.relower(1).is_ok(), "the local function re-lowers");
}

#[test]
fn bytecode_dispatch_never_lowers_in_interp_only() {
    let (m, _) = sum_module();
    let mut p = proc_with(m, EngineConfig::interpreter_bytecode());
    let f = p.module().export_func("sum").unwrap();
    let r = p.invoke(f, &[Value::I32(9)]).unwrap();
    assert_eq!(r, vec![Value::I32(36)]);
    assert_eq!(
        p.stats().functions_lowered,
        0,
        "classic byte dispatch in interpreter-only mode executes without the lowered cache"
    );
    // Probe-location validation is the one classic-mode consumer of the
    // pc ↔ slot map: it lowers on demand (documented on Dispatch::Bytecode).
    p.add_local_probe_val(f, 0, CountProbe::new()).unwrap();
    assert_eq!(p.stats().functions_lowered, 1);
}

#[test]
fn probing_the_one_past_the_end_sentinel_is_rejected() {
    // The lowering maps pc == body length to a sentinel slot (frames park
    // the implicit-return pc there), but it is not a probeable location.
    let (m, _) = sum_module();
    let body_len = m.funcs[0].body.code.len() as u32;
    let mut p = proc_with(m, EngineConfig::interpreter());
    let f = p.module().export_func("sum").unwrap();
    assert!(matches!(
        p.add_local_probe_val(f, body_len, CountProbe::new()),
        Err(ProbeError::InvalidPc(_, pc)) if pc == body_len
    ));
    assert!(matches!(
        p.add_local_probe_val(f, body_len + 10, CountProbe::new()),
        Err(ProbeError::InvalidPc(..))
    ));
}

#[test]
fn dispatchers_agree_with_probes_installed() {
    // The classic dispatcher is the semantic reference: both must produce
    // identical results and identical probe-fire counts on a probed loop.
    let (m, meta) = sum_module();
    let loop_pc = meta.funcs[0].loop_headers[0];
    let mut fires = Vec::new();
    for config in [EngineConfig::interpreter(), EngineConfig::interpreter_bytecode()] {
        let mut p = proc_with(m.clone(), config);
        let f = p.module().export_func("sum").unwrap();
        let probe = CountProbe::new();
        let counter = probe.cell();
        p.add_local_probe_val(f, loop_pc, probe).unwrap();
        let r = p.invoke(f, &[Value::I32(17)]).unwrap();
        assert_eq!(r, vec![Value::I32(136)]);
        fires.push(counter.get());
    }
    assert_eq!(fires[0], fires[1], "probe fire counts must match across dispatchers");
}
