//! Function entry/exit instrumentation built *above* probes (paper §2.5).
//!
//! The engine offers no entry/exit hooks; this library derives them from
//! local probes, handling the paper's tricky cases:
//!
//! * a function beginning with a `loop`: backedges re-reach pc 0, so the
//!   entry probe distinguishes re-entry from backedge using *FrameAccessor
//!   identity* (strategy 1 in the paper);
//! * exits via `return`, via the final `end`, and via branches that target
//!   the function-level label (checking the condition/index operand to
//!   know whether a conditional branch actually exits);
//! * frames unwound by traps: stale shadow-stack entries are detected by
//!   accessor invalidation and drained — by the owning monitor's
//!   `on_unwind` hook (the engine calls it at the trap), or lazily at the
//!   next entry event for library users without a monitor.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use wizard_engine::{ClosureProbe, FrameAccessor, InstrumentationCtx, ProbeBatch, ProbeError};
use wizard_wasm::instr::InstrIter;
use wizard_wasm::module::FuncIdx;
use wizard_wasm::opcodes as op;
use wizard_wasm::validate::{validate, SideEntry};

/// Callbacks invoked on function entry and exit with `(func, depth)`.
pub struct Callbacks {
    /// Called when a new activation of a function begins.
    pub on_entry: Box<dyn FnMut(FuncIdx, u32)>,
    /// Called when an activation ends (including trap unwinds, drained
    /// by an explicit [`EntryExit::drain`] — what a monitor's `on_unwind`
    /// does — or lazily at the next entry event).
    pub on_exit: Box<dyn FnMut(FuncIdx, u32)>,
}

#[derive(Default)]
struct Shadow {
    stack: Vec<(FrameAccessor, FuncIdx)>,
}

/// Handle to installed entry/exit instrumentation.
pub struct EntryExit {
    shadow: Rc<RefCell<Shadow>>,
    callbacks: Rc<RefCell<Callbacks>>,
}

impl EntryExit {
    /// Installs entry/exit instrumentation on every locally-defined
    /// function of the process behind `ctx`. All probes — one entry probe
    /// per function plus one per exit point — are committed as a single
    /// [`ProbeBatch`] (one invalidation pass), and are recorded against
    /// the attaching monitor's handle for removal at detach.
    ///
    /// # Errors
    ///
    /// Propagates [`ProbeError`]s from probe insertion.
    pub fn attach(
        ctx: &mut InstrumentationCtx<'_>,
        on_entry: impl FnMut(FuncIdx, u32) + 'static,
        on_exit: impl FnMut(FuncIdx, u32) + 'static,
    ) -> Result<EntryExit, ProbeError> {
        let shadow = Rc::new(RefCell::new(Shadow::default()));
        let callbacks = Rc::new(RefCell::new(Callbacks {
            on_entry: Box::new(on_entry),
            on_exit: Box::new(on_exit),
        }));
        // Re-validate to get branch side tables (cheap, and keeps this
        // library independent of engine internals).
        let meta = validate(ctx.module()).expect("process module is valid");
        let n_imp = ctx.module().num_imported_funcs();
        let mut plans: Vec<(FuncIdx, u32, ExitKind)> = Vec::new();
        let mut entries: Vec<FuncIdx> = Vec::new();
        for (i, f) in ctx.module().funcs.iter().enumerate() {
            let func = n_imp + i as u32;
            let code_len = f.body.code.len() as u32;
            let fmeta = &meta.funcs[i];
            entries.push(func);
            let mut last_pc = 0;
            for item in InstrIter::new(&f.body.code) {
                let instr = item.expect("validated");
                last_pc = instr.pc;
                match instr.op {
                    op::RETURN => plans.push((func, instr.pc, ExitKind::Always)),
                    op::BR => {
                        if let Some(SideEntry::Br(t)) = fmeta.side.get(&instr.pc) {
                            if t.target_pc == code_len {
                                plans.push((func, instr.pc, ExitKind::Always));
                            }
                        }
                    }
                    op::BR_IF => {
                        if let Some(SideEntry::Br(t)) = fmeta.side.get(&instr.pc) {
                            if t.target_pc == code_len {
                                plans.push((func, instr.pc, ExitKind::IfNonZero));
                            }
                        }
                    }
                    op::BR_TABLE => {
                        if let Some(SideEntry::Table(ts)) = fmeta.side.get(&instr.pc) {
                            let exits: Vec<bool> =
                                ts.iter().map(|t| t.target_pc == code_len).collect();
                            if exits.iter().any(|e| *e) {
                                plans.push((func, instr.pc, ExitKind::TableIndex(exits)));
                            }
                        }
                    }
                    _ => {}
                }
            }
            // The final `end` is the implicit return point.
            plans.push((func, last_pc, ExitKind::Always));
        }
        let ee = EntryExit { shadow, callbacks };
        let mut batch = ProbeBatch::new();
        for func in entries {
            let shadow = Rc::clone(&ee.shadow);
            let callbacks = Rc::clone(&ee.callbacks);
            batch.add_local(
                func,
                0,
                ClosureProbe::shared(move |ctx| {
                    let acc = ctx.accessor();
                    let mut sh = shadow.borrow_mut();
                    drain_invalid(&mut sh, &callbacks);
                    if sh.stack.last().is_some_and(|(top, _)| *top == acc) {
                        // Backedge of a loop starting at pc 0, or a probe
                        // re-fire: not a new activation.
                        return;
                    }
                    sh.stack.push((acc, func));
                    let depth = sh.stack.len() as u32;
                    drop(sh);
                    (callbacks.borrow_mut().on_entry)(func, depth);
                }),
            );
        }
        for (func, pc, kind) in plans {
            let shadow = Rc::clone(&ee.shadow);
            let callbacks = Rc::clone(&ee.callbacks);
            batch.add_local(
                func,
                pc,
                ClosureProbe::shared(move |ctx| {
                    let exits = match &kind {
                        ExitKind::Always => true,
                        ExitKind::IfNonZero => ctx.top_of_stack().is_some_and(|s| s.i32() != 0),
                        ExitKind::TableIndex(exits) => {
                            let idx = ctx.top_of_stack().map_or(0, |s| s.u32()) as usize;
                            exits[idx.min(exits.len() - 1)]
                        }
                    };
                    if !exits {
                        return;
                    }
                    let acc = ctx.accessor();
                    let mut sh = shadow.borrow_mut();
                    if sh.stack.last().is_some_and(|(top, _)| *top == acc) {
                        let (_, f) = sh.stack.pop().expect("non-empty");
                        let depth = sh.stack.len() as u32 + 1;
                        drop(sh);
                        (callbacks.borrow_mut().on_exit)(f, depth);
                    }
                }),
            );
        }
        ctx.apply_batch(batch)?;
        Ok(ee)
    }

    /// Drains shadow-stack entries whose frames were unwound by a trap,
    /// firing their exit callbacks. Monitors call this from
    /// [`Monitor::on_unwind`](wizard_engine::Monitor::on_unwind); without
    /// one, call it after an invocation that trapped.
    pub fn drain(&self) {
        let mut sh = self.shadow.borrow_mut();
        drain_invalid(&mut sh, &self.callbacks);
    }

    /// Current shadow-stack depth (0 between invocations).
    pub fn depth(&self) -> usize {
        self.shadow.borrow().stack.len()
    }
}

enum ExitKind {
    Always,
    IfNonZero,
    TableIndex(Vec<bool>),
}

fn drain_invalid(sh: &mut Shadow, callbacks: &Rc<RefCell<Callbacks>>) {
    while sh.stack.last().is_some_and(|(acc, _)| !acc.is_valid()) {
        let (_, f) = sh.stack.pop().expect("non-empty");
        let depth = sh.stack.len() as u32 + 1;
        (callbacks.borrow_mut().on_exit)(f, depth);
    }
}

/// Convenience: counts entries/exits per function.
#[derive(Debug, Clone, Default)]
pub struct EntryExitCounts {
    /// Entry counts per function.
    pub entries: HashMap<FuncIdx, u64>,
    /// Exit counts per function.
    pub exits: HashMap<FuncIdx, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Trap, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::BlockType;
    use wizard_wasm::types::ValType::I32;

    fn counted(process: &mut Process) -> (Rc<RefCell<EntryExitCounts>>, EntryExit) {
        let counts = Rc::new(RefCell::new(EntryExitCounts::default()));
        let (c1, c2) = (Rc::clone(&counts), Rc::clone(&counts));
        let mut ctx = process.instrumentation();
        let ee = EntryExit::attach(
            &mut ctx,
            move |f, _| *c1.borrow_mut().entries.entry(f).or_insert(0) += 1,
            move |f, _| *c2.borrow_mut().exits.entry(f).or_insert(0) += 1,
        )
        .unwrap();
        (counts, ee)
    }

    #[test]
    fn balanced_entries_and_exits_for_recursion() {
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
        let mut p =
            Process::new(mb.build().unwrap(), EngineConfig::interpreter(), &Linker::new()).unwrap();
        let (counts, ee) = counted(&mut p);
        p.invoke_export("fib", &[Value::I32(10)]).unwrap();
        ee.drain();
        let c = counts.borrow();
        // fib(10) makes 177 activations.
        assert_eq!(c.entries[&fib], 177);
        assert_eq!(c.exits[&fib], 177);
        assert_eq!(ee.depth(), 0);
    }

    #[test]
    fn function_starting_with_loop_counts_one_entry() {
        // The paper's tricky case: entry probe at pc 0 where pc 0 is a
        // loop header reached by every backedge.
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        // Loop at pc 0: decrement arg until zero.
        f.loop_(BlockType::Empty);
        f.local_get(0).i32_const(1).i32_sub().local_set(0);
        f.local_get(i).i32_const(1).i32_add().local_set(i);
        f.local_get(0).i32_const(0).i32_gt_s().br_if(0);
        f.end();
        f.local_get(i);
        mb.add_func("spin", f);
        let mut p =
            Process::new(mb.build().unwrap(), EngineConfig::interpreter(), &Linker::new()).unwrap();
        let (counts, ee) = counted(&mut p);
        let r = p.invoke_export("spin", &[Value::I32(50)]).unwrap();
        assert_eq!(r, vec![Value::I32(50)]);
        ee.drain();
        let c = counts.borrow();
        let func = p.module().export_func("spin").unwrap();
        assert_eq!(c.entries[&func], 1, "50 backedges must not count as entries");
        assert_eq!(c.exits[&func], 1);
    }

    #[test]
    fn exit_via_conditional_branch_to_function_end() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[]);
        // br_if 0 at function level: exits when arg non-zero.
        f.local_get(0).br_if(0);
        f.nop();
        mb.add_func("maybe_exit", f);
        let mut p =
            Process::new(mb.build().unwrap(), EngineConfig::interpreter(), &Linker::new()).unwrap();
        let (counts, ee) = counted(&mut p);
        p.invoke_export("maybe_exit", &[Value::I32(1)]).unwrap();
        p.invoke_export("maybe_exit", &[Value::I32(0)]).unwrap();
        ee.drain();
        let c = counts.borrow();
        let func = p.module().export_func("maybe_exit").unwrap();
        assert_eq!(c.entries[&func], 2);
        assert_eq!(c.exits[&func], 2, "both the branch exit and the fall-through exit");
    }

    #[test]
    fn trap_unwind_drained_lazily() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[], &[]);
        f.unreachable();
        mb.add_func("boom", f);
        let mut p =
            Process::new(mb.build().unwrap(), EngineConfig::interpreter(), &Linker::new()).unwrap();
        let (counts, ee) = counted(&mut p);
        assert_eq!(p.invoke_export("boom", &[]).unwrap_err(), Trap::Unreachable);
        assert_eq!(counts.borrow().exits.get(&0), None, "exit not yet observed");
        ee.drain();
        assert_eq!(counts.borrow().exits[&0], 1, "drain fires the unwound exit");
        assert_eq!(ee.depth(), 0);
    }
}
