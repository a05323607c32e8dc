//! The **Debugger REPL** (paper §3): interactive debugging at the Wasm
//! bytecode level — breakpoints, single-step, backtraces, inspection, and
//! *state modification* (the only monitor that modifies frames).
//!
//! Breakpoints are local probes; `step` is a one-shot global probe
//! (dynamic insertion and removal); `set` uses the FrameAccessor's frame
//! modification, which every tier observes at once (no frame needs to
//! deoptimize for it).
//!
//! The command stream is a script (a `VecDeque<String>`), which makes the
//! debugger fully testable; an interactive front-end would feed it from
//! stdin.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use wizard_engine::{
    ClosureProbe, InstrumentationCtx, Monitor, ProbeBatch, ProbeCtx, ProbeError, ProbeId, Report,
    Value,
};
use wizard_wasm::module::FuncIdx;
use wizard_wasm::types::ValType;

#[derive(Debug, Default)]
struct DebugShared {
    commands: RefCell<VecDeque<String>>,
    output: RefCell<String>,
}

impl DebugShared {
    fn println(&self, line: impl AsRef<str>) {
        let mut out = self.output.borrow_mut();
        out.push_str(line.as_ref());
        out.push('\n');
    }
}

/// A scripted bytecode-level debugger.
///
/// Supported commands: `where`, `locals`, `stack`, `bt`, `depth`,
/// `set <local> <value>`, `step`, `continue`.
#[derive(Debug, Default)]
pub struct Debugger {
    shared: Rc<DebugShared>,
    breakpoints: Vec<(FuncIdx, u32)>,
}

impl Debugger {
    /// Creates a debugger with a command script.
    pub fn new<S: Into<String>>(script: impl IntoIterator<Item = S>) -> Debugger {
        let d = Debugger::default();
        d.shared.commands.borrow_mut().extend(script.into_iter().map(Into::into));
        d
    }

    /// Schedules a breakpoint to be installed by [`Monitor::on_attach`].
    pub fn breakpoint(&mut self, func: FuncIdx, pc: u32) -> &mut Self {
        self.breakpoints.push((func, pc));
        self
    }

    /// Appends more commands to the script.
    pub fn push_commands<S: Into<String>>(&self, script: impl IntoIterator<Item = S>) {
        self.shared.commands.borrow_mut().extend(script.into_iter().map(Into::into));
    }

    /// The session transcript so far.
    pub fn output(&self) -> String {
        self.shared.output.borrow().clone()
    }
}

impl Monitor for Debugger {
    fn name(&self) -> &'static str {
        "debugger"
    }

    fn on_attach(&mut self, ctx: &mut InstrumentationCtx<'_>) -> Result<(), ProbeError> {
        let mut batch = ProbeBatch::new();
        for (func, pc) in self.breakpoints.clone() {
            let shared = Rc::clone(&self.shared);
            batch.add_local(
                func,
                pc,
                ClosureProbe::shared(move |ctx| {
                    shared.println(format!("breakpoint hit at {}", ctx.location()));
                    command_loop(&shared, ctx);
                }),
            );
        }
        ctx.apply_batch(batch)?;
        Ok(())
    }

    fn report(&self) -> Report {
        let mut r = Report::new(self.name());
        let transcript = r.section("transcript");
        for (i, line) in self.output().lines().enumerate() {
            transcript.text(format!("{i:>4}"), line);
        }
        r
    }
}

/// Processes script commands until `continue`, `step` (which re-enters at
/// the next instruction), or script exhaustion (implicit `continue`).
fn command_loop(shared: &Rc<DebugShared>, ctx: &mut ProbeCtx<'_, '_>) {
    loop {
        let Some(cmd) = shared.commands.borrow_mut().pop_front() else {
            return; // script exhausted: continue
        };
        let parts: Vec<&str> = cmd.split_whitespace().collect();
        match parts.as_slice() {
            ["continue" | "c"] => return,
            ["where" | "w"] => {
                shared.println(format!("at {}", ctx.location()));
            }
            ["depth"] => {
                shared.println(format!("call depth: {}", ctx.depth()));
            }
            ["locals" | "l"] => {
                let view = ctx.frame();
                let n = view.num_locals();
                for i in 0..n {
                    if let Some(v) = view.local(i) {
                        shared.println(format!("  local[{i}] = {v}"));
                    }
                }
            }
            ["stack" | "s"] => {
                let view = ctx.frame();
                let n = view.operand_count();
                if n == 0 {
                    shared.println("  <operand stack empty>");
                }
                for i in 0..n {
                    let slot = view.operand(i).expect("in range");
                    shared.println(format!("  stack[{i}] = {:#x}", slot.0));
                }
            }
            ["bt"] => {
                let depth = ctx.depth();
                shared.println(format!("#0 {} (depth {depth})", ctx.location()));
                let mut acc = ctx.frame().caller();
                let mut n = 1;
                while let Some(a) = acc {
                    let (func, pc, next) = {
                        let mut view = ctx.view(&a).expect("live frame");
                        (view.func(), view.pc(), view.caller())
                    };
                    shared.println(format!("#{n} func[{func}]+{pc}"));
                    acc = next;
                    n += 1;
                }
            }
            ["set", idx, val] => {
                let (Ok(i), Ok(v)) = (idx.parse::<u32>(), val.parse::<i64>()) else {
                    shared.println(format!("parse error in: {cmd}"));
                    continue;
                };
                let mut view = ctx.frame();
                let Some(old) = view.local(i) else {
                    shared.println(format!("no local {i}"));
                    continue;
                };
                let new = match old.ty() {
                    ValType::I32 => Value::I32(v as i32),
                    ValType::I64 => Value::I64(v),
                    ValType::F32 => Value::F32(v as f32),
                    ValType::F64 => Value::F64(v as f64),
                };
                match view.set_local(i, new) {
                    Ok(()) => shared.println(format!("local[{i}] {old} -> {new}")),
                    Err(e) => shared.println(format!("set failed: {e}")),
                }
            }
            ["step"] => {
                // One-shot global probe: fires at the next executed
                // instruction, re-enters the command loop, removes itself.
                let shared2 = Rc::clone(shared);
                let id_cell: Rc<std::cell::Cell<Option<ProbeId>>> =
                    Rc::new(std::cell::Cell::new(None));
                let idc = Rc::clone(&id_cell);
                match ctx.insert_global_probe(ClosureProbe::shared(move |step_ctx| {
                    if let Some(id) = idc.get() {
                        step_ctx.remove_probe(id);
                    }
                    step_ctx_enter(&shared2, step_ctx);
                })) {
                    Ok(id) => {
                        id_cell.set(Some(id));
                        return;
                    }
                    Err(e) => shared.println(format!("cannot step: {e}")),
                }
            }
            [] => {}
            other => {
                shared.println(format!("unknown command: {}", other.join(" ")));
            }
        }
    }
}

fn step_ctx_enter(shared: &Rc<DebugShared>, ctx: &mut ProbeCtx<'_, '_>) {
    shared.println(format!("stepped to {}", ctx.location()));
    command_loop(shared, ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    fn process() -> Process {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let t = f.local(I32);
        f.local_get(0).i32_const(10).i32_add().local_set(t);
        f.local_get(t).i32_const(2).i32_mul();
        mb.add_func("calc", f);
        Process::new(mb.build().unwrap(), EngineConfig::interpreter(), &Linker::new()).unwrap()
    }

    #[test]
    fn breakpoint_inspection_and_stepping() {
        let mut p = process();
        let f = p.module().export_func("calc").unwrap();
        let mut d =
            Debugger::new(["where", "locals", "stack", "depth", "step", "step", "continue"]);
        d.breakpoint(f, 0);
        let d = p.attach_monitor(d).unwrap();
        let r = p.invoke_export("calc", &[Value::I32(5)]).unwrap();
        assert_eq!(r, vec![Value::I32(30)]);
        let out = d.borrow().output();
        assert!(out.contains("breakpoint hit at func[0]+0"), "{out}");
        assert!(out.contains("local[0] = 5:i32"), "{out}");
        assert!(out.contains("<operand stack empty>"), "{out}");
        assert!(out.contains("call depth: 1"), "{out}");
        assert!(out.contains("stepped to func[0]+2"), "{out}");
        assert!(!p.in_global_mode(), "step probes removed themselves");
    }

    #[test]
    fn set_local_changes_program_result() {
        let mut p = process();
        let f = p.module().export_func("calc").unwrap();
        let mut d = Debugger::new(["set 0 100", "continue"]);
        d.breakpoint(f, 0);
        let d = p.attach_monitor(d).unwrap();
        let r = p.invoke_export("calc", &[Value::I32(5)]).unwrap();
        assert_eq!(r, vec![Value::I32(220)], "fix-and-continue changed the result");
        assert!(d.borrow().output().contains("local[0] 5:i32 -> 100:i32"));
    }
}
