//! Wasabi-style instrumentation (Lehmann & Pradel, ASPLOS'19): static
//! injection of trampolines that call analysis code written in JavaScript
//! and run by the host engine (§5.6).
//!
//! We reproduce the *cost class* of that boundary: every event crosses
//! from Wasm into a host callback whose analysis state lives in a
//! dynamic-language-style environment — values boxed, state keyed by
//! freshly-built strings in a hash map, counters held as `f64` (JavaScript
//! numbers). This is what makes Wasabi 30–6000× slower than engine-level
//! probes in the paper, and the same shape emerges here.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use wizard_engine::store::Linker;
use wizard_rewriter::inject_host_call;
use wizard_wasm::module::Module;
use wizard_wasm::opcodes as op;
use wizard_wasm::validate::ValidateError;

/// The "JavaScript" analysis state: string-keyed f64 counters.
#[derive(Debug, Default)]
pub struct JsAnalysis {
    counters: RefCell<HashMap<String, f64>>,
    events: std::cell::Cell<u64>,
}

/// A Wasabi-style instrumented program plus its host analysis.
pub struct WasabiRun {
    /// The trampoline-injected module.
    pub module: Module,
    /// Shared analysis state (inspect after the run).
    pub analysis: Rc<JsAnalysis>,
    /// The linker providing the hook import.
    pub linker: Linker,
}

impl JsAnalysis {
    /// Total events received.
    pub fn events(&self) -> u64 {
        self.events.get()
    }

    /// Sum of all counters.
    pub fn total(&self) -> f64 {
        self.counters.borrow().values().sum()
    }

    /// Number of distinct keys.
    pub fn distinct_sites(&self) -> usize {
        self.counters.borrow().len()
    }
}

fn make_run(module: &Module, hook: &str, branch: bool) -> Result<WasabiRun, ValidateError> {
    let select: fn(&wizard_wasm::instr::Instr) -> bool =
        if branch { |i| matches!(i.op, op::IF | op::BR_IF | op::BR_TABLE) } else { |_| true };
    let (instrumented, _sites) = inject_host_call(module, hook, select, branch)?;
    let analysis = Rc::new(JsAnalysis::default());
    let a = Rc::clone(&analysis);
    let mut linker = Linker::new();
    let hook_owned = hook.to_string();
    linker.func("hook", hook, move |_ctx, args| {
        // The "JavaScript" callback: box-and-stringify per event.
        a.events.set(a.events.get() + 1);
        let f = args[0].as_i32().unwrap_or(0);
        let pc = args[1].as_i32().unwrap_or(0);
        let cond = args[2].as_i32().unwrap_or(0);
        let key = if hook_owned.as_str() == "branch" {
            format!("{hook_owned}@{f}:{pc}/{}", if cond != 0 { "taken" } else { "fall" })
        } else {
            format!("{hook_owned}@{f}:{pc}")
        };
        let mut map = a.counters.borrow_mut();
        *map.entry(key).or_insert(0.0) += 1.0;
        Ok(vec![])
    });
    Ok(WasabiRun { module: instrumented, analysis, linker })
}

/// The hotness monitor, Wasabi-style: a JS-boundary call before every
/// instruction.
///
/// # Errors
///
/// Propagates validation failure of the rewritten module.
pub fn hotness(module: &Module) -> Result<WasabiRun, ValidateError> {
    make_run(module, "hotness", false)
}

/// The branch monitor, Wasabi-style: a JS-boundary call before every
/// conditional branch, receiving the condition operand.
///
/// # Errors
///
/// Propagates validation failure of the rewritten module.
pub fn branch(module: &Module) -> Result<WasabiRun, ValidateError> {
    make_run(module, "branch", true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::{EngineConfig, Process, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::I32;

    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new();
        mb.memory(1);
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        f.for_range(i, 0, |f| {
            f.nop();
        });
        f.local_get(0);
        mb.add_func("run", f);
        mb.build().unwrap()
    }

    #[test]
    fn hotness_counts_every_instruction() {
        let m = loop_module();
        let run = hotness(&m).unwrap();
        let mut p = Process::new(run.module, EngineConfig::default(), &run.linker).unwrap();
        let r = p.invoke_export("run", &[Value::I32(10)]).unwrap();
        assert_eq!(r, vec![Value::I32(10)]);
        assert!(run.analysis.events() > 50);
        assert_eq!(run.analysis.total(), run.analysis.events() as f64);
    }

    #[test]
    fn branch_distinguishes_directions() {
        let m = loop_module();
        let run = branch(&m).unwrap();
        let mut p = Process::new(run.module, EngineConfig::default(), &run.linker).unwrap();
        p.invoke_export("run", &[Value::I32(10)]).unwrap();
        assert_eq!(run.analysis.events(), 11);
        assert_eq!(run.analysis.distinct_sites(), 2, "taken and fall-through keys");
    }
}
