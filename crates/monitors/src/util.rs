//! Shared helpers for monitors: enumerating instrumentation sites.

use wizard_wasm::instr::{Instr, InstrIter};
use wizard_wasm::module::{FuncIdx, Module};

/// All instructions of all locally-defined functions matching `pred`,
/// as `(func index, decoded instruction)` pairs in code order.
pub fn sites(module: &Module, pred: impl Fn(&Instr) -> bool) -> Vec<(FuncIdx, Instr)> {
    let n_imp = module.num_imported_funcs();
    let mut out = Vec::new();
    for (i, f) in module.funcs.iter().enumerate() {
        let fidx = n_imp + i as u32;
        for item in InstrIter::new(&f.body.code) {
            let instr = item.expect("module was validated");
            if pred(&instr) {
                out.push((fidx, instr.clone()));
            }
        }
    }
    out
}

/// A human-readable function label: its name if known, else `func[i]`.
pub fn func_label(module: &Module, func: FuncIdx) -> String {
    module.func_name(func).map_or_else(|| format!("func[{func}]"), ToString::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::opcodes as op;
    use wizard_wasm::types::ValType::I32;

    fn module() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        f.for_range(i, 0, |f| {
            f.nop();
        });
        f.local_get(0);
        mb.add_func("m", f);
        mb.build().unwrap()
    }

    #[test]
    fn site_enumeration_and_filtering() {
        let m = module();
        assert!(sites(&m, |_| true).len() > 10);
        let branches = sites(&m, |i| wizard_wasm::opcodes::is_branch(i.op));
        assert!(!branches.is_empty());
        assert!(branches.iter().all(|(_, i)| op::is_branch(i.op)));
        let loops = sites(&m, |i| i.op == op::LOOP);
        assert_eq!(loops.len(), 1);
    }

    #[test]
    fn func_labels() {
        let m = module();
        assert_eq!(func_label(&m, 0), "m");
        assert_eq!(func_label(&m, 42), "func[42]");
    }
}
