//! Bytecode-level debugging session: a breakpoint, inspection, two single
//! steps (one-shot global probes), and a fix-and-continue state
//! modification that changes the program's result.
//!
//! ```sh
//! cargo run --example debugger
//! ```

use wizard::engine::store::Linker;
use wizard::engine::{EngineConfig, Process, Value};
use wizard::monitors::Debugger;
use wizard::wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard::wasm::types::ValType::I32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let t = f.local(I32);
    f.local_get(0).i32_const(100).i32_add().local_set(t);
    f.local_get(t).i32_const(3).i32_mul();
    mb.add_func("calc", f);
    let module = mb.build()?;

    let mut process = Process::new(module, EngineConfig::default(), &Linker::new())?;
    let func = process.module().export_func("calc").unwrap();

    let mut debugger = Debugger::new([
        "where", "locals", "stack",
        // fix-and-continue: overwrite the argument before it is read
        "set 0 5", "step", "step", "locals", "continue",
    ]);
    debugger.breakpoint(func, 0);
    let debugger = process.attach_monitor(debugger)?;

    let result = process.invoke_export("calc", &[Value::I32(1)])?;
    println!("--- session transcript ---");
    println!("{}", debugger.borrow().output());
    println!("result: {:?} (would be 303 without the `set`)", result[0]);
    assert_eq!(result, vec![Value::I32((5 + 100) * 3)]);

    // Detaching removes the breakpoint probe; later runs are undisturbed.
    process.detach_monitor(debugger.handle())?;
    let clean = process.invoke_export("calc", &[Value::I32(1)])?;
    assert_eq!(clean, vec![Value::I32(303)]);
    println!("after detach: calc(1) = {:?}", clean[0]);
    Ok(())
}
