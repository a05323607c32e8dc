//! Quickstart: build a Wasm module in Rust, instantiate it, attach the
//! hotness and loop monitors, run, print structured reports, and detach —
//! demonstrating the zero-overhead-when-off lifecycle.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use wizard::engine::store::Linker;
use wizard::engine::{EngineConfig, Process, Value};
use wizard::monitors::{HotnessMonitor, LoopMonitor};
use wizard::wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard::wasm::types::ValType::I32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A module computing sum(0..n) with a nested check loop.
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    let acc = f.local(I32);
    f.for_range(i, 0, |f| {
        f.local_get(acc).local_get(i).i32_add().local_set(acc);
    });
    f.local_get(acc);
    mb.add_func("sum", f);
    let module = mb.build()?;

    // Instantiate under the tiered engine and attach two monitors. Each
    // attach_monitor call returns a typed handle for queries + detach.
    let mut process = Process::new(module, EngineConfig::default(), &Linker::new())?;
    let hotness = process.attach_monitor(HotnessMonitor::new())?;
    let loops = process.attach_monitor(LoopMonitor::new())?;

    let result = process.invoke_export("sum", &[Value::I32(1000)])?;
    println!("sum(0..1000) = {:?}\n", result[0]);
    println!("{}", loops.report());
    println!("{}", hotness.report());
    println!("engine stats: {:?}", process.stats());

    // Detach both monitors: all their probes are removed in one batched
    // pass each, restoring the zero-overhead baseline.
    process.detach_monitor(hotness.handle())?;
    process.detach_monitor(loops.handle())?;
    assert_eq!(process.probed_location_count(), 0);
    assert!(!process.in_global_mode());
    println!("\nafter detach: 0 probed locations, back to baseline");
    Ok(())
}
