//! Calling-context-tree profiling of the Richards scheduler: wall-clock
//! self/total times via the entry/exit library (built purely on probes)
//! plus flame-graph lines you can paste into a flamegraph renderer.
//!
//! ```sh
//! cargo run --example flamegraph
//! ```

use wizard::engine::store::Linker;
use wizard::engine::{EngineConfig, Process, Value};
use wizard::monitors::{CallTreeMonitor, CallsMonitor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = wizard::suites::richards_benchmark(20_000);
    let mut process = Process::new(bench.module, EngineConfig::default(), &Linker::new())?;

    let tree = process.attach_monitor(CallTreeMonitor::new())?;
    let calls = process.attach_monitor(CallsMonitor::new())?;

    process.invoke_export("run", &[Value::I32(bench.n)])?;

    // Detach drains the call tree's shadow stack (CallTreeMonitor's
    // on_detach) and removes all probes of both monitors.
    process.detach_monitor(tree.handle())?;
    process.detach_monitor(calls.handle())?;
    assert_eq!(process.probed_location_count(), 0);

    println!("{}", tree.report());
    println!("--- flame graph lines (self µs) ---");
    for line in tree.borrow().flame_lines() {
        println!("{line}");
    }
    println!("\n{}", calls.report());
    Ok(())
}
