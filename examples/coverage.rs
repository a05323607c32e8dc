//! Code-coverage tool: runs a PolyBench kernel under the Coverage monitor
//! (self-removing probes — the canonical dynamic-probe-removal analysis)
//! and prints per-function coverage. The monitor probes one instruction
//! per straight-line run, not every instruction. Note how the probe count
//! drops to the runs left uncovered after the run (plus the last-entered
//! run's leader, which leaves on its next entry), and to zero after detach.
//!
//! ```sh
//! cargo run --example coverage
//! ```

use wizard::engine::store::Linker;
use wizard::engine::{EngineConfig, Process, Value};
use wizard::monitors::CoverageMonitor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = wizard::suites::polybench_suite(wizard::suites::Scale::Test)
        .into_iter()
        .find(|b| b.name == "cholesky")
        .expect("cholesky exists");

    let mut process = Process::new(bench.module, EngineConfig::default(), &Linker::new())?;
    let coverage = process.attach_monitor(CoverageMonitor::new())?;
    let installed = process.probed_location_count();
    let instructions = process.artifact().instruction_sites().len();

    process.invoke_export("run", &[Value::I32(bench.n)])?;

    println!("{}", coverage.report());
    println!(
        "probes: {installed} installed, one per run over {instructions} instructions \
         (one invalidation pass); {} remaining after the run (covered runs removed \
         their probes)",
        process.probed_location_count()
    );

    process.detach_monitor(coverage.handle())?;
    println!("after detach: {} probed locations", process.probed_location_count());
    Ok(())
}
