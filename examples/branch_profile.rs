//! Branch profiling with intrinsified operand probes: profiles every
//! conditional branch of a crypto kernel in compiled code (the register
//! form) and prints the taken/not-taken distribution.
//!
//! ```sh
//! cargo run --example branch_profile
//! ```

use wizard::engine::store::Linker;
use wizard::engine::{EngineConfig, Process, Value};
use wizard::monitors::BranchMonitor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = wizard::suites::libsodium_suite(wizard::suites::Scale::Test)
        .into_iter()
        .find(|b| b.name == "scalarmult")
        .expect("scalarmult exists");

    // Operand-probe intrinsification: the branch probes bind to direct
    // top-of-stack calls in the register form (paper Figure 2).
    let mut process = Process::new(bench.module, EngineConfig::default(), &Linker::new())?;
    let branches = process.attach_monitor(BranchMonitor::new())?;

    process.invoke_export("run", &[Value::I32(bench.n)])?;

    println!("{}", branches.report());
    println!("total branch executions: {}", branches.borrow().total_branches());
    Ok(())
}
