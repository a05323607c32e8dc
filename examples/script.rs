//! wizard-script demo: instrumentation as *data*. One script source is
//! compiled onto the probe engine twice — against a single Richards
//! process (showing the compiler's per-site classification) and across a
//! small pool fleet (per-job script monitors, fleet-merged reports).
//!
//! ```sh
//! cargo run --example script
//! ```

use wizard::engine::store::Linker;
use wizard::engine::{EngineConfig, ProbeKind, Process, Value};
use wizard::pool::{Job, Pool, PoolConfig};
use wizard::script::ScriptMonitor;

const SOURCE: &str = r#"
monitor "richards-stats"

# Pure counter bumps lower to intrinsified count probes.
match loop-header do inc loops
match call       do inc calls[site]

# The compiler folds `op` per site: on br_table sites this rule is a
# pure counter; on if/br_if sites it becomes a top-of-stack operand
# probe; it never needs a generic probe.
match branch when op == br_table || tos != 0 do inc taken[site]
match branch when op != br_table && tos == 0 do inc fall[site]

report "branch profile" ratio "taken" taken / fall
report "hot callsites"  top 5 calls
report "summary"        total "loop-header executions" loops
report "summary"        total "branches" taken + fall
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = wizard::suites::richards_benchmark(200);

    // --- single process: compile, classify, run, report ---
    let mut p = Process::new(bench.module.clone(), EngineConfig::default(), &Linker::new())?;
    let m = p.attach_monitor(ScriptMonitor::from_source(SOURCE)?)?;
    {
        let mon = m.borrow();
        let (count, operand, generic) = mon.kind_counts();
        println!(
            "compiled {} rules onto {} probes: {count} count (inlined in compiled code), \
             {operand} operand (direct call), {generic} generic; \
             {} rule-site pairs proven dead and dropped",
            mon.script().rules.len(),
            mon.lowering().len(),
            mon.dropped_sites(),
        );
        let sample = mon.lowering().iter().find(|l| l.kind == ProbeKind::Operand);
        if let Some(l) = sample {
            println!(
                "e.g. rule {} at {} kept only the residue `{}`",
                l.rule,
                l.loc,
                l.residual.as_deref().unwrap_or("-"),
            );
        }
    }
    p.invoke_export("run", &[Value::I32(bench.n)])?;
    println!("\n{}", m.report());
    p.detach_monitor(m.handle())?;
    assert_eq!(p.probed_location_count(), 0);
    println!("detached: zero-overhead baseline restored\n");

    // --- the same source, per job, across a fleet ---
    let factory = wizard::script::monitor_factory(SOURCE)?;
    let mut pool = Pool::new(PoolConfig {
        shards: 2,
        engine: EngineConfig::builder().fuel_slice(50_000).build(),
    });
    for k in 0..4 {
        pool.submit(
            Job::new(format!("richards-{k}"), bench.module.clone(), "run", vec![Value::I32(100)])
                .with_monitor_factory(factory.clone()),
        );
    }
    let outcome = pool.run();
    assert!(outcome.all_ok());
    let merged = outcome.merged_report("richards-stats").expect("merged script report");
    println!("fleet of {} jobs, merged:\n{merged}", outcome.jobs.len());
    Ok(())
}
