//! Multi-tenant serving: submit a mixed three-tenant fleet to the
//! work-stealing `ServeEngine`, with a fuel budget throttling the
//! background tenant, then print per-job outcomes and the fleet summary.
//!
//! ```sh
//! cargo run --example serve
//! ```

use wizard::engine::{EngineConfig, Value};
use wizard::monitors::HotnessMonitor;
use wizard::pool::{Job, Priority, ServeConfig, ServeEngine};
use wizard::suites::{tenant_fleet, Scale};

fn main() {
    // Unlike the batch pool (`examples/pool.rs`), the serving engine is
    // long-lived: jobs are admitted online through a bounded queue,
    // scheduled by strict priority with per-tenant fuel budgets, and —
    // until they start — stolen between workers when one runs dry. A small `round_fuel`
    // makes the background tenant's budget visibly throttle here.
    let engine = ServeEngine::new(
        ServeConfig {
            workers: 2,
            engine: EngineConfig::builder().fuel_slice(2_000).build(),
            round_fuel: 100_000,
            ..ServeConfig::default()
        }
        .tenant_budget("background", 2_000),
    );

    let mut handles = Vec::new();
    for (k, spec) in tenant_fleet(Scale::Test, 9).iter().enumerate() {
        let priority = match spec.class {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        let job = Job::new(
            format!("{}-{k}", spec.name),
            spec.module.clone(),
            "run",
            vec![Value::I32(spec.n)],
        )
        .for_tenant(spec.tenant)
        .at_priority(priority)
        .with_monitor(HotnessMonitor::new);
        // Ingestion-corpus kernels import host functions; their linker is
        // built on whichever worker instantiates the process.
        let job = if spec.uses_imports {
            let module = spec.module.clone();
            job.with_linker(move || {
                wizard::engine::Shims::standard().linker_for(&module).expect("kernel links")
            })
        } else {
            job
        };
        handles.push(engine.try_submit(job).handle().expect("queue has space"));
    }

    println!(
        "{:<18} {:<12} {:<7} {:>7} {:>7} {:>9}  result",
        "job", "tenant", "prio", "worker", "slices", "lat ms"
    );
    for h in &handles {
        let o = h.wait();
        println!(
            "{:<18} {:<12} {:<7} {:>7} {:>7} {:>9.3}  {:?}",
            o.name,
            o.tenant,
            o.priority.name(),
            o.worker,
            o.slices,
            o.latency.as_secs_f64() * 1e3,
            o.status,
        );
    }

    let summary = engine.shutdown();
    println!(
        "\nfleet: {} jobs, {} slices, {} steals, {} budget throttles, queue depth max {}",
        summary.completed,
        summary.stats.slices_executed,
        summary.stats.steals,
        summary.stats.budget_throttles,
        summary.stats.queue_depth_max,
    );
    for t in &summary.tenants {
        println!(
            "tenant {:<12} fuel={:<10} throttles={:<3} jobs={}",
            t.tenant, t.fuel_spent, t.throttles, t.jobs
        );
    }
    if let Some(r) = summary.merged_report("hotness") {
        println!("\nmerged across all tenants:\n{r}");
    }
}
