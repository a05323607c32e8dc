//! Batch pool: run a fleet of monitored Wasm processes to completion
//! over two fuel-slicing, work-stealing workers, then print the per-job
//! and merged fleet-wide reports.
//!
//! ```sh
//! cargo run --example pool
//! ```

use wizard::engine::{EngineConfig, Value};
use wizard::monitors::HotnessMonitor;
use wizard::pool::{Job, Pool, PoolConfig};
use wizard::suites::{fleet, Scale};

fn main() {
    // A mixed richards + polybench fleet, every process carrying its own
    // hotness monitor. Monitors are Rc-based and single-threaded; the pool
    // builds each one *on* the worker thread that owns its process.
    let benches = fleet(Scale::Test, 8);
    let config = PoolConfig {
        shards: 2,
        // 1k bytecode instructions per turn: no process monopolizes a
        // worker (EngineStats::suspensions counts the preemptions).
        engine: EngineConfig::builder().fuel_slice(1_000).build(),
    };
    let mut pool = Pool::new(config);
    for (k, b) in benches.iter().enumerate() {
        pool.submit(
            Job::new(format!("{}-{k}", b.name), b.module.clone(), "run", vec![Value::I32(b.n)])
                .with_monitor(HotnessMonitor::new),
        );
    }

    let outcome = pool.run();
    println!("{:<16} {:>6} {:>8} {:>14}  result", "job", "shard", "slices", "instructions");
    for j in &outcome.jobs {
        let instrs = j
            .report
            .as_ref()
            .and_then(|r| r.get("summary"))
            .and_then(|s| s.count_of("total instruction executions"))
            .unwrap_or(0);
        println!("{:<16} {:>6} {:>8} {:>14}  {:?}", j.name, j.shard, j.slices, instrs, j.result);
    }
    println!("\nfleet stats: {:?}", outcome.stats);
    for r in &outcome.merged_reports {
        println!("\nmerged across the fleet:\n{r}");
    }
}
