//! The names and units every run emits. `BENCHMARK.json` at the repo root
//! lists the same names; `--smoke` and a unit test check the two agree.

pub const WORKLOADS: [&str; 5] =
    ["exec_plain", "probe_hot", "probe_churn", "cold_ingest", "serve_mixed"];

/// What a user of the system sees; printed by `--trace 0`. Each has a
/// regression bound in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("hi_p50_ms", "ms"),
    ("hi_p99_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("peak_rss_mb", "MB"),
];

/// One layer each; printed by `--trace 1`. `_s` metrics are busy seconds
/// per round (one round = every job of the workload once); counts are per
/// round too, and exact on the single-threaded workloads. A metric whose
/// layer a workload never enters is 0 there.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("wasm.decode_s", "s"),
    ("wasm.decode_mb_per_s", "MB/s"),
    ("wasm.validate_s", "s"),
    ("wasm.bytes_in", "bytes"),
    ("core.artifact_s", "s"),
    ("core.lower_s", "s"),
    ("core.link_s", "s"),
    ("core.instantiate_s", "s"),
    ("core.attach_s", "s"),
    ("core.detach_s", "s"),
    ("core.exec_s", "s"),
    ("core.report_s", "s"),
    ("core.exec_instrs", "count"),
    ("core.exec_ns_per_instr", "ns"),
    ("core.exec_interp_ns_per_instr", "ns"),
    ("core.probe_fires", "count"),
    ("core.global_fires", "count"),
    ("core.compiles", "count"),
    ("core.tier_ups", "count"),
    ("core.deopts", "count"),
    ("core.invalidation_passes", "count"),
    ("core.suspensions", "count"),
    ("core.functions_lowered", "count"),
    ("core.overlay_copies", "count"),
    ("core.overlay_bytes_max", "bytes"),
    ("core.fuel_consumed", "count"),
    ("monitors.fires", "count"),
    ("monitors.ns_per_fire", "ns"),
    ("monitors.hotness_overhead_x", "x"),
    ("monitors.branch_overhead_x", "x"),
    ("script.compile_s", "s"),
    ("script.attach_s", "s"),
    ("script.overhead_x", "x"),
    ("trace.events", "count"),
    ("trace.bytes", "bytes"),
    ("trace.bytes_per_event", "bytes"),
    ("trace.overhead_x", "x"),
    ("pool.cache_lookup_s", "s"),
    ("pool.cache_hits", "count"),
    ("pool.cache_misses", "count"),
    ("pool.cache_hit_ratio", "ratio"),
    ("pool.submit_s", "s"),
    ("pool.rejected", "count"),
    ("pool.queue_wait_p50_ms", "ms"),
    ("pool.queue_wait_p99_ms", "ms"),
    ("pool.run_p50_ms", "ms"),
    ("pool.slices", "count"),
    ("pool.slices_per_job", "count"),
    ("pool.steals", "count"),
    ("pool.migrations", "count"),
    ("pool.queue_depth_max", "count"),
    ("pool.worker_busy_ratio", "ratio"),
    ("pool.fuel_billed", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.driver_idle_ratio", "ratio"),
];

/// Counts that must repeat exactly between two same-seed runs of a
/// single-threaded workload, and must not depend on the seed at all.
pub const EXACT: [&str; 7] = [
    "core.exec_instrs",
    "monitors.fires",
    "trace.events",
    "trace.bytes",
    "core.invalidation_passes",
    "core.functions_lowered",
    "pool.cache_misses",
];
