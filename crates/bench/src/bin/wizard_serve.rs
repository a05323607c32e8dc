//! `wizard_serve`: a long-running multi-tenant instrumentation server on
//! top of `wizard-pool`'s work-stealing [`ServeEngine`].
//!
//! Every submitted job runs under a hotness monitor; reports merge
//! fleet-wide and scheduler counters (steals, queue depth, throttles)
//! are queryable while the server runs.
//!
//! ```sh
//! cargo run --release --bin wizard_serve -- --demo 12   # demo fleet, exit
//! cargo run --release --bin wizard_serve                # line protocol
//! ```
//!
//! The line protocol (stdin → stdout, one command per line):
//!
//! * `SUBMIT <tenant> <priority> <kernel> [n]` — admit a job; `priority`
//!   is `high` / `normal` / `low`, `kernel` is any suite kernel name
//!   (`gemm`, `richards`, `crc32`, ...; see `LIST`), `n` a non-negative
//!   problem size (the scale's default if absent). Prints
//!   `ok <job>` / `rejected` / `err <why>`.
//! * `LIST` — the kernel registry.
//! * `STATS` — fleet-wide engine + scheduler counters so far.
//! * `TENANTS` — per-tenant fuel/throttle/job accounting.
//! * `DRAIN` (or EOF) — close admission, wait for every job, print each
//!   outcome and the merged summary, exit.
//!
//! Any other line — unknown words, bad arguments, bytes that are not
//! UTF-8 — is answered `err <why>`; no input stops the server.
//!
//! With `--demo N` (or under `WIZARD_SMOKE=1`, so CI's bench smoke loop
//! exercises the binary without a driver) the server submits an
//! `N`-job `wizard_suites::tenant_fleet` to itself and drains.
//!
//! Environment: `WIZARD_SCALE` (kernel problem sizes),
//! `WIZARD_SERVE_WORKERS` (0 = auto), `WIZARD_SERVE_SLICE` (fuel slice,
//! default 10000).

use std::collections::HashMap;
use std::io::BufRead;
use std::time::Instant;

use wizard_engine::{EngineConfig, Shims, Value};
use wizard_monitors::HotnessMonitor;
use wizard_pool::{Job, JobHandle, Priority, ServeConfig, ServeEngine, Submit};
use wizard_suites::{corpus, Scale};
use wizard_wasm::module::Module;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Kernel registry: every suite kernel by name, plus whether it needs a
/// shim linker (ingestion-corpus modules importing host functions).
struct Registry {
    kernels: HashMap<&'static str, (Module, i32, bool)>,
    names: Vec<&'static str>,
}

impl Registry {
    fn new(scale: Scale) -> Registry {
        let mut kernels = HashMap::new();
        for b in wizard_suites::all_suites(scale) {
            kernels.insert(b.name, (b.module, b.n, false));
        }
        let r = wizard_suites::richards_benchmark(match scale {
            Scale::Test => 20,
            Scale::Small => 100,
            Scale::Medium => 300,
        });
        kernels.insert(r.name, (r.module, r.n, false));
        for e in corpus::corpus(scale) {
            kernels.entry(e.name).or_insert((e.module, e.n, e.uses_imports));
        }
        let mut names: Vec<&'static str> = kernels.keys().copied().collect();
        names.sort_unstable();
        Registry { kernels, names }
    }

    /// Builds a monitored job; `n` overrides the scale default if `Some`.
    fn job(&self, name: &str, tenant: &str, priority: Priority, n: Option<i32>) -> Option<Job> {
        let (module, default_n, uses_imports) = self.kernels.get(name)?;
        let mut job = Job::new(
            format!("{name}@{tenant}"),
            module.clone(),
            "run",
            vec![Value::I32(n.unwrap_or(*default_n))],
        )
        .for_tenant(tenant)
        .at_priority(priority)
        .with_monitor(HotnessMonitor::new);
        if *uses_imports {
            let module = module.clone();
            job = job.with_linker(move || {
                Shims::standard().linker_for(&module).expect("registry module links against shims")
            });
        }
        Some(job)
    }
}

fn parse_priority(s: &str) -> Option<Priority> {
    match s.to_ascii_lowercase().as_str() {
        "high" | "0" => Some(Priority::High),
        "normal" | "1" => Some(Priority::Normal),
        "low" | "2" => Some(Priority::Low),
        _ => None,
    }
}

/// One line of the protocol, parsed.
#[derive(Debug, PartialEq)]
enum Command {
    Blank,
    Submit { tenant: String, priority: Priority, kernel: String, n: Option<i32> },
    List,
    Stats,
    Tenants,
    Drain,
}

/// Parses one raw stdin line (any bytes: invalid UTF-8 is replaced, never
/// fatal). `Err` is the text to answer after `err `.
fn parse_command(line: &[u8]) -> Result<Command, String> {
    let line = String::from_utf8_lossy(line);
    let words: Vec<&str> = line.split_whitespace().collect();
    Ok(match words.as_slice() {
        [] => Command::Blank,
        ["SUBMIT" | "submit", tenant, priority, kernel, rest @ ..] => {
            let Some(priority) = parse_priority(priority) else {
                return Err(format!("bad priority {priority:?} (high/normal/low)"));
            };
            let n = match rest {
                [] => None,
                [n] => match n.parse::<i32>() {
                    Ok(n) if n >= 0 => Some(n),
                    _ => return Err(format!("bad n {n:?} (a non-negative integer)")),
                },
                _ => return Err("usage: SUBMIT <tenant> <priority> <kernel> [n]".to_string()),
            };
            Command::Submit {
                tenant: (*tenant).to_string(),
                priority,
                kernel: (*kernel).to_string(),
                n,
            }
        }
        ["LIST" | "list"] => Command::List,
        ["STATS" | "stats"] => Command::Stats,
        ["TENANTS" | "tenants"] => Command::Tenants,
        ["DRAIN" | "drain" | "EXIT" | "exit" | "QUIT" | "quit"] => Command::Drain,
        other => return Err(format!("unknown command {other:?}")),
    })
}

fn print_stats(engine: &ServeEngine) {
    let s = engine.stats();
    println!(
        "stats in_flight={} completed={} queue_depth={} slices={} steals={} \
         queue_depth_max={} throttles={} fuel={} probe_fires={}",
        engine.in_flight(),
        engine.completed(),
        engine.queue_depth(),
        s.slices_executed,
        s.steals,
        s.queue_depth_max,
        s.budget_throttles,
        s.fuel_consumed,
        s.probe_fires,
    );
}

fn print_tenants(engine: &ServeEngine) {
    for t in engine.tenant_stats() {
        println!(
            "tenant {} fuel={} throttles={} jobs={}",
            t.tenant, t.fuel_spent, t.throttles, t.jobs
        );
    }
}

fn drain_and_report(engine: ServeEngine, handles: Vec<JobHandle>, started: Instant) {
    engine.drain();
    println!(
        "{:<24} {:<12} {:<7} {:>7} {:>7} {:>10}  status",
        "job", "tenant", "prio", "worker", "slices", "lat ms"
    );
    for h in &handles {
        let o = h.wait();
        println!(
            "{:<24} {:<12} {:<7} {:>7} {:>7} {:>10.3}  {:?}",
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
        "\nserved {} job(s) in {:.1} ms — slices={} steals={} queue_depth_max={} throttles={}",
        summary.completed,
        started.elapsed().as_secs_f64() * 1e3,
        summary.stats.slices_executed,
        summary.stats.steals,
        summary.stats.queue_depth_max,
        summary.stats.budget_throttles,
    );
    for t in &summary.tenants {
        println!(
            "tenant {:<12} fuel={:<12} throttles={:<4} jobs={}",
            t.tenant, t.fuel_spent, t.throttles, t.jobs
        );
    }
    if let Some(r) = summary.merged_report("hotness") {
        println!("\nmerged across all tenants:\n{r}");
    }
}

fn demo(registry: &Registry, engine: ServeEngine, scale: Scale, jobs: usize) {
    println!("demo: serving a {jobs}-job tenant fleet on {} worker(s)", engine.workers());
    let started = Instant::now();
    let mut handles = Vec::new();
    for (k, spec) in wizard_suites::tenant_fleet(scale, jobs).iter().enumerate() {
        let priority = match spec.class {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        let mut job = registry
            .job(spec.name, spec.tenant, priority, Some(spec.n))
            .expect("fleet kernels are registered");
        job.name = format!("{}-{k}@{}", spec.name, spec.tenant);
        match engine.submit_blocking(job) {
            Submit::Accepted(h) => handles.push(h),
            other => panic!("demo submission failed: {other:?}"),
        }
    }
    drain_and_report(engine, handles, started);
}

fn main() {
    let scale = wizard_bench::scale();
    let workers = env_u64("WIZARD_SERVE_WORKERS", 0) as usize;
    let slice = env_u64("WIZARD_SERVE_SLICE", 10_000);
    let registry = Registry::new(scale);
    let engine = ServeEngine::new(ServeConfig {
        workers,
        engine: EngineConfig::builder().fuel_slice(slice).build(),
        ..ServeConfig::default()
    });

    let args: Vec<String> = std::env::args().skip(1).collect();
    let demo_n = match args.first().map(String::as_str) {
        Some("--demo") => Some(args.get(1).and_then(|s| s.parse().ok()).unwrap_or(12)),
        // CI's bench smoke loop runs every binary with no stdin driver.
        None if wizard_bench::smoke() => Some(12),
        None => None,
        Some(other) => {
            eprintln!("unknown argument {other:?} (expected --demo [N])");
            std::process::exit(2);
        }
    };
    if let Some(n) = demo_n {
        demo(&registry, engine, scale, n);
        return;
    }

    println!(
        "wizard-serve: {} worker(s), fuel slice {slice}, {} kernel(s); \
         SUBMIT <tenant> <priority> <kernel> [n] | LIST | STATS | TENANTS | DRAIN",
        engine.workers(),
        registry.names.len(),
    );
    let started = Instant::now();
    let mut handles = Vec::new();
    let mut stdin = std::io::stdin().lock();
    let mut line = Vec::new();
    loop {
        line.clear();
        match stdin.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                println!("err read stdin: {e}");
                break;
            }
        }
        match parse_command(&line) {
            Err(why) => println!("err {why}"),
            Ok(Command::Blank) => {}
            Ok(Command::Submit { tenant, priority, kernel, n }) => {
                match registry.job(&kernel, &tenant, priority, n) {
                    None => println!("err unknown kernel {kernel:?} (try LIST)"),
                    Some(job) => match engine.try_submit(job) {
                        Submit::Accepted(h) => {
                            println!("ok {}", h.name());
                            handles.push(h);
                        }
                        Submit::Rejected(_) => println!("rejected (queue full)"),
                        Submit::Invalid { error, .. } => println!("err invalid module: {error}"),
                        Submit::Closed(_) => println!("err admission closed"),
                    },
                }
            }
            Ok(Command::List) => println!("kernels: {}", registry.names.join(" ")),
            Ok(Command::Stats) => print_stats(&engine),
            Ok(Command::Tenants) => print_tenants(&engine),
            Ok(Command::Drain) => break,
        }
    }
    drain_and_report(engine, handles, started);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_utf8_line_is_an_error_not_a_panic() {
        let r = parse_command(b"\xff\xfe\n");
        assert!(r.as_ref().is_err_and(|why| why.starts_with("unknown command")), "{r:?}");
    }

    #[test]
    fn an_unparsable_n_is_rejected() {
        let r = parse_command(b"SUBMIT t high crc32 x");
        assert!(r.as_ref().is_err_and(|why| why.starts_with("bad n")), "{r:?}");
    }

    #[test]
    fn a_negative_n_is_rejected() {
        let r = parse_command(b"SUBMIT t high crc32 -3");
        assert!(r.as_ref().is_err_and(|why| why.starts_with("bad n")), "{r:?}");
    }

    #[test]
    fn a_valid_submit_parses() {
        let expect = |n| Command::Submit {
            tenant: "t".to_string(),
            priority: Priority::High,
            kernel: "crc32".to_string(),
            n,
        };
        assert_eq!(parse_command(b"SUBMIT t high crc32 5\r\n"), Ok(expect(Some(5))));
        assert_eq!(parse_command(b"submit t 0 crc32"), Ok(expect(None)));
    }
}
