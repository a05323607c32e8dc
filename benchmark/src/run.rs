//! One measured run of one workload: set-up, the timed rounds, and the
//! metrics of either pass — end-to-end (`--trace 0`) or per-layer
//! (`--trace 1`).

use std::time::Instant;

use crate::inputs::{bench_dir, Inputs};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{geomean, median, percentile, sorted_samples, spread, Rng};
use crate::surface::Kind;
use crate::workloads::{self, Bench, Role, Sink, Workload};

/// Set-up is repeated and its median reported, so one slow page-in does
/// not decide `setup_s`: at least `SETUP_MIN_REPS` times, and — for the
/// workloads whose set-up takes milliseconds — until `SETUP_BUDGET_S` is
/// spent or `SETUP_MAX_REPS` is reached.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;
/// The timed rounds are grouped into this many blocks (see `end_to_end`).
/// Fifteen blocks of an 18 s run are about a second each: short enough
/// that a median over them shrugs off interference lasting several
/// seconds, long enough that a block's CPU time is a hundred clock ticks.
const BLOCKS: usize = 15;
/// Linux reports process CPU time in ticks of 1/100 s on every
/// architecture this repo builds for (`getconf CLK_TCK`).
const TICKS_PER_S: f64 = 100.0;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, value, unit)` in the order of `metrics::END_TO_END` or
    /// `metrics::PER_LAYER`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Inter-quartile range across blocks over the median block, for the
    /// metrics that are a median block.
    pub block_spread: Vec<(&'static str, f64)>,
    /// Human-readable lines for stderr: sample counts, rounds, host.
    pub notes: Vec<String>,
}

/// Process user+sys CPU seconds, all threads (`/proc/self/stat`).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12th and 13th after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<f64>().ok()).sum();
    ticks / TICKS_PER_S
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// A round boundary: wall and CPU clocks read together, and how many
/// latency samples had been recorded by then.
struct Mark {
    wall_s: f64,
    cpu_s: f64,
    jobs: usize,
    hi: usize,
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let inputs_dir = bench_dir().join("inputs");
    // The copy the job list borrows. Every set-up repetition below reads
    // the inputs again, as a fresh process would, but keeps only this one.
    let inputs = Inputs::load(&inputs_dir)?;
    let mut setups: Vec<f64> = Vec::new();
    let mut warm_jobs = 0;
    let mut warm_failed = 0;
    let mut failures = Vec::new();
    let mut bench = None;
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(old) = bench.take() {
            Bench::shutdown(old);
        }
        let started = Instant::now();
        drop(Inputs::load(&inputs_dir)?);
        let (b, warm) = Bench::setup(args.workload, &inputs)?;
        setups.push(started.elapsed().as_secs_f64());
        warm_jobs += warm.tally.jobs;
        warm_failed += warm.tally.failed;
        failures.extend(warm.failures);
        bench = Some(b);
    }
    let bench = bench.expect("set-up ran at least once");

    let mut rng = Rng::new(args.seed);
    let mut rec = if args.trace { Recorder::reserved() } else { Recorder::new() };
    let mut sink = Sink::reserved();
    let started = Instant::now();
    let mut marks = vec![Mark { wall_s: 0.0, cpu_s: cpu_seconds(), jobs: 0, hi: 0 }];
    // At least one round (two when tracing, so both arms exist), then
    // whole rounds while the clock allows.
    while marks.len() <= usize::from(args.trace) + 1
        || started.elapsed().as_secs_f64() < args.seconds
    {
        // Traced runs alternate untraced and traced rounds: the pairs see
        // the same machine state, so their ratio is the tracing overhead.
        rec.on = args.trace && marks.len() % 2 == 0;
        bench.round(&mut rng, &mut rec, &mut sink);
        marks.push(Mark {
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds(),
            jobs: sink.job_ms.len(),
            hi: sink.hi_ms.len(),
        });
    }
    // Read before the metric code below sorts copies of the samples.
    let peak_rss_mb = peak_rss_mb();
    let rounds = marks.len() - 1;
    let per_round = bench.jobs_per_round() as f64;

    let mut notes = vec![format!(
        "{}: seed {}, {} rounds of {} jobs in {:.2} s, {} core(s), {} serve worker(s)",
        args.workload.name(),
        args.seed,
        rounds,
        per_round,
        marks[rounds].wall_s,
        workloads::host_parallelism(),
        bench.workers,
    )];

    let (metrics, block_spread) = if args.trace {
        let side = SidePasses::run(&bench)?;
        let m = per_layer(&bench, &sink, &rec, &marks, &side);
        let out = bench_dir().join("out");
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let path = out.join(format!("trace_{}.json", args.workload.name()));
        std::fs::write(&path, rec.to_json(args.workload.name()).to_string() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("{} spans written to {}", rec.spans().len(), path.display()));
        (m, Vec::new())
    } else {
        let (m, blocks) = end_to_end(&sink, &marks, median(&setups), peak_rss_mb);
        let n = blocks.of("jobs_per_s").len();
        notes.push(format!(
            "{} latency samples ({} of the highest-priority class) in {n} blocks; \
             set-up repeated {} times",
            sink.job_ms.len(),
            if sink.hi_ms.is_empty() { sink.job_ms.len() } else { sink.hi_ms.len() },
            setups.len()
        ));
        notes.push(format!("jobs/s by block: {:.1?}", blocks.of("jobs_per_s")));
        // For the reader: the same percentiles pooled over the whole run.
        let job = sorted_samples(&sink.job_ms);
        let hi = if sink.hi_ms.is_empty() { job.clone() } else { sorted_samples(&sink.hi_ms) };
        notes.push(format!(
            "pooled over the run: job p50 {:.4} p99 {:.4} ms, hi p50 {:.4} p99 {:.4} ms",
            percentile(&job, 0.50),
            percentile(&job, 0.99),
            percentile(&hi, 0.50),
            percentile(&hi, 0.99)
        ));
        (m, BLOCK_METRICS.iter().map(|&name| (name, spread(blocks.of(name)))).collect())
    };
    Bench::shutdown(bench);

    failures.extend(sink.failures);
    Ok(RunResult {
        attempted: warm_jobs + sink.tally.jobs,
        failed: warm_failed + sink.tally.failed,
        failures,
        metrics,
        block_spread,
        notes,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Per-block values of the six block metrics, in `BLOCK_METRICS` order.
struct Blocks([Vec<f64>; 6]);

const BLOCK_METRICS: [&str; 6] =
    ["jobs_per_s", "cpu_ms_per_job", "job_p50_ms", "job_p99_ms", "hi_p50_ms", "hi_p99_ms"];

impl Blocks {
    fn of(&self, name: &str) -> &[f64] {
        let i = BLOCK_METRICS.iter().position(|n| *n == name).expect("a block metric");
        &self.0[i]
    }
}

/// Every end-to-end metric except set-up time and peak memory is computed
/// per block and reported as the median block. The host this runs on (a
/// 2-core VM) has episodes of a few seconds in which everything is a
/// quarter slower; a median over blocks of about a second each stays clear
/// of them, where a mean — or a percentile pooled over the whole run,
/// whose tail those episodes *are* — does not.
fn end_to_end(sink: &Sink, marks: &[Mark], setup_s: f64, peak_rss_mb: f64) -> (Metrics, Blocks) {
    let rounds = marks.len() - 1;
    let blocks = rounds.min(BLOCKS);
    let mut out = Blocks(Default::default());
    for b in 0..blocks {
        // Whole rounds, spread as evenly as they go: every block is the
        // same job mix, and sizes differ by at most one round.
        let (from, to) = (&marks[b * rounds / blocks], &marks[(b + 1) * rounds / blocks]);
        let jobs = (to.jobs - from.jobs) as f64;
        let job = sorted_samples(&sink.job_ms[from.jobs..to.jobs]);
        // On single-class workloads every job is the highest-priority class.
        let hi = if sink.hi_ms.is_empty() {
            job.clone()
        } else {
            sorted_samples(&sink.hi_ms[from.hi..to.hi])
        };
        let values = [
            jobs / (to.wall_s - from.wall_s),
            (to.cpu_s - from.cpu_s) * 1e3 / jobs,
            percentile(&job, 0.50),
            percentile(&job, 0.99),
            percentile(&hi, 0.50),
            percentile(&hi, 0.99),
        ];
        for (series, v) in out.0.iter_mut().zip(values) {
            series.push(v);
        }
    }
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "peak_rss_mb" => peak_rss_mb,
        block_metric => median(out.of(block_metric)),
    };
    let metrics = END_TO_END.iter().map(|&(name, unit)| (name, value(name), unit)).collect();
    (metrics, out)
}

/// Work done only in a traced run, after the timed region, to give the
/// ratios their bases.
struct SidePasses {
    /// `exec_plain`: nanoseconds per instruction under the interpreter.
    interp_ns_per_instr: f64,
    /// `probe_hot`: uninstrumented execution seconds per module.
    plain_exec_s: Vec<f64>,
    /// `cold_ingest`: seconds of standalone validation per round.
    validate_s: f64,
}

impl SidePasses {
    fn run(bench: &Bench<'_>) -> Result<SidePasses, String> {
        let mut side =
            SidePasses { interp_ns_per_instr: 0.0, plain_exec_s: Vec::new(), validate_s: 0.0 };
        match bench.workload {
            Workload::ExecPlain => {
                let (exec_s, instrs) = workloads::interpreter_pass(bench)?;
                side.interp_ns_per_instr = exec_s * 1e9 / instrs as f64;
            }
            Workload::ProbeHot => side.plain_exec_s = workloads::plain_pass(bench, 3)?,
            Workload::ColdIngest => side.validate_s = workloads::validate_pass(bench)?,
            Workload::ProbeChurn | Workload::ServeMixed => {}
        }
        Ok(side)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(
    bench: &Bench<'_>,
    sink: &Sink,
    rec: &Recorder,
    marks: &[Mark],
    side: &SidePasses,
) -> Metrics {
    let rounds = (marks.len() - 1) as f64;
    // Rounds 2, 4, … were traced (marks index = rounds completed so far).
    let round_wall = |r: usize| marks[r].wall_s - marks[r - 1].wall_s;
    let traced: Vec<usize> = (1..marks.len()).filter(|r| r % 2 == 0).collect();
    let untraced: Vec<usize> = (1..marks.len()).filter(|r| r % 2 == 1).collect();
    let traced_rounds = traced.len() as f64;
    let traced_wall: f64 = traced.iter().map(|&r| round_wall(r)).sum();
    let walls = |rs: &[usize]| rs.iter().map(|&r| round_wall(r)).collect::<Vec<_>>();
    // Same jobs per round on both arms, so wall ratio = throughput ratio.
    let trace_overhead_ratio = ratio(median(&walls(&untraced)), median(&walls(&traced)));

    let t = &sink.tally;
    // Busy seconds per round come from traced rounds only; counts come
    // from every round (they are the same in each).
    let span_s = |name: &str| rec.total_s(name) / traced_rounds;
    let count = |total: u64| total as f64 / rounds;
    let exec_s = span_s("core.exec");
    let exec_instrs = count(t.exec_instrs);

    // Execution seconds per (module, kind) from the traced jobs' spans,
    // against the uninstrumented base: the paper's overhead axis, as a
    // per-kernel geometric mean.
    let overhead = |kind: Kind| {
        let mut per_module: Vec<(f64, u32)> = vec![(0.0, 0); side.plain_exec_s.len()];
        for s in rec.spans().iter().filter(|s| s.name == "core.exec") {
            let (module, role) = sink.meta[s.job as usize];
            if role == Role::Hot(kind) {
                per_module[module].0 += (s.end_ns - s.start_ns) as f64 / 1e9;
                per_module[module].1 += 1;
            }
        }
        let ratios: Vec<f64> = per_module
            .iter()
            .zip(&side.plain_exec_s)
            .filter(|((_, n), base)| *n > 0 && **base > 0.0)
            .map(|((sum, n), base)| sum / f64::from(*n) / base)
            .collect();
        geomean(&ratios)
    };
    // What the probes cost per fire: instrumented execution time beyond
    // the same jobs' uninstrumented time.
    let plain_round_s: f64 = bench
        .specs
        .iter()
        .filter(|s| matches!(s.role, Role::Hot(_)))
        .map(|s| side.plain_exec_s.get(s.module).copied().unwrap_or(0.0))
        .sum();
    let fires = count(t.fires);
    let ns_per_fire =
        if plain_round_s > 0.0 { ratio((exec_s - plain_round_s) * 1e9, fires) } else { 0.0 };

    let queue = sorted_samples(&sink.queue_ms);
    let run = sorted_samples(&sink.run_ms);
    let total_wall = marks[marks.len() - 1].wall_s;
    let total_cpu = marks[marks.len() - 1].cpu_s - marks[0].cpu_s;
    let serve = bench.workload == Workload::ServeMixed;
    let lookups = t.cache_hits + t.cache_misses;

    let value = |name: &str| match name {
        "wasm.decode_s" => span_s("wasm.decode"),
        "wasm.decode_mb_per_s" => ratio(count(t.bytes_in) / 1e6, span_s("wasm.decode")),
        "wasm.validate_s" => side.validate_s,
        "wasm.bytes_in" => count(t.bytes_in),
        "core.artifact_s" => span_s("core.artifact"),
        "core.lower_s" => span_s("core.lower"),
        "core.link_s" => span_s("core.link"),
        "core.instantiate_s" => span_s("core.instantiate"),
        "core.attach_s" => span_s("core.attach"),
        "core.detach_s" => span_s("core.detach"),
        "core.exec_s" => exec_s,
        "core.report_s" => span_s("core.report"),
        "core.exec_instrs" => exec_instrs,
        // Served jobs execute inside the engine's workers, where the bench
        // has no span; their `pool.run` spans include scheduling gaps.
        "core.exec_ns_per_instr" => ratio(exec_s * 1e9, exec_instrs),
        "core.exec_interp_ns_per_instr" => side.interp_ns_per_instr,
        "core.probe_fires" => count(t.stats.probe_fires),
        "core.global_fires" => count(t.stats.global_fires),
        "core.compiles" => count(t.stats.compiles),
        "core.tier_ups" => count(t.stats.tier_ups),
        "core.deopts" => count(t.stats.deopts),
        "core.invalidation_passes" => count(t.stats.invalidation_passes),
        "core.suspensions" => count(t.stats.suspensions),
        "core.functions_lowered" => count(t.stats.functions_lowered + t.lowered_ahead),
        "core.overlay_copies" => count(t.stats.overlay_copies),
        "core.overlay_bytes_max" => t.overlay_bytes_max as f64,
        "core.fuel_consumed" => count(t.stats.fuel_consumed),
        "monitors.fires" => fires,
        "monitors.ns_per_fire" => ns_per_fire,
        "monitors.hotness_overhead_x" => overhead(Kind::Hotness),
        "monitors.branch_overhead_x" => overhead(Kind::Branch),
        "script.compile_s" => span_s("script.compile"),
        "script.attach_s" => span_s("script.attach"),
        "script.overhead_x" => overhead(Kind::Script),
        "trace.events" => count(t.trace_events),
        "trace.bytes" => count(t.trace_bytes),
        "trace.bytes_per_event" => ratio(t.trace_bytes as f64, t.trace_events as f64),
        "trace.overhead_x" => overhead(Kind::Trace),
        "pool.cache_lookup_s" => span_s("pool.cache_lookup"),
        "pool.cache_hits" => count(t.cache_hits),
        "pool.cache_misses" => count(t.cache_misses),
        "pool.cache_hit_ratio" => ratio(t.cache_hits as f64, lookups as f64),
        "pool.submit_s" => span_s("pool.submit"),
        "pool.rejected" => count(t.rejected),
        "pool.queue_wait_p50_ms" => percentile(&queue, 0.50),
        "pool.queue_wait_p99_ms" => percentile(&queue, 0.99),
        "pool.run_p50_ms" => percentile(&run, 0.50),
        "pool.slices" => count(t.slices),
        "pool.slices_per_job" => ratio(t.slices as f64, t.jobs as f64),
        "pool.steals" => count(t.steals),
        "pool.migrations" => count(t.migrations),
        "pool.queue_depth_max" => t.queue_depth_max as f64,
        // Process CPU (workers plus the driver's decode/submit work) over
        // the wall time the workers had.
        "pool.worker_busy_ratio" if serve => ratio(total_cpu, total_wall * bench.workers as f64),
        "pool.worker_busy_ratio" => 0.0,
        "pool.fuel_billed" => count(t.fuel_billed),
        "bench.trace_overhead_ratio" => trace_overhead_ratio,
        "bench.driver_idle_ratio" => ratio(rec.total_s("pool.wait"), traced_wall),
        other => unreachable!("no per-layer metric {other}"),
    };
    PER_LAYER.iter().map(|&(name, unit)| (name, value(name), unit)).collect()
}
