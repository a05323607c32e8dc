//! The five workloads. The unit of work is the **job**: wasm bytes + entry
//! argument + instrumentation spec in, verified result + monitor report
//! out. A **round** runs every job of a workload once, in seeded order, so
//! every round is the same fixed work and exact counts repeat round after
//! round; the timed region is as many whole rounds as fit in `--seconds`.
//!
//! Every engine call goes through `surface`, with a span around it.

use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Instant;

use crate::inputs::{coverage_digest, Expect, Input, Inputs};
use crate::spans::{Open, Recorder};
use crate::stats::Rng;
use crate::surface as s;

/// `probe_churn` runs in slices of this much fuel and changes
/// instrumentation every `CHURN_PERIOD` slices.
pub const CHURN_FUEL: u64 = 5_000;
const CHURN_PERIOD: u64 = 2;

/// `serve_mixed`: the engine's fuel slice, how many jobs the driver keeps
/// in flight (callers wait for their report, so the loop is closed), and
/// how many times a round repeats each tenant's job list.
pub const SERVE_FUEL: u64 = 10_000;
const SERVE_IN_FLIGHT: usize = 8;
const SERVE_REPS: usize = 5;
/// Interactive and background tenants have three modules each against
/// batch's 29; repeating them keeps the three tenants' job counts level.
const SERVE_SMALL_TENANT_REPS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExecPlain,
    ProbeHot,
    ProbeChurn,
    ColdIngest,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "exec_plain" => Workload::ExecPlain,
            "probe_hot" => Workload::ProbeHot,
            "probe_churn" => Workload::ProbeChurn,
            "cold_ingest" => Workload::ColdIngest,
            "serve_mixed" => Workload::ServeMixed,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecPlain => "exec_plain",
            Workload::ProbeHot => "probe_hot",
            Workload::ProbeChurn => "probe_churn",
            Workload::ColdIngest => "cold_ingest",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tenant {
    Interactive,
    Batch,
    Background,
}

impl Tenant {
    fn name(self) -> &'static str {
        match self {
            Tenant::Interactive => "interactive",
            Tenant::Batch => "batch",
            Tenant::Background => "background",
        }
    }

    fn class(self) -> s::Class {
        match self {
            Tenant::Interactive => s::Class::High,
            Tenant::Batch => s::Class::Normal,
            Tenant::Background => s::Class::Low,
        }
    }
}

/// The instrumentation spec of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Plain,
    Hot(s::Kind),
    /// The two churn schedules differ in which counter runs first.
    Churn {
        global_first: bool,
    },
    Cold,
    Serve(Tenant),
}

/// One job of a round.
#[derive(Clone, Copy)]
pub struct Spec<'a> {
    pub input: &'a Input,
    /// Index of `input` in the manifest.
    pub module: usize,
    pub n: i32,
    pub expect: &'a Expect,
    pub role: Role,
}

/// Exact counts (and the engine's own counters) summed over jobs.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub jobs: u64,
    pub failed: u64,
    pub bytes_in: u64,
    pub exec_instrs: u64,
    pub fires: u64,
    pub trace_events: u64,
    pub trace_bytes: u64,
    pub stats: s::Stats,
    pub overlay_bytes_max: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Functions lowered ahead of time by `lower_all` (cold path); the
    /// engine's own counter only sees lazy lowering.
    pub lowered_ahead: u64,
    pub rejected: u64,
    pub slices: u64,
    pub migrations: u64,
    pub fuel_billed: u64,
    pub steals: u64,
    pub queue_depth_max: u64,
}

/// Everything a run collects besides spans. Latencies are kept as `f32`
/// milliseconds so the benchmark's own bookkeeping stays small beside the
/// engine's memory in `peak_rss_mb`.
#[derive(Default)]
pub struct Sink {
    pub tally: Tally,
    pub job_ms: Vec<f32>,
    /// Latency, admission → outcome, of `serve_mixed`'s interactive
    /// tenant. Empty on the single-class workloads, where every job is the
    /// highest-priority class and `job_ms` serves.
    pub hi_ms: Vec<f32>,
    pub queue_ms: Vec<f32>,
    pub run_ms: Vec<f32>,
    pub failures: Vec<String>,
    /// Job id → `(module index, role)` for jobs of traced rounds, so their
    /// spans can be grouped by kernel.
    pub meta: Vec<(usize, Role)>,
}

/// Room for the samples of the longest allowed run of the fastest
/// workload (60 s of `cold_ingest`).
pub const SAMPLE_RESERVE: usize = 1 << 21;

impl Sink {
    /// The sink of the timed region: its buffers are reserved once and
    /// never grow, so `peak_rss_mb` does not depend on where a doubling
    /// `Vec` happened to be when the run ended, and the benchmark frees no
    /// large block while it measures (glibc adapts its mmap threshold to
    /// the blocks a process frees, which would feed back into how the
    /// engine's linear memories are allocated). Untouched reserve costs no
    /// resident memory.
    pub fn reserved() -> Sink {
        Sink {
            job_ms: Vec::with_capacity(SAMPLE_RESERVE),
            hi_ms: Vec::with_capacity(SAMPLE_RESERVE),
            queue_ms: Vec::with_capacity(SAMPLE_RESERVE),
            run_ms: Vec::with_capacity(SAMPLE_RESERVE),
            meta: Vec::with_capacity(SAMPLE_RESERVE),
            ..Sink::default()
        }
    }

    /// The id spans of this job carry; only traced jobs are remembered.
    fn next_job(&mut self, spec: &Spec<'_>, traced: bool) -> u32 {
        if traced {
            self.meta.push((spec.module, spec.role));
        }
        self.meta.len().saturating_sub(1) as u32
    }

    fn finish(&mut self, spec: &Spec<'_>, ms: f64, outcome: Result<(), String>) {
        self.tally.jobs += 1;
        self.job_ms.push(ms as f32);
        if let Err(why) = outcome {
            self.tally.failed += 1;
            if self.failures.len() < 20 {
                self.failures
                    .push(format!("{}({}) as {:?}: {why}", spec.input.name, spec.n, spec.role));
            }
        }
    }
}

fn span<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    let open = rec.begin(name);
    let v = f();
    rec.end(open);
    v
}

fn check<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Which counter `probe_churn` currently has installed.
enum Counter {
    Global(s::ProbeId, Rc<Cell<u64>>),
    Hotness(s::Attached),
}

/// A served job between submission and outcome.
struct InFlight<'a> {
    spec: Spec<'a>,
    handle: s::Handle,
    root: Open,
    /// Bytes-in → admitted, which the engine's own latency does not see.
    pre_ms: f64,
    admitted_ns: u64,
}

pub struct Bench<'a> {
    pub workload: Workload,
    pub specs: Vec<Spec<'a>>,
    config: s::Config,
    cache: s::Cache,
    engine: Option<s::Engine>,
    branch_script: Option<s::ScriptFactory>,
    pub workers: usize,
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl<'a> Bench<'a> {
    /// Builds the workload's job list and warms what a user's steady
    /// state has warm: the artifact cache, the shared baseline JIT code and
    /// (for `serve_mixed`) a running engine — by one untimed round, whose
    /// jobs are verified like any other. This whole function is `setup_s`.
    pub fn setup(workload: Workload, inputs: &'a Inputs) -> Result<(Bench<'a>, Sink), String> {
        let mut specs = Vec::new();
        let mut add = |role_name: &str, roles: &[Role], reps: usize| {
            for (module, input, n) in inputs.with_role(role_name) {
                for &role in roles {
                    for _ in 0..reps {
                        specs.push(Spec { input, module, n, expect: input.expect(n), role });
                    }
                }
            }
        };
        match workload {
            Workload::ExecPlain => add("exec", &[Role::Plain], 1),
            Workload::ProbeHot => add("exec", &s::Kind::ALL.map(Role::Hot), 1),
            Workload::ProbeChurn => add(
                "churn",
                &[Role::Churn { global_first: true }, Role::Churn { global_first: false }],
                1,
            ),
            Workload::ColdIngest => add("cold", &[Role::Cold], 1),
            Workload::ServeMixed => {
                let small = SERVE_REPS * SERVE_SMALL_TENANT_REPS;
                add("interactive", &[Role::Serve(Tenant::Interactive)], small);
                add("batch", &[Role::Serve(Tenant::Batch)], SERVE_REPS);
                add("background", &[Role::Serve(Tenant::Background)], small);
            }
        }
        if specs.is_empty() {
            return Err(format!("the manifest has no module for {}", workload.name()));
        }
        let workers = host_parallelism().min(2);
        let serve = workload == Workload::ServeMixed;
        let bench = Bench {
            workload,
            specs,
            config: s::default_config(),
            cache: s::cache_new(),
            engine: serve.then(|| s::serve_engine(workers, SERVE_FUEL)),
            branch_script: if serve { Some(s::script_factory(s::BRANCH_SCRIPT)?) } else { None },
            workers,
        };
        let mut warm = Sink::default();
        bench.round(&mut Rng::new(0), &mut Recorder::new(), &mut warm);
        Ok((bench, warm))
    }

    pub fn jobs_per_round(&self) -> usize {
        self.specs.len()
    }

    /// Stops the serving engine's workers and waits for them.
    pub fn shutdown(self) {
        if let Some(engine) = self.engine {
            s::shutdown(engine);
        }
    }

    /// One round: every job once, in an order drawn from `rng`.
    pub fn round(&self, rng: &mut Rng, rec: &mut Recorder, sink: &mut Sink) {
        if self.workload == Workload::ServeMixed {
            self.serve_round(&self.serve_order(rng), rec, sink);
            return;
        }
        let mut order: Vec<usize> = (0..self.specs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let spec = self.specs[i];
            let job = sink.next_job(&spec, rec.on);
            let started = Instant::now();
            let root = rec.begin_job(job);
            let outcome = self.run_local(&spec, &self.config, rec, &mut sink.tally);
            rec.end(root);
            sink.finish(&spec, started.elapsed().as_secs_f64() * 1e3, outcome);
        }
    }

    /// `serve_mixed`'s arrival order: the three tenants take turns, and
    /// the seed decides which of a tenant's jobs comes when. How the
    /// classes interleave sets the queueing the latency metrics measure, so
    /// it is the same for every seed; only the kernels behind it move.
    fn serve_order(&self, rng: &mut Rng) -> Vec<usize> {
        let mut queues = [Tenant::Interactive, Tenant::Batch, Tenant::Background].map(|t| {
            let mut q: Vec<usize> =
                (0..self.specs.len()).filter(|&i| self.specs[i].role == Role::Serve(t)).collect();
            rng.shuffle(&mut q);
            q
        });
        let mut order = Vec::with_capacity(self.specs.len());
        while order.len() < self.specs.len() {
            order.extend(queues.iter_mut().filter_map(Vec::pop));
        }
        order
    }

    fn run_local(
        &self,
        spec: &Spec<'_>,
        config: &s::Config,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        tally.bytes_in += spec.input.bytes.len() as u64;
        tally.exec_instrs += spec.expect.instrs;
        match spec.role {
            Role::Plain => self.plain_job(spec, config, rec, tally),
            Role::Hot(kind) => self.hot_job(spec, kind, rec, tally),
            Role::Churn { global_first } => self.churn_job(spec, global_first, rec, tally),
            Role::Cold => cold_job(spec, config, rec, tally),
            Role::Serve(_) => unreachable!("served jobs run through the engine"),
        }
    }

    /// The warm path every cached workload starts with:
    /// `decode → ArtifactCache::lookup (hit) → link → Process::instantiate`.
    fn warm_process(
        &self,
        spec: &Spec<'_>,
        config: &s::Config,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<s::Process, String> {
        let module = span(rec, "wasm.decode", || s::decode(&spec.input.bytes))?;
        let (artifact, hit) =
            span(rec, "pool.cache_lookup", || s::cache_lookup(&self.cache, &module))?;
        if hit {
            tally.cache_hits += 1;
        } else {
            tally.cache_misses += 1;
        }
        let linker = span(rec, "core.link", || s::linker_for(&module, spec.input.imports))?;
        span(rec, "core.instantiate", || s::instantiate(&artifact, config, &linker))
    }

    fn plain_job(
        &self,
        spec: &Spec<'_>,
        config: &s::Config,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let mut p = self.warm_process(spec, config, rec, tally)?;
        let values = span(rec, "core.exec", || s::invoke_run(&mut p, spec.n))?;
        tally.stats.merge(&s::stats(&p));
        span(rec, "bench.verify", || {
            check("result", s::result_string(&values), spec.expect.result.clone())
        })
    }

    fn hot_job(
        &self,
        spec: &Spec<'_>,
        kind: s::Kind,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let mut p = self.warm_process(spec, &self.config, rec, tally)?;
        let attached = match kind {
            s::Kind::Hotness => span(rec, "core.attach", || s::attach_hotness(&mut p)),
            s::Kind::Branch => span(rec, "core.attach", || s::attach_branch(&mut p)),
            s::Kind::Trace => span(rec, "core.attach", || s::attach_trace(&mut p)),
            s::Kind::Script => {
                let script = span(rec, "script.compile", || s::compile_script(s::HOT_SCRIPT))?;
                span(rec, "script.attach", || s::attach_script(&mut p, script))
            }
        }?;
        let values = span(rec, "core.exec", || s::invoke_run(&mut p, spec.n))?;
        span(rec, "core.detach", || s::detach(&mut p, &attached))?;
        let report = span(rec, "core.report", || s::report(&attached));
        tally.stats.merge(&s::stats(&p));

        let verify = rec.begin("bench.verify");
        let e = spec.expect;
        let want = match kind {
            s::Kind::Hotness | s::Kind::Script => e.instrs,
            s::Kind::Branch => e.branches,
            s::Kind::Trace => e.trace_events,
        };
        let total = s::report_total(&report).ok_or("report has no total")?;
        tally.fires += total;
        check("result", s::result_string(&values), e.result.clone())?;
        check("report total", total, want)?;
        check("probed locations after detach", s::probed_location_count(&p), 0)?;
        if kind == s::Kind::Trace {
            let bytes = s::report_trace_bytes(&report).ok_or("report has no trace bytes")?;
            tally.trace_events += total;
            tally.trace_bytes += bytes;
            check("trace bytes", bytes, e.trace_bytes)?;
            check("trace stream length", s::check_trace_stream(&attached, total)?, bytes)?;
        }
        rec.end(verify);
        Ok(())
    }

    /// Instrumentation as *writes*: the job runs in `CHURN_FUEL` slices
    /// and every `CHURN_PERIOD` slices swaps its instrumentation. Two
    /// things are always installed, so the totals are exact no matter
    /// where the slice boundaries fall:
    ///
    /// * a `CoverageMonitor` (self-removing probes), detached and replaced
    ///   by a fresh one at each change — the union of what they saw must
    ///   be the module's full coverage;
    /// * exactly one instruction counter, alternately a global
    ///   `CountProbe` (dispatch-table switch, JIT frames deoptimize) and a
    ///   `HotnessMonitor` (local probes, copy-on-write overlays) — their
    ///   counts must add up to the instructions executed.
    fn churn_job(
        &self,
        spec: &Spec<'_>,
        global_first: bool,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let mut p = self.warm_process(spec, &self.config, rec, tally)?;
        let mut covered: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut counted = 0u64;
        let mut overlay_max = 0usize;

        let mut coverage = span(rec, "core.attach", || s::attach_coverage(&mut p))?;
        let mut counter = install_counter(&mut p, global_first, rec)?;
        let mut slices = 1u64;
        let mut out = span(rec, "core.exec", || s::run_bounded(&mut p, spec.n, CHURN_FUEL))?;
        while out.is_none() {
            if slices.is_multiple_of(CHURN_PERIOD) {
                overlay_max = overlay_max.max(s::resident_overlay_bytes(&p));
                span(rec, "core.detach", || s::detach(&mut p, &coverage))?;
                covered.extend(s::covered_sites(&coverage));
                coverage = span(rec, "core.attach", || s::attach_coverage(&mut p))?;
                let next_is_global = matches!(counter, Counter::Hotness(_));
                counted += remove_counter(&mut p, counter, rec)?;
                counter = install_counter(&mut p, next_is_global, rec)?;
            }
            out = span(rec, "core.exec", || s::resume(&mut p, CHURN_FUEL))?;
            slices += 1;
        }
        overlay_max = overlay_max.max(s::resident_overlay_bytes(&p));
        span(rec, "core.detach", || s::detach(&mut p, &coverage))?;
        covered.extend(s::covered_sites(&coverage));
        counted += remove_counter(&mut p, counter, rec)?;
        tally.stats.merge(&s::stats(&p));
        tally.fires += counted;
        tally.overlay_bytes_max = tally.overlay_bytes_max.max(overlay_max as u64);

        let verify = rec.begin("bench.verify");
        let e = spec.expect;
        let sites: Vec<(u32, u32)> = covered.into_iter().collect();
        check("result", s::result_string(&out.unwrap_or_default()), e.result.clone())?;
        check("instructions counted", counted, e.instrs)?;
        check("covered sites", sites.len() as u64, e.coverage_sites)?;
        check("coverage digest", coverage_digest(&sites), e.coverage_digest.clone())?;
        check("probed locations after detach", s::probed_location_count(&p), 0)?;
        check("overlay bytes after detach", s::resident_overlay_bytes(&p), 0)?;
        rec.end(verify);
        Ok(())
    }

    /// A closed loop with `SERVE_IN_FLIGHT` callers' worth of jobs in
    /// flight: the driver submits until the window is full, then waits for
    /// the oldest job's report before submitting the next. The round ends
    /// drained, so rounds do not overlap.
    fn serve_round(&self, order: &[usize], rec: &mut Recorder, sink: &mut Sink) {
        let engine = self.engine.as_ref().expect("serve_mixed has an engine");
        let before = s::engine_stats(engine);
        let fuel_before: u64 = s::tenant_stats(engine).iter().map(|t| t.fuel_spent).sum();
        let mut window: VecDeque<InFlight<'a>> = VecDeque::new();
        for &i in order {
            if window.len() == SERVE_IN_FLIGHT {
                reap(window.pop_front().expect("window is full"), rec, sink);
            }
            let spec = self.specs[i];
            let Role::Serve(tenant) = spec.role else { unreachable!("serve specs only") };
            let job = sink.next_job(&spec, rec.on);
            let started = Instant::now();
            let root = rec.open_root(job);
            sink.tally.bytes_in += spec.input.bytes.len() as u64;
            sink.tally.exec_instrs += spec.expect.instrs;

            let t = rec.clock_ns();
            let module = s::decode(&spec.input.bytes);
            rec.synthetic("wasm.decode", root, t, rec.clock_ns() - t);
            let submitted = module.and_then(|module| {
                let monitor = match tenant {
                    Tenant::Interactive => s::ServeMonitor::Script(
                        self.branch_script.clone().expect("serve_mixed has its script"),
                    ),
                    Tenant::Batch => s::ServeMonitor::Hotness,
                    Tenant::Background => s::ServeMonitor::None,
                };
                let job = s::serve_job(
                    &spec.input.name,
                    module,
                    spec.n,
                    tenant.name(),
                    tenant.class(),
                    spec.input.imports,
                    monitor,
                );
                let t = rec.clock_ns();
                let handle = s::submit(engine, job);
                rec.synthetic("pool.submit", root, t, rec.clock_ns() - t);
                handle
            });
            match submitted {
                Ok(handle) => window.push_back(InFlight {
                    spec,
                    handle,
                    root,
                    pre_ms: started.elapsed().as_secs_f64() * 1e3,
                    admitted_ns: rec.clock_ns(),
                }),
                Err(why) => {
                    rec.close(root);
                    sink.tally.rejected += 1;
                    sink.finish(&spec, started.elapsed().as_secs_f64() * 1e3, Err(why));
                }
            }
        }
        while let Some(flight) = window.pop_front() {
            reap(flight, rec, sink);
        }
        let after = s::engine_stats(engine);
        let fuel_after: u64 = s::tenant_stats(engine).iter().map(|t| t.fuel_spent).sum();
        let tally = &mut sink.tally;
        tally.cache_hits += after.artifact_cache_hits - before.artifact_cache_hits;
        tally.cache_misses += after.artifact_cache_misses - before.artifact_cache_misses;
        tally.steals += after.steals - before.steals;
        tally.queue_depth_max = tally.queue_depth_max.max(after.queue_depth_max);
        tally.fuel_billed += fuel_after - fuel_before;
    }
}

fn install_counter(
    p: &mut s::Process,
    global: bool,
    rec: &mut Recorder,
) -> Result<Counter, String> {
    span(rec, "core.attach", || {
        if global {
            s::add_global_count(p).map(|(id, cell)| Counter::Global(id, cell))
        } else {
            s::attach_hotness(p).map(Counter::Hotness)
        }
    })
}

/// Removes the counter and returns what it counted.
fn remove_counter(p: &mut s::Process, counter: Counter, rec: &mut Recorder) -> Result<u64, String> {
    match counter {
        Counter::Global(id, cell) => {
            span(rec, "core.detach", || s::remove_probe(p, id))?;
            Ok(cell.get())
        }
        Counter::Hotness(attached) => {
            span(rec, "core.detach", || s::detach(p, &attached))?;
            let report = span(rec, "core.report", || s::report(&attached));
            s::report_total(&report).ok_or_else(|| "hotness report has no total".into())
        }
    }
}

/// Nothing cached, nothing shared:
/// `decode → ModuleArtifact::new → lower_all → link → instantiate → run`.
fn cold_job(
    spec: &Spec<'_>,
    config: &s::Config,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<(), String> {
    let module = span(rec, "wasm.decode", || s::decode(&spec.input.bytes))?;
    let artifact = span(rec, "core.artifact", || s::artifact_new(module))?;
    tally.lowered_ahead += span(rec, "core.lower", || s::lower_all(&artifact));
    let linker = span(rec, "core.link", || {
        s::linker_for(s::artifact_module(&artifact), spec.input.imports)
    })?;
    let mut p = span(rec, "core.instantiate", || s::instantiate(&artifact, config, &linker))?;
    let values = span(rec, "core.exec", || s::invoke_run(&mut p, spec.n))?;
    tally.stats.merge(&s::stats(&p));
    span(rec, "bench.verify", || {
        check("result", s::result_string(&values), spec.expect.result.clone())
    })
}

/// Waits for a served job's outcome and verifies it.
fn reap(flight: InFlight<'_>, rec: &mut Recorder, sink: &mut Sink) {
    let t = rec.clock_ns();
    let outcome = s::wait(&flight.handle);
    rec.synthetic("pool.wait", flight.root, t, rec.clock_ns() - t);
    let queue_ns = outcome.queue_delay.as_nanos() as u64;
    let total_ns = outcome.latency.as_nanos() as u64;
    rec.synthetic("pool.queue_wait", flight.root, flight.admitted_ns, queue_ns);
    rec.synthetic("pool.run", flight.root, flight.admitted_ns + queue_ns, total_ns - queue_ns);
    rec.close(flight.root);

    let served_ms = outcome.latency.as_secs_f64() * 1e3;
    let queue_ms = outcome.queue_delay.as_secs_f64() * 1e3;
    sink.queue_ms.push(queue_ms as f32);
    sink.run_ms.push((served_ms - queue_ms) as f32);
    let Role::Serve(tenant) = flight.spec.role else { unreachable!("serve specs only") };
    if tenant == Tenant::Interactive {
        sink.hi_ms.push(served_ms as f32);
    }
    sink.tally.stats.merge(&outcome.stats);
    sink.tally.slices += outcome.slices;
    sink.tally.migrations += outcome.migrations;

    let e = flight.spec.expect;
    let verdict = s::outcome_result(&outcome).and_then(|result| {
        check("result", result, e.result.clone())?;
        let total = outcome.report.as_ref().and_then(s::report_total);
        sink.tally.fires += total.unwrap_or(0);
        // The same kernel must report the same totals here as in
        // `probe_hot`: both are checked against the one manifest.
        match tenant {
            Tenant::Interactive => check("branch script total", total, Some(e.branches)),
            Tenant::Batch => check("hotness total", total, Some(e.instrs)),
            Tenant::Background => check("report", outcome.report.is_none(), true),
        }
    });
    // Bytes-in → report-out: what the driver spent before admission plus
    // what the engine measured from admission to finalization. (Waiting
    // behind older jobs in the driver's own window is not the job's.)
    sink.finish(&flight.spec, flight.pre_ms + served_ms, verdict);
}

/// `exec_plain`'s kernels once under `EngineConfig::interpreter()`:
/// `(exec seconds, instructions)`.
pub fn interpreter_pass(bench: &Bench<'_>) -> Result<(f64, u64), String> {
    let mut rec = Recorder::new();
    rec.on = true;
    let mut tally = Tally::default();
    let config = s::interpreter_config();
    for spec in &bench.specs {
        bench.run_local(spec, &config, &mut rec, &mut tally)?;
    }
    Ok((rec.total_s("core.exec"), tally.exec_instrs))
}

/// Uninstrumented execution seconds of each module of the workload (mean
/// of `reps` runs), indexed like the manifest and 0 for modules the
/// workload does not use — the base of every `*.overhead_x`.
pub fn plain_pass(bench: &Bench<'_>, reps: u32) -> Result<Vec<f64>, String> {
    let modules = bench.specs.iter().map(|s| s.module).max().map_or(0, |m| m + 1);
    let mut exec_s = vec![0.0; modules];
    for first in &bench.specs {
        if exec_s[first.module] != 0.0 {
            continue;
        }
        let spec = Spec { role: Role::Plain, ..*first };
        let mut rec = Recorder::new();
        rec.on = true;
        for _ in 0..reps {
            bench.run_local(&spec, &bench.config, &mut rec, &mut Tally::default())?;
        }
        exec_s[first.module] = rec.total_s("core.exec") / f64::from(reps);
    }
    Ok(exec_s)
}

/// A standalone `validate` of every module of the workload, once: the
/// share of `core.artifact_s` that is validation.
pub fn validate_pass(bench: &Bench<'_>) -> Result<f64, String> {
    let mut rec = Recorder::new();
    rec.on = true;
    for spec in &bench.specs {
        let module = s::decode(&spec.input.bytes)?;
        span(&mut rec, "wasm.validate", || s::validate(&module))?;
    }
    Ok(rec.total_s("wasm.validate"))
}
