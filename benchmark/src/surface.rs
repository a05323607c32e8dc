//! The **pinned API surface**: every call the benchmark makes into the
//! wizard-rs crates goes through this file, one thin function per engine
//! entry point, so a later PR that renames or deletes an engine API
//! touches the benchmark here and nowhere else. The workloads put a span
//! around each of these calls; nothing here times anything.
//!
//! Deliberately *not* used: `Pool`, `Dispatch::{Lowered, Register}`, the
//! `reg_*` counters and the `wizard-bench` crate — ROADMAP items 1–3 may
//! delete them without touching the benchmark.

use std::sync::Arc;

use wizard_engine::store::Linker;
use wizard_engine::{
    CountProbe, EngineConfig, EngineStats, ModuleArtifact, MonitorHandle, MonitorRef, Report,
    RunOutcome, Shims, Value,
};
use wizard_monitors::{BranchMonitor, CoverageMonitor, HotnessMonitor};
use wizard_pool::{
    ArtifactCache, Job, JobHandle, MonitorFactory, Priority, ServeConfig, ServeEngine,
    ServeOutcome, TenantStats,
};
use wizard_script::ScriptMonitor;
use wizard_trace::format::decode_trace;
use wizard_trace::StreamingTraceMonitor;
use wizard_wasm::module::Module;

pub use wizard_engine::{EngineConfig as Config, EngineStats as Stats, ProbeId, Process};
pub use wizard_pool::{ArtifactCache as Cache, Priority as Class};

pub type Artifact = Arc<ModuleArtifact>;

/// The script `probe_hot` attaches: the scripted spelling of hotness.
pub const HOT_SCRIPT: &str = "monitor \"script-hotness\"\n\
     match * do inc exec[site]\n\
     report \"summary\" total \"instructions\" exec";

/// The script `serve_mixed`'s interactive tenant attaches per job.
pub const BRANCH_SCRIPT: &str = "monitor \"script-branches\"\n\
     match branch do inc n[site]\n\
     report \"summary\" total \"branches\" n";

// ---- wasm ----

pub fn decode(bytes: &[u8]) -> Result<Module, String> {
    wizard_wasm::decode::decode(bytes).map_err(|e| e.to_string())
}

pub fn validate(module: &Module) -> Result<(), String> {
    wizard_wasm::validate::validate(module).map(|_| ()).map_err(|e| e.to_string())
}

// ---- core: artifact, link, instantiate, execute ----

pub fn default_config() -> EngineConfig {
    EngineConfig::default()
}

pub fn interpreter_config() -> EngineConfig {
    EngineConfig::interpreter()
}

/// The reference dispatch loop expected values are computed under.
#[cfg(feature = "gen-inputs")]
pub fn reference_config() -> EngineConfig {
    EngineConfig::interpreter_bytecode()
}

pub fn artifact_new(module: Module) -> Result<Artifact, String> {
    ModuleArtifact::new(module).map(Arc::new).map_err(|e| e.to_string())
}

pub fn artifact_module(artifact: &Artifact) -> &Module {
    artifact.module()
}

/// Lowers every function now; returns how many functions that is.
pub fn lower_all(artifact: &Artifact) -> u64 {
    artifact.lower_all();
    artifact.num_local_funcs() as u64
}

/// The linker a module needs: shim-built for importing modules, empty
/// otherwise.
pub fn linker_for(module: &Module, imports: bool) -> Result<Linker, String> {
    if imports {
        Shims::standard().linker_for(module).map_err(|e| e.to_string())
    } else {
        Ok(Linker::new())
    }
}

pub fn instantiate(
    artifact: &Artifact,
    config: &EngineConfig,
    linker: &Linker,
) -> Result<Process, String> {
    Process::instantiate(Arc::clone(artifact), config.clone(), linker).map_err(|e| e.to_string())
}

/// Every frozen module exports `run(n: i32)`.
pub fn invoke_run(process: &mut Process, n: i32) -> Result<Vec<Value>, String> {
    process.invoke_export("run", &[Value::I32(n)]).map_err(|t| t.to_string())
}

/// First fuel slice of a bounded `run(n)`; `None` = out of fuel, resume.
pub fn run_bounded(process: &mut Process, n: i32, fuel: u64) -> Result<Option<Vec<Value>>, String> {
    process
        .run_export_bounded("run", &[Value::I32(n)], fuel)
        .map(RunOutcome::done)
        .map_err(|t| t.to_string())
}

pub fn resume(process: &mut Process, fuel: u64) -> Result<Option<Vec<Value>>, String> {
    process.resume(fuel).map(RunOutcome::done).map_err(|t| t.to_string())
}

pub fn stats(process: &Process) -> EngineStats {
    process.stats()
}

pub fn probed_location_count(process: &Process) -> usize {
    process.probed_location_count()
}

pub fn resident_overlay_bytes(process: &Process) -> usize {
    process.resident_overlay_bytes()
}

/// A result vector as the manifest spells it: `i32:9`, `f64:0x3ff0…`
/// (floats by bit pattern, so equality is exact).
pub fn result_string(values: &[Value]) -> String {
    let one = |v: &Value| match v {
        Value::I32(x) => format!("i32:{x}"),
        Value::I64(x) => format!("i64:{x}"),
        Value::F32(x) => format!("f32:{:#x}", x.to_bits()),
        Value::F64(x) => format!("f64:{:#x}", x.to_bits()),
    };
    values.iter().map(one).collect::<Vec<_>>().join(",")
}

// ---- monitors ----

/// The instrumentation kinds `probe_hot` rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `HotnessMonitor`: a Count probe on every instruction.
    Hotness,
    /// `BranchMonitor`: an Operand probe on every branch.
    Branch,
    /// `StreamingTraceMonitor::in_memory`: branch trace capture.
    Trace,
    /// `ScriptMonitor` over [`HOT_SCRIPT`].
    Script,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Hotness, Kind::Branch, Kind::Trace, Kind::Script];
}

/// A monitor attached to a process, kept typed so its products (report,
/// trace stream, covered set) stay reachable after detach.
pub enum Attached {
    Hotness(MonitorRef<HotnessMonitor>),
    Branch(MonitorRef<BranchMonitor>),
    Trace(MonitorRef<StreamingTraceMonitor>),
    Script(MonitorRef<ScriptMonitor>),
    Coverage(MonitorRef<CoverageMonitor>),
}

impl Attached {
    fn handle(&self) -> MonitorHandle {
        match self {
            Attached::Hotness(m) => m.handle(),
            Attached::Branch(m) => m.handle(),
            Attached::Trace(m) => m.handle(),
            Attached::Script(m) => m.handle(),
            Attached::Coverage(m) => m.handle(),
        }
    }
}

/// Parses and validates a script — the `script.compile_s` step.
pub fn compile_script(source: &str) -> Result<ScriptMonitor, String> {
    ScriptMonitor::from_source(source).map_err(|e| e.to_string())
}

pub fn attach_hotness(process: &mut Process) -> Result<Attached, String> {
    process.attach_monitor(HotnessMonitor::new()).map(Attached::Hotness).map_err(|e| e.to_string())
}

pub fn attach_branch(process: &mut Process) -> Result<Attached, String> {
    process.attach_monitor(BranchMonitor::new()).map(Attached::Branch).map_err(|e| e.to_string())
}

pub fn attach_trace(process: &mut Process) -> Result<Attached, String> {
    process
        .attach_monitor(StreamingTraceMonitor::in_memory())
        .map(Attached::Trace)
        .map_err(|e| e.to_string())
}

pub fn attach_script(process: &mut Process, script: ScriptMonitor) -> Result<Attached, String> {
    process.attach_monitor(script).map(Attached::Script).map_err(|e| e.to_string())
}

pub fn attach_coverage(process: &mut Process) -> Result<Attached, String> {
    process
        .attach_monitor(CoverageMonitor::new())
        .map(Attached::Coverage)
        .map_err(|e| e.to_string())
}

/// The monitor's structured report — the "report-out" half of a job.
pub fn report(attached: &Attached) -> Report {
    match attached {
        Attached::Hotness(m) => m.report(),
        Attached::Branch(m) => m.report(),
        Attached::Trace(m) => m.report(),
        Attached::Script(m) => m.report(),
        Attached::Coverage(m) => m.report(),
    }
}

pub fn detach(process: &mut Process, attached: &Attached) -> Result<(), String> {
    process.detach_monitor(attached.handle()).map_err(|e| e.to_string())
}

/// The one number each report is verified by, read out of the report
/// itself (not the monitor's accessors): instruction executions for
/// hotness and the hot script, branch executions for branch, the branch
/// script and trace.
pub fn report_total(report: &Report) -> Option<u64> {
    let (section, label) = match report.title.as_str() {
        "hotness" => ("summary", "total instruction executions"),
        "branch" => ("summary", "total branches"),
        "streaming-trace" => ("trace", "events"),
        "script-hotness" => ("summary", "instructions"),
        "script-branches" => ("summary", "branches"),
        _ => return None,
    };
    report.get(section)?.count_of(label)
}

/// Trace bytes as the report states them.
pub fn report_trace_bytes(report: &Report) -> Option<u64> {
    report.get("trace")?.count_of("bytes")
}

/// After detach: the captured stream must decode, and hold exactly the
/// events the report claims. Returns the stream length.
pub fn check_trace_stream(attached: &Attached, events: u64) -> Result<u64, String> {
    let Attached::Trace(m) = attached else {
        return Err("not a trace monitor".into());
    };
    let data = m.borrow().trace_data().ok_or("trace monitor has no in-memory stream")?;
    let (_, decoded) = decode_trace(&data).map_err(|e| format!("trace does not decode: {e}"))?;
    if decoded.len() as u64 != events {
        return Err(format!("trace decodes to {} events, report says {events}", decoded.len()));
    }
    Ok(data.len() as u64)
}

/// Sorted `(func, pc)` pairs a coverage monitor saw execute.
pub fn covered_sites(attached: &Attached) -> Vec<(u32, u32)> {
    let Attached::Coverage(m) = attached else {
        return Vec::new();
    };
    let mut v: Vec<(u32, u32)> = m.borrow().covered().into_iter().map(|l| (l.func, l.pc)).collect();
    v.sort_unstable();
    v
}

/// A global `CountProbe`: switches the interpreter to the instrumented
/// dispatch table and deoptimizes JIT frames. Returns the probe id and
/// the shared counter cell.
pub fn add_global_count(
    process: &mut Process,
) -> Result<(ProbeId, std::rc::Rc<std::cell::Cell<u64>>), String> {
    let probe = CountProbe::new();
    let cell = probe.cell();
    process.add_global_probe_val(probe).map(|id| (id, cell)).map_err(|e| e.to_string())
}

pub fn remove_probe(process: &mut Process, id: ProbeId) -> Result<(), String> {
    process.remove_probe(id).map_err(|e| e.to_string())
}

// ---- pool: artifact cache ----

pub fn cache_new() -> ArtifactCache {
    ArtifactCache::new()
}

/// `(artifact, hit)`.
pub fn cache_lookup(cache: &ArtifactCache, module: &Module) -> Result<(Artifact, bool), String> {
    cache.lookup(module).map_err(|e| e.to_string())
}

// ---- pool: serving engine ----

pub type Engine = ServeEngine;
pub type Handle = JobHandle;
pub type Outcome = ServeOutcome;
pub type ScriptFactory = MonitorFactory;

/// Default `ServeConfig` except the worker count and the fuel slice.
pub fn serve_engine(workers: usize, fuel_slice: u64) -> Engine {
    ServeEngine::new(ServeConfig {
        workers,
        engine: EngineConfig::builder().fuel_slice(fuel_slice).build(),
        ..ServeConfig::default()
    })
}

pub fn script_factory(source: &str) -> Result<ScriptFactory, String> {
    wizard_script::monitor_factory(source).map_err(|e| e.to_string())
}

/// What a served job carries besides its module.
pub enum ServeMonitor {
    None,
    Hotness,
    Script(ScriptFactory),
}

pub fn serve_job(
    name: &str,
    module: Module,
    n: i32,
    tenant: &str,
    class: Priority,
    imports: bool,
    monitor: ServeMonitor,
) -> Job {
    let mut job =
        Job::new(name, module, "run", vec![Value::I32(n)]).for_tenant(tenant).at_priority(class);
    if imports {
        let linked = job.module.clone();
        job = job.with_linker(move || {
            Shims::standard().linker_for(&linked).expect("frozen corpus module links against shims")
        });
    }
    match monitor {
        ServeMonitor::None => job,
        ServeMonitor::Hotness => job.with_monitor(HotnessMonitor::new),
        ServeMonitor::Script(factory) => job.with_monitor_factory(factory),
    }
}

/// Admits the job, waiting for queue space; `Err` = not admitted.
pub fn submit(engine: &Engine, job: Job) -> Result<Handle, String> {
    let name = job.name.clone();
    engine.submit_blocking(job).handle().ok_or_else(|| format!("job {name} was not admitted"))
}

pub fn wait(handle: &Handle) -> Outcome {
    handle.wait()
}

pub fn outcome_result(outcome: &Outcome) -> Result<String, String> {
    match outcome.status.values() {
        Some(v) => Ok(result_string(v)),
        None => Err(format!("{:?}", outcome.status)),
    }
}

pub fn engine_stats(engine: &Engine) -> EngineStats {
    engine.stats()
}

pub fn tenant_stats(engine: &Engine) -> Vec<TenantStats> {
    engine.tenant_stats()
}

pub fn shutdown(engine: Engine) -> EngineStats {
    engine.shutdown().stats
}
