//! `wizard-bench`: the harness that regenerates every table and figure of
//! the paper's evaluation (§5 and §6.4). Binaries under `src/bin/` print
//! the same rows/series the paper plots; this library holds the shared
//! measurement machinery.
//!
//! Methodology (matching §5.1): each measurement times the *entire*
//! program — engine instantiation, monitor attachment, and execution —
//! and reports relative execution time `T_i / T_u` against the
//! uninstrumented configuration on the same tier, averaged over
//! `WIZARD_RUNS` runs (default 2). `WIZARD_SCALE` picks the problem size
//! (`test`, `small`, `medium`).

#![warn(missing_docs)]

pub mod json;

use std::time::{Duration, Instant};

use wizard_baselines::{dbi, wasabi};
use wizard_engine::store::Linker;
use wizard_engine::{CountProbe, EngineConfig, ProbeBatch, ProbeRef, Process, Value};
use wizard_monitors::{BranchMonitor, HotnessMonitor, ProbeMode};
use wizard_suites::{Benchmark, Scale};

/// Which analysis the measurement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analysis {
    /// No instrumentation (the baseline).
    None,
    /// Hotness in the paper's shape: a `Count` probe before *every*
    /// instruction (one global probe under [`System::InterpGlobal`]). The
    /// zoo's `HotnessMonitor` counts per straight-line run instead, which
    /// is not what Figures 3–6 measure.
    Hotness,
    /// The branch monitor (profile conditional branches).
    Branch,
    /// The hotness monitor with probes that have empty M-code
    /// (measures pure probe-dispatch overhead, Figure 5).
    HotnessEmpty,
    /// The branch monitor analog with empty operand probes.
    BranchEmpty,
}

/// Which system executes the instrumented program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Wizard probes in the interpreter.
    Interp,
    /// Wizard probes in the JIT tier with intrinsification.
    JitIntrinsified,
    /// Wizard probes in the JIT tier without intrinsification.
    Jit,
    /// Static bytecode rewriting run on the JIT tier (§5.5).
    Rewriting,
    /// Wasabi-style host-callback instrumentation (§5.6).
    Wasabi,
    /// DynamoRIO-style clean-call instrumentation (§5.7).
    Dbi,
    /// Wizard global probes in the interpreter (Figure 3).
    InterpGlobal,
}

impl System {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            System::Interp => "Wizard (Interpreter)",
            System::JitIntrinsified => "Wizard (JIT intrins.)",
            System::Jit => "Wizard (JIT)",
            System::Rewriting => "Bytecode rewriting (JIT)",
            System::Wasabi => "Wasabi-style (host calls)",
            System::Dbi => "DynamoRIO-style (clean calls)",
            System::InterpGlobal => "Wizard (Interp, global probe)",
        }
    }

    /// The engine configuration whose *uninstrumented* time is the
    /// denominator for this system.
    pub fn baseline_config(self) -> EngineConfig {
        match self {
            System::Interp | System::InterpGlobal => EngineConfig::interpreter(),
            _ => EngineConfig::jit(),
        }
    }
}

/// One measurement result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Wall-clock time (mean over runs).
    pub time: Duration,
    /// Probe/event fires observed (annotation in Figures 3/4).
    pub fires: u64,
    /// Program checksum, for cross-system validation.
    pub checksum: u64,
}

/// Number of repetitions per measurement (`WIZARD_RUNS`, default 2,
/// clamped to at least 1).
pub fn runs() -> u32 {
    std::env::var("WIZARD_RUNS").ok().and_then(|s| s.parse().ok()).unwrap_or(2).max(1)
}

/// Problem scale (`WIZARD_SCALE`: `test` / `small` / `medium`).
pub fn scale() -> Scale {
    match std::env::var("WIZARD_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        Ok("medium") => Scale::Medium,
        _ => Scale::Small,
    }
}

/// `true` when running as a CI smoke test (`WIZARD_SMOKE=1`): emitters
/// still exercise their full measurement and JSON paths but skip hard
/// performance assertions, which are meaningless at smoke iteration
/// counts on shared runners.
pub fn smoke() -> bool {
    std::env::var("WIZARD_SMOKE").as_deref() == Ok("1")
}

/// An [`EngineConfig`] serialized for the metadata block.
pub fn engine_json(c: &EngineConfig) -> json::Json {
    use json::Json;
    Json::object([
        ("mode", Json::str(format!("{:?}", c.mode))),
        ("dispatch", Json::str(format!("{:?}", c.dispatch))),
        ("tierup_threshold", Json::num(f64::from(c.tierup_threshold))),
        ("intrinsify_count", Json::Bool(c.intrinsify_count)),
        ("intrinsify_operand", Json::Bool(c.intrinsify_operand)),
        ("fuel_slice", c.fuel_slice.map_or(Json::Null, |n| Json::num(n as f64))),
    ])
}

/// The shared metadata block every `BENCH_*.json` artifact starts with
/// (schema v2): bench name, schema version, scale, runs, host parallelism,
/// the primary engine configuration, and the suite names measured. Every
/// emitter prepends this and appends its series-specific fields, so the
/// artifacts stay joinable across benches and hosts.
pub fn metadata(bench: &str, suites: &[&str], engine: &EngineConfig) -> Vec<(String, json::Json)> {
    use json::Json;
    // Recorded so cross-host series stay interpretable.
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        ("bench".to_string(), Json::str(bench)),
        ("schema".to_string(), Json::num(2.0)),
        ("scale".to_string(), Json::str(format!("{:?}", scale()).to_lowercase())),
        ("runs".to_string(), Json::num(f64::from(runs()))),
        ("host_parallelism".to_string(), Json::num(host_parallelism as f64)),
        ("engine".to_string(), engine_json(engine)),
        ("suites".to_string(), Json::array(suites.iter().copied().map(Json::str).collect())),
    ]
}

fn checksum_of(results: &[Value]) -> u64 {
    results.first().map_or(0, |v| v.to_slot().0)
}

/// Times one complete run: instantiate, attach, invoke.
fn timed(mut setup: impl FnMut() -> (Duration, u64, u64)) -> Measurement {
    let n = runs();
    let mut total = Duration::ZERO;
    let mut fires = 0;
    let mut checksum = 0;
    for _ in 0..n {
        let (t, f, c) = setup();
        total += t;
        fires = f;
        checksum = c;
    }
    Measurement { time: total / n, fires, checksum }
}

/// Measures `analysis` on `bench` under `system`.
///
/// # Panics
///
/// Panics if instantiation or execution fails (benchmarks are validated).
pub fn measure(bench: &Benchmark, system: System, analysis: Analysis) -> Measurement {
    match system {
        System::Interp | System::Jit | System::JitIntrinsified | System::InterpGlobal => {
            let config = match system {
                System::Interp | System::InterpGlobal => EngineConfig::interpreter(),
                System::Jit => EngineConfig::jit_no_intrinsics(),
                System::JitIntrinsified => EngineConfig::jit(),
                _ => unreachable!(),
            };
            let mode =
                if system == System::InterpGlobal { ProbeMode::Global } else { ProbeMode::Local };
            timed(|| {
                let start = Instant::now();
                let mut p = Process::new(bench.module.clone(), config.clone(), &Linker::new())
                    .expect("benchmark instantiates");
                // In smoke runs, the fires a figure's meaning rests on.
                let mut expect = None;
                let fires_box: Box<dyn Fn() -> u64> = match analysis {
                    Analysis::None => Box::new(|| 0),
                    Analysis::Hotness if mode == ProbeMode::Global => {
                        let m = p.attach_monitor(HotnessMonitor::with_mode(mode)).expect("attach");
                        Box::new(move || m.borrow().total())
                    }
                    Analysis::Hotness => {
                        let mut cells = Vec::new();
                        attach_per_instruction(&mut p, false, |_| {
                            let probe = CountProbe::new();
                            cells.push(probe.cell());
                            shared(probe)
                        });
                        if smoke() {
                            // One fire per executed instruction, as the
                            // global-probe monitor counts them.
                            expect = Some(global_instruction_count(bench));
                        }
                        Box::new(move || cells.iter().map(|c| c.get()).sum())
                    }
                    Analysis::Branch => {
                        let m = p.attach_monitor(BranchMonitor::with_mode(mode)).expect("attach");
                        Box::new(move || m.borrow().total_fires())
                    }
                    Analysis::HotnessEmpty => {
                        attach_empty(&mut p, false);
                        Box::new(|| 0)
                    }
                    Analysis::BranchEmpty => {
                        attach_empty(&mut p, true);
                        Box::new(|| 0)
                    }
                };
                let r = p.invoke_export("run", &[Value::I32(bench.n)]).expect("runs");
                let t = start.elapsed();
                let fires = fires_box();
                if let Some(expect) = expect {
                    assert_eq!(fires, expect, "{}: a probe before every instruction", bench.name);
                }
                (t, fires, checksum_of(&r))
            })
        }
        System::Rewriting => timed(|| {
            let start = Instant::now();
            let counted = match analysis {
                Analysis::Hotness | Analysis::HotnessEmpty => {
                    wizard_rewriter::count_instructions(&bench.module).expect("rewrites")
                }
                Analysis::Branch | Analysis::BranchEmpty => {
                    wizard_rewriter::count_branches(&bench.module).expect("rewrites")
                }
                Analysis::None => {
                    // Uninstrumented "rewriting" = the original module.
                    let mut p =
                        Process::new(bench.module.clone(), EngineConfig::jit(), &Linker::new())
                            .expect("instantiates");
                    let r = p.invoke_export("run", &[Value::I32(bench.n)]).expect("runs");
                    return (start.elapsed(), 0, checksum_of(&r));
                }
            };
            let mut p = Process::new(counted.module.clone(), EngineConfig::jit(), &Linker::new())
                .expect("instantiates");
            let r = p.invoke_export("run", &[Value::I32(bench.n)]).expect("runs");
            let t = start.elapsed();
            let fires = counted.total(p.memory().expect("memory"));
            (t, fires, checksum_of(&r))
        }),
        System::Wasabi => timed(|| {
            let start = Instant::now();
            let run = match analysis {
                Analysis::Branch | Analysis::BranchEmpty => {
                    wasabi::branch(&bench.module).expect("injects")
                }
                _ => wasabi::hotness(&bench.module).expect("injects"),
            };
            let mut p = Process::new(run.module.clone(), EngineConfig::jit(), &run.linker)
                .expect("instantiates");
            let r = p.invoke_export("run", &[Value::I32(bench.n)]).expect("runs");
            (start.elapsed(), run.analysis.events(), checksum_of(&r))
        }),
        System::Dbi => timed(|| {
            let start = Instant::now();
            let run = match analysis {
                Analysis::Branch | Analysis::BranchEmpty => {
                    dbi::branch(&bench.module).expect("injects")
                }
                _ => dbi::hotness(&bench.module).expect("injects"),
            };
            let mut p = Process::new(run.module.clone(), EngineConfig::jit(), &run.linker)
                .expect("instantiates");
            let r = p.invoke_export("run", &[Value::I32(bench.n)]).expect("runs");
            (start.elapsed(), run.tool.clean_calls(), checksum_of(&r))
        }),
    }
}

/// Instructions `bench` executes, counted one by one by the global-probe
/// hotness monitor in the interpreter.
fn global_instruction_count(bench: &Benchmark) -> u64 {
    let mut p = Process::new(bench.module.clone(), EngineConfig::interpreter(), &Linker::new())
        .expect("benchmark instantiates");
    let m = p.attach_monitor(HotnessMonitor::with_mode(ProbeMode::Global)).expect("attach");
    p.invoke_export("run", &[Value::I32(bench.n)]).expect("runs");
    let total = m.borrow().total();
    total
}

fn shared(probe: impl wizard_engine::Probe) -> ProbeRef {
    std::rc::Rc::new(std::cell::RefCell::new(probe))
}

fn attach_empty(p: &mut Process, branches_only: bool) {
    use wizard_engine::{EmptyOperandProbe, EmptyProbe};
    attach_per_instruction(p, branches_only, |is_branch| {
        if branches_only && is_branch {
            shared(EmptyOperandProbe)
        } else {
            shared(EmptyProbe)
        }
    });
}

/// Installs `probe(is_branch)` before every instruction (every
/// conditional branch, if `branches_only`) in one batch — the paper's
/// instrumentation shape.
fn attach_per_instruction(
    p: &mut Process,
    branches_only: bool,
    mut probe: impl FnMut(bool) -> ProbeRef,
) {
    use wizard_wasm::opcodes as op;
    let sites: Vec<(u32, u32, u8)> = {
        let module = p.module();
        let n_imp = module.num_imported_funcs();
        let mut v = Vec::new();
        for (i, f) in module.funcs.iter().enumerate() {
            for item in wizard_wasm::instr::InstrIter::new(&f.body.code) {
                let instr = item.expect("validated");
                let is_branch = matches!(instr.op, op::IF | op::BR_IF | op::BR_TABLE);
                if !branches_only || is_branch {
                    v.push((n_imp + i as u32, instr.pc, instr.op));
                }
            }
        }
        v
    };
    // Batched: the whole probe set costs one invalidation pass.
    let mut batch = ProbeBatch::new();
    for (func, pc, opcode) in sites {
        let is_branch = matches!(opcode, op::IF | op::BR_IF | op::BR_TABLE);
        batch.add_local(func, pc, probe(is_branch));
    }
    p.apply_batch(batch).expect("attach");
}

/// Uninstrumented baseline time for a system.
pub fn baseline(bench: &Benchmark, system: System) -> Measurement {
    let config = system.baseline_config();
    timed(|| {
        let start = Instant::now();
        let mut p = Process::new(bench.module.clone(), config.clone(), &Linker::new())
            .expect("instantiates");
        let r = p.invoke_export("run", &[Value::I32(bench.n)]).expect("runs");
        (start.elapsed(), 0, checksum_of(&r))
    })
}

/// Relative execution time `instrumented / uninstrumented`.
pub fn relative(instrumented: &Measurement, uninstrumented: &Measurement) -> f64 {
    instrumented.time.as_secs_f64() / uninstrumented.time.as_secs_f64().max(1e-9)
}

/// Geometric mean of a series.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a figure row: name, then `label=value×` columns.
pub fn row(name: &str, cols: &[(&str, f64)]) -> String {
    let mut s = format!("{name:<16}");
    for (label, v) in cols {
        s.push_str(&format!(" {label}={v:>8.2}x"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn relative_time_is_ratio() {
        let a = Measurement { time: Duration::from_millis(30), fires: 0, checksum: 0 };
        let b = Measurement { time: Duration::from_millis(10), fires: 0, checksum: 0 };
        assert!((relative(&a, &b) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn hotness_measurement_checksums_match_baseline() {
        std::env::set_var("WIZARD_RUNS", "1");
        let bench = &wizard_suites::polybench_suite(Scale::Test)[2]; // gesummv
        let base = baseline(bench, System::JitIntrinsified);
        for system in
            [System::Interp, System::Jit, System::JitIntrinsified, System::Rewriting, System::Dbi]
        {
            let m = measure(bench, system, Analysis::Hotness);
            assert_eq!(
                m.checksum,
                base.checksum,
                "{}: instrumentation changed the result",
                system.label()
            );
            assert!(m.fires > 0, "{}: no fires recorded", system.label());
        }
    }
}
