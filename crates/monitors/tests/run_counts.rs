//! Exactness of the run counters: `HotnessMonitor::new()` — one counter
//! per straight-line run, expanded to per-site rows — must report exactly
//! what `HotnessMonitor::with_mode(ProbeMode::Global)` counts instruction
//! by instruction, wherever execution stops and whenever the monitor comes
//! and goes: traps mid-run, fuel slices with a detach/re-attach at every
//! boundary, cancelled and dropped suspensions, invocations after a trap —
//! on every dispatcher and tier.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use wizard_analysis::cfg::Cfg;
use wizard_engine::store::Linker;
use wizard_engine::{
    Dispatch, EngineConfig, ExecMode, Location, ModuleArtifact, Monitor, Process, RunOutcome,
    Shims, Value,
};
use wizard_monitors::{HotnessMonitor, ProbeMode};
use wizard_suites::corpus::corpus;
use wizard_suites::randgen::random_module;
use wizard_suites::Scale;
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::decode::decode;
use wizard_wasm::module::Module;
use wizard_wasm::opcodes as op;
use wizard_wasm::types::ValType::I32;

/// The call depth the trap programs exhaust.
const MAX_DEPTH: usize = 40;

type Counts = BTreeMap<Location, u64>;

/// Every configuration under test; `true` where a metered run stops at the
/// same instruction as the byte interpreter's (all-interpreter
/// configurations: compiled code charges no fuel for the structural
/// instructions it compiles away, so its slices end elsewhere).
fn configs() -> Vec<(&'static str, EngineConfig, bool)> {
    let tiered = |dispatch| {
        EngineConfig::builder().mode(ExecMode::Tiered).dispatch(dispatch).tierup_threshold(2)
    };
    let mut v = vec![
        ("interpreter_bytecode", EngineConfig::interpreter_bytecode(), true),
        ("interpreter", EngineConfig::interpreter(), true),
        ("jit", EngineConfig::jit(), false),
        ("jit_no_intrinsics", EngineConfig::jit_no_intrinsics(), false),
        ("tiered", tiered(Dispatch::Lowered).build(), false),
        ("interpreter_register", EngineConfig::interpreter_register(), true),
        ("tiered_register", tiered(Dispatch::Register).build(), false),
    ];
    for (_, c, _) in &mut v {
        c.max_call_depth = MAX_DEPTH;
    }
    v
}

/// The oracle's configuration: the byte-walking reference loop.
fn oracle_config() -> EngineConfig {
    EngineConfig { max_call_depth: MAX_DEPTH, ..EngineConfig::interpreter_bytecode() }
}

/// One program under test: a module and the calls to make, in order.
struct Program {
    name: String,
    module: Module,
    calls: Vec<(&'static str, i32)>,
}

impl Program {
    fn run_twice(name: impl Into<String>, module: Module, n: i32) -> Program {
        // The second invocation is the "after a trap" arm wherever the
        // first one traps.
        Program { name: name.into(), module, calls: vec![("run", n), ("run", n)] }
    }

    fn process(&self, config: &EngineConfig) -> Process {
        let linker = if self.module.imports.is_empty() {
            Linker::new()
        } else {
            Shims::standard().linker_for(&self.module).expect("shims resolve")
        };
        Process::new(self.module.clone(), config.clone(), &linker)
            .unwrap_or_else(|e| panic!("{}: instantiate: {e}", self.name))
    }
}

/// A module whose exports trap in the middle of a run, each in a
/// different way: the fused and unfused spellings of a division by zero,
/// an out-of-bounds load, `unreachable`, a trap three calls deep, and
/// call-stack exhaustion. Every trapping instruction has instructions of
/// its own run before and after it.
fn trap_program() -> Program {
    let mut mb = ModuleBuilder::new();
    mb.memory(1);
    // `local.get; local.get; div` — one three-wide superinstruction.
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop().local_get(0).local_get(0).i32_div_u().i32_const(5).i32_add().nop();
    mb.add_func("div_get_get", f);
    // `const; local.get; div` — the `local.get; div` pair fuses.
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop().i32_const(7).local_get(0).i32_div_u().i32_const(5).i32_add().nop();
    mb.add_func("div_get", f);
    // `local.get; const 0; div` — the `const; div` pair fuses.
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop().local_get(0).i32_const(0).i32_div_u().i32_const(5).i32_add().nop();
    mb.add_func("div_const", f);
    // `local.get x; const; rem; local.set x` — the in-place update form.
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop().local_get(0).i32_const(0).i32_rem_u().local_set(0).local_get(0).nop();
    mb.add_func("rem_update", f);
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop().i32_const(-1).i32_load(0).i32_const(5).i32_add().nop();
    mb.add_func("oob_load", f);
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop().nop().unreachable().nop().local_get(0);
    mb.add_func("unreachable", f);
    // deep(x) = 1 + mid(x); mid(x) = 2 + low(x); low(x) = 3 + 7 / x.
    let mut low = FuncBuilder::new(&[I32], &[I32]);
    low.nop().i32_const(7).local_get(0).i32_div_s().i32_const(3).i32_add().nop();
    let low = mb.add_private_func("low", low);
    let mut mid = FuncBuilder::new(&[I32], &[I32]);
    mid.nop().local_get(0).call(low).i32_const(2).i32_add().nop();
    let mid = mb.add_private_func("mid", mid);
    let mut deep = FuncBuilder::new(&[I32], &[I32]);
    deep.nop().local_get(0).call(mid).i32_const(1).i32_add().nop();
    mb.add_func("deep", deep);
    // rec(x) = rec(x) + 1: exhausts the call stack.
    let rec = mb.declare_func("rec", &[I32], &[I32]);
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop().local_get(0).call(rec).i32_const(1).i32_add().nop();
    mb.define_func(rec, f);
    mb.export("rec", wizard_wasm::types::ExternKind::Func, rec);
    let calls = vec![
        ("div_get_get", 0),
        ("div_get_get", 3),
        ("div_get", 0),
        ("div_const", 9),
        ("rem_update", 4),
        ("oob_load", 0),
        ("unreachable", 1),
        ("deep", 0),
        ("deep", 7),
        ("rec", 1),
        ("div_get", 2),
    ];
    Program { name: "traps".into(), module: mb.build().expect("validates"), calls }
}

fn hand_assembled() -> Vec<(&'static str, &'static [u8], i32)> {
    vec![
        ("hand_add4", include_bytes!("../../../tests/corpus/hand_add4.wasm"), 5),
        ("hand_noncanon", include_bytes!("../../../tests/corpus/hand_noncanon.wasm"), 5),
        ("hand_start_data", include_bytes!("../../../tests/corpus/hand_start_data.wasm"), 3),
    ]
}

/// Richards, the ingestion corpus, the hand-assembled binaries and the
/// trap module.
fn fixed_programs() -> Vec<Program> {
    let richards = wizard_suites::richards_benchmark(30);
    let mut v = vec![trap_program(), Program::run_twice("richards", richards.module, richards.n)];
    v.extend(corpus(Scale::Test).into_iter().map(|e| Program::run_twice(e.name, e.module, e.n)));
    for (name, bytes, n) in hand_assembled() {
        v.push(Program::run_twice(name, decode(bytes).expect("decodes"), n));
    }
    v
}

/// 200 random programs; about a third of them trap (division by zero).
fn random_programs() -> Vec<Program> {
    (0..200)
        .map(|seed| Program::run_twice(format!("rand-{seed}"), random_module(seed), 3))
        .collect()
}

/// The rows of a monitor that counted anything (the global variant has no
/// rows for instructions it never saw).
fn rows(m: &HotnessMonitor) -> Counts {
    m.counts().into_iter().filter(|(_, n)| *n > 0).collect()
}

fn add(into: &mut Counts, from: Counts) {
    for (loc, n) in from {
        *into.entry(loc).or_insert(0) += n;
    }
}

fn outcome(r: Result<Vec<Value>, wizard_engine::Trap>) -> String {
    format!("{r:?}")
}

/// Results and per-site rows of `program` run call by call under a
/// monitor attached throughout.
fn whole_run(program: &Program, config: &EngineConfig, mode: ProbeMode) -> (Vec<String>, Counts) {
    let mut p = program.process(config);
    let m = p.attach_monitor(HotnessMonitor::with_mode(mode)).expect("attach");
    let results =
        program.calls.iter().map(|(f, n)| outcome(p.invoke_export(f, &[Value::I32(*n)]))).collect();
    let counts = rows(&m.borrow());
    (results, counts)
}

/// (a) + (d): every program, every configuration, against the oracle —
/// traps mid-run included, and the invocations that follow them.
#[test]
fn whole_runs_match_the_global_oracle_on_every_tier() {
    for program in fixed_programs().iter().chain(&random_programs()) {
        let expect = whole_run(program, &oracle_config(), ProbeMode::Global);
        for (name, config, _) in configs() {
            let got = whole_run(program, &config, ProbeMode::Local);
            assert_eq!(got.0, expect.0, "{} on {name}: results", program.name);
            assert_eq!(got.1, expect.1, "{} on {name}: per-site counts", program.name);
        }
    }
}

/// How a sliced run hands the monitor from one session to the next.
#[derive(Clone, Copy, PartialEq)]
enum Sessions {
    /// A fresh monitor per session; the sessions' rows are summed.
    Fresh,
    /// One instance, detached and re-attached: it accumulates.
    Reattached,
}

/// Runs `program` in `fuel`-sized slices, detaching and re-attaching the
/// monitor at *every* slice boundary, and sums the sessions.
fn sliced_run(
    program: &Program,
    config: &EngineConfig,
    fuel: u64,
    sessions: Sessions,
) -> (Vec<String>, Counts) {
    let mut p = program.process(config);
    let mut total = Counts::new();
    let mut monitor = Rc::new(RefCell::new(HotnessMonitor::new()));
    let mut handle = p.attach_monitor_dyn(monitor.clone()).expect("attach");
    let mut results = Vec::new();
    for (f, n) in &program.calls {
        let mut out = p.run_export_bounded(f, &[Value::I32(*n)], fuel);
        while let Ok(RunOutcome::OutOfFuel) = out {
            p.detach_monitor(handle).expect("detach");
            if sessions == Sessions::Fresh {
                add(&mut total, rows(&monitor.borrow()));
                monitor = Rc::new(RefCell::new(HotnessMonitor::new()));
            }
            handle = p.attach_monitor_dyn(monitor.clone()).expect("attach");
            out = p.resume(fuel);
        }
        results.push(outcome(out.map(|o| o.done().expect("not out of fuel"))));
    }
    p.detach_monitor(handle).expect("detach");
    assert_eq!(p.probed_location_count(), 0);
    add(&mut total, rows(&monitor.borrow()));
    (results, total)
}

/// (b): fuel 1, 7, 13 and 101 — every instruction is counted by exactly
/// one session, wherever the boundaries fall. `fuels` picks which of the
/// four a program takes. The corpus modules that run for 50 000
/// instructions and more take them scaled up (by an odd factor) to at most
/// 600 to 3 000 slices: a re-attach per executed instruction of those
/// would take hours.
fn sliced_sessions_sum_to_the_oracle(programs: &[Program], fuels: impl Fn(usize) -> Vec<u64>) {
    for (k, program) in programs.iter().enumerate() {
        let expect = whole_run(program, &oracle_config(), ProbeMode::Global);
        let executed: u64 = expect.1.values().sum();
        // A re-attach costs in proportion to the module's size.
        let sites = ModuleArtifact::new(program.module.clone()).expect("validates");
        let slices = (600_000 / sites.instruction_sites().len() as u64).clamp(100, 3_000);
        let scale = (executed / slices) | 1;
        for (name, config, _) in configs() {
            for fuel in fuels(k).into_iter().map(|f| f * scale) {
                let sessions = if k % 2 == 0 { Sessions::Reattached } else { Sessions::Fresh };
                let got = sliced_run(program, &config, fuel, sessions);
                let what = format!("{} on {name}, fuel {fuel}", program.name);
                assert_eq!(got.0, expect.0, "{what}: results");
                assert_eq!(got.1, expect.1, "{what}: per-site counts");
            }
        }
    }
}

#[test]
fn sliced_sessions_sum_to_the_oracle_on_the_fixed_programs() {
    sliced_sessions_sum_to_the_oracle(&fixed_programs(), |_| vec![1, 7, 13, 101]);
}

/// The random programs rotate through the four fuels.
#[test]
fn sliced_sessions_sum_to_the_oracle_on_random_programs() {
    sliced_sessions_sum_to_the_oracle(&random_programs(), |k| vec![[1, 7, 13, 101][k / 2 % 4]]);
}

/// How a suspended run is abandoned.
#[derive(Clone, Copy, Debug)]
enum Abandon {
    Cancel,
    Drop,
    /// Not abandoned at all: the monitor is detached mid-run instead,
    /// which must leave it with the same prefix.
    Detach,
}

/// Runs the program's first call for one `fuel` slice under `mode`; if
/// that suspends, abandons it. `None` if it finished within the slice.
fn abandoned_run(
    program: &Program,
    config: &EngineConfig,
    mode: ProbeMode,
    fuel: u64,
    how: Abandon,
) -> Option<(Location, Counts)> {
    let mut p = program.process(config);
    let m = p.attach_monitor(HotnessMonitor::with_mode(mode)).expect("attach");
    let (f, n) = program.calls[0];
    if p.run_export_bounded(f, &[Value::I32(n)], fuel) != Ok(RunOutcome::OutOfFuel) {
        return None;
    }
    let at = p.suspended_at().expect("suspended");
    match how {
        Abandon::Cancel => assert!(p.cancel_suspended()),
        Abandon::Drop => drop(p),
        Abandon::Detach => p.detach_monitor(m.handle()).expect("detach"),
    }
    let counts = rows(&m.borrow());
    Some((at, counts))
}

/// (c): a cancelled suspension, a dropped process and a mid-run detach all
/// leave exactly the executed prefix — on every configuration equal to
/// each other, and where slices end at the interpreter's instruction, to
/// the oracle's prefix.
#[test]
fn abandoned_suspensions_keep_only_the_executed_prefix() {
    let mut programs = fixed_programs();
    programs.extend(random_programs().into_iter().step_by(5));
    for program in &programs {
        for fuel in [5, 37, 113] {
            let oracle =
                abandoned_run(program, &oracle_config(), ProbeMode::Global, fuel, Abandon::Cancel);
            for (name, config, interpreter_slices) in configs() {
                let what = format!("{} on {name}, fuel {fuel}", program.name);
                let cancel =
                    abandoned_run(program, &config, ProbeMode::Local, fuel, Abandon::Cancel);
                for how in [Abandon::Drop, Abandon::Detach] {
                    let other = abandoned_run(program, &config, ProbeMode::Local, fuel, how);
                    assert_eq!(other, cancel, "{what}: {how:?} vs cancel");
                }
                if interpreter_slices {
                    assert_eq!(cancel, oracle, "{what}: vs the oracle");
                }
            }
        }
    }
}

/// The artifact's run partition is `wizard_analysis`'s basic blocks, split
/// once more after every call.
#[test]
fn runs_are_basic_blocks_split_after_calls() {
    let mut modules: Vec<(String, Module)> = wizard_suites::all_suites(Scale::Test)
        .into_iter()
        .map(|b| (format!("{}/{}", b.suite, b.name), b.module))
        .collect();
    modules.extend(fixed_programs().into_iter().map(|p| (p.name, p.module)));
    modules.extend(random_programs().into_iter().take(40).map(|p| (p.name, p.module)));
    for (name, module) in modules {
        let artifact = ModuleArtifact::new(module).expect("validates");
        let runs = artifact.runs();
        let mut expect = Vec::new();
        for f in artifact.funcs() {
            let cfg = Cfg::build(&f.bytes, &f.meta);
            for block in &cfg.blocks {
                let mut leader = true;
                for instr in &cfg.instrs[block.start..block.end] {
                    if leader {
                        expect.push(Location { func: f.func, pc: instr.pc });
                    }
                    leader = matches!(instr.op, op::CALL | op::CALL_INDIRECT);
                }
            }
        }
        let leaders: Vec<Location> = (0..runs.len()).map(|r| runs.leader(r)).collect();
        assert_eq!(leaders, expect, "{name}");
        // The runs tile the site list.
        assert_eq!(runs.run(0).start, 0, "{name}");
        assert!((1..runs.len()).all(|r| runs.run(r - 1).end == runs.run(r).start), "{name}");
        assert_eq!(runs.run(runs.len() - 1).end, runs.sites().len(), "{name}");
    }
}

/// `on_unwind` reports the trapping instruction itself, on every tier.
#[test]
fn on_unwind_names_the_trapping_instruction() {
    #[derive(Default)]
    struct Stops(Vec<(Location, bool)>);
    impl Monitor for Stops {
        fn name(&self) -> &'static str {
            "stops"
        }
        fn on_attach(
            &mut self,
            _: &mut wizard_engine::InstrumentationCtx<'_>,
        ) -> Result<(), wizard_engine::ProbeError> {
            Ok(())
        }
        fn on_unwind(&mut self, top: Location, executed: bool) {
            self.0.push((top, executed));
        }
        fn report(&self) -> wizard_engine::Report {
            wizard_engine::Report::new("stops")
        }
    }
    let program = trap_program();
    let mut expect: Option<Vec<(Location, bool)>> = None;
    for (name, config, _) in configs() {
        let mut p = program.process(&config);
        let m = p.attach_monitor(Stops::default()).expect("attach");
        let mut traps = 0;
        for (f, n) in &program.calls {
            traps += usize::from(p.invoke_export(f, &[Value::I32(*n)]).is_err());
        }
        let stops = m.borrow().0.clone();
        assert_eq!(stops.len(), traps, "{name}: one unwind per trap");
        assert!(stops.iter().all(|(_, executed)| *executed), "{name}");
        // Every stop is on an instruction that can trap.
        for (loc, _) in &stops {
            let f = &p.artifact().funcs()[loc.func as usize];
            let opcode = f.bytes[loc.pc as usize];
            let traps = matches!(
                opcode,
                op::I32_DIV_U | op::I32_DIV_S | op::I32_REM_U | op::I32_LOAD | op::UNREACHABLE
            ) || opcode == op::CALL;
            assert!(traps, "{name}: stopped on opcode {opcode:#04x} at {loc}");
        }
        match &expect {
            None => expect = Some(stops),
            Some(e) => assert_eq!(&stops, e, "{name}: same stops as the byte interpreter"),
        }
    }
}
